"""Tests for risk scoring, separation, and sub-Gaussian norm estimates.

Risk values are checked against an exhaustive matching oracle
(tests/oracles.py). Closed-form constants below froze to the agreed digits:

    psi2 of a fair +-1/2 coin            = 0.5/sqrt(ln 2) = 0.6005612043932249
    psi2 of N(0, s^2)                    = s*sqrt(8/3)
"""

import math

import numpy as np
import pytest

from rankmix.evaluation import (
    empirical_tau,
    misclassification_rate,
    psi2_norm,
    separation_gamma,
)
from rankmix.generators import ComponentSpec, MixtureSpec, cluster_mean, sample_mixture
from rankmix.rankings import Permutation

from oracles import oracle_risk_exhaustive

TWO_POINT_PSI2 = 0.6005612043932249

# worst observed tau_hat / sqrt(n-1) across families and n in {10..200} was
# 0.435; frozen with margin
C_CAL = 0.55


# ---------------------------------------------------------------------------
# misclassification_rate
# ---------------------------------------------------------------------------

def test_risk_zero_when_equal():
    labels = [0, 1, 2, 0, 1, 2]
    risk, matching = misclassification_rate(labels, labels)
    assert risk == 0.0
    assert matching == ((0, 0), (1, 1), (2, 2))


def test_risk_zero_under_label_swap():
    truth = [0, 1, 0, 1, 1]
    swapped = [1, 0, 1, 0, 0]
    risk, matching = misclassification_rate(swapped, truth)
    assert risk == 0.0
    assert matching == ((0, 1), (1, 0))


def test_random_two_label_risk_near_half():
    rng = np.random.default_rng(10)
    N = 100_000
    truth = rng.integers(0, 2, size=N)
    predicted = rng.integers(0, 2, size=N)
    risk, _ = misclassification_rate(predicted, truth)
    assert abs(risk - 0.5) <= 0.01


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        misclassification_rate([0, 1], [0, 1, 2])


def test_risk_matches_exhaustive_oracle_random_instances():
    # 1-7 labels per side, so label sets up to 6 and beyond are both covered
    rng = np.random.default_rng(11)
    for trial in range(500):
        N = int(rng.integers(1, 40))
        kp = int(rng.integers(1, 8))
        kt = int(rng.integers(1, 8))
        predicted = rng.integers(0, kp, size=N)
        truth = rng.integers(0, kt, size=N)
        got, _ = misclassification_rate(predicted, truth)
        assert got == pytest.approx(oracle_risk_exhaustive(predicted, truth), abs=1e-12), f"trial {trial}"


def test_risk_symmetric_for_equal_label_counts():
    rng = np.random.default_rng(12)
    for _ in range(100):
        N = int(rng.integers(2, 30))
        k = int(rng.integers(1, 5))
        a = rng.integers(0, k, size=N)
        b = rng.integers(0, k, size=N)
        if len(set(a)) != len(set(b)):
            continue
        assert misclassification_rate(a, b)[0] == pytest.approx(
            misclassification_rate(b, a)[0], abs=1e-12
        )


def test_risk_invariant_under_relabeling():
    rng = np.random.default_rng(13)
    for _ in range(100):
        N = int(rng.integers(2, 30))
        k = int(rng.integers(1, 5))
        predicted = rng.integers(0, k, size=N)
        truth = rng.integers(0, k, size=N)
        base, _ = misclassification_rate(predicted, truth)
        shift = {i: i + 17 for i in range(k)}  # injective relabel
        relabeled = np.array([shift[p] for p in predicted])
        assert misclassification_rate(relabeled, truth)[0] == pytest.approx(base, abs=1e-12)
        perm = rng.permutation(k)
        relabeled_t = np.array([perm[t] for t in truth])
        assert misclassification_rate(predicted, relabeled_t)[0] == pytest.approx(base, abs=1e-12)


def test_matching_achieves_reported_risk():
    rng = np.random.default_rng(14)
    for _ in range(100):
        N = int(rng.integers(2, 40))
        predicted = rng.integers(0, 4, size=N)
        truth = rng.integers(0, 3, size=N)
        risk, matching = misclassification_rate(predicted, truth)
        pairs = dict(matching)
        smaller = min(len(set(predicted.tolist())), len(set(truth.tolist())))
        assert len(pairs) == smaller
        assert len(set(pairs.values())) == len(pairs)  # injective
        agree = sum(1 for p, t in zip(predicted, truth) if pairs.get(p) == t)
        assert risk == pytest.approx(1.0 - agree / N, abs=1e-12)


def test_matching_tie_broken_lexicographically():
    # all matchings agree on exactly half the rows; ties go to the assignment
    # solver's deterministic optimum, which here is the identity pairing
    risk, matching = misclassification_rate([0, 0, 1, 1], [0, 1, 0, 1])
    assert risk == 0.5
    assert matching == ((0, 0), (1, 1))


# ---------------------------------------------------------------------------
# separation_gamma
# ---------------------------------------------------------------------------

def test_gamma_identical_means_zero():
    mu = np.ones(6)
    assert separation_gamma([mu, mu.copy()]) == 0.0


def test_gamma_unit_coordinate_vectors():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert separation_gamma([e1, e2]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_gamma_requires_two_means():
    with pytest.raises(ValueError):
        separation_gamma([np.zeros(3)])


def test_gamma_equals_bruteforce_pairwise_min_for_mnl_means():
    rng = np.random.default_rng(15)
    n = 20
    means = []
    for _ in range(3):
        u = rng.permutation(np.linspace(0.0, 2.0, n))
        means.append(cluster_mean(ComponentSpec.mnl(u, 0.5)))
    want = min(
        np.linalg.norm(means[i] - means[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert separation_gamma(means) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# psi2_norm / empirical_tau
# ---------------------------------------------------------------------------

def test_psi2_fair_coin_exact_empirical_law():
    x = np.array([0.5, -0.5] * 500)
    assert psi2_norm(x) == pytest.approx(TWO_POINT_PSI2, rel=1e-5)


def test_psi2_all_zero():
    assert psi2_norm(np.zeros(100)) == 0.0


def test_psi2_gaussian_samples():
    rng = np.random.default_rng(17)
    x = rng.normal(0.0, 1.0, size=20_000)
    assert psi2_norm(x) == pytest.approx(math.sqrt(8.0 / 3.0), rel=0.05)


def test_psi2_scale_equivariant():
    rng = np.random.default_rng(18)
    x = rng.normal(size=2_000)
    assert psi2_norm(3.0 * x) == pytest.approx(3.0 * psi2_norm(x), rel=1e-4)


def test_tau_constant_distribution_is_zero():
    spec = ComponentSpec.gaussian(np.arange(5.0, 0.0, -1.0), 1e-12)
    assert empirical_tau(spec, num_samples=200, num_directions=4, rng_seed=0) == 0.0


def test_tau_two_item_fair_coin():
    spec = ComponentSpec.mnl(np.zeros(2), 1.0)
    tau = empirical_tau(spec, num_samples=4_000, num_directions=8, rng_seed=1)
    assert tau == pytest.approx(TWO_POINT_PSI2, rel=0.05)


def test_tau_grows_with_n_in_high_noise_regime():
    taus = {}
    for n in (25, 100):
        spec = ComponentSpec.gaussian(np.zeros(n), 1.0)
        taus[n] = empirical_tau(spec, num_samples=600, num_directions=8, rng_seed=2)
    # dispersion along the disagreement-count direction scales like sqrt(n)
    assert 1.4 <= taus[100] / taus[25] <= 3.0


def test_tau_within_calibrated_sqrt_n_budget():
    cases = []
    for n in (10, 50, 200):
        cases.append(ComponentSpec.gaussian(np.zeros(n), 1.0))
        cases.append(ComponentSpec.mnl(np.zeros(n), 1.0))
    for n in (10, 50):
        cases.append(ComponentSpec.mallows(Permutation(list(range(n))), 0.9))
    for spec in cases:
        tau = empirical_tau(spec, num_samples=500, num_directions=16, rng_seed=3)
        assert tau <= C_CAL * math.sqrt(spec.n - 1), (spec.family, spec.n, tau)


def test_tau_always_probes_the_all_ones_direction():
    # one random direction plus the disagreement count, whose psi2 is a floor
    spec = ComponentSpec.gaussian(np.zeros(30), 1.0)
    x = sample_mixture(MixtureSpec([spec], [1.0]), 300, 5).values
    xc = x - x.mean(axis=0)
    floor = psi2_norm(xc @ np.full(x.shape[1], 1.0 / math.sqrt(x.shape[1])))
    assert empirical_tau(spec, num_samples=300, num_directions=1, rng_seed=5) >= floor


def test_tau_validates_arguments():
    spec = ComponentSpec.mnl(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        empirical_tau(spec, num_samples=50, num_directions=4)
    with pytest.raises(ValueError):
        empirical_tau(spec, num_samples=200, num_directions=0)
    # np.arange(100.5) has 101 entries: a fractional count is refused, not rounded up
    with pytest.raises(ValueError, match="row count must be a positive integer, got 100.5"):
        empirical_tau(spec, num_samples=100.5, num_directions=4)
    assert empirical_tau(spec, np.int64(200), 4, rng_seed=1) == empirical_tau(spec, 200, 4, rng_seed=1)


def test_tau_deterministic_given_seed():
    spec = ComponentSpec.gaussian(np.zeros(12), 1.0)
    a = empirical_tau(spec, num_samples=200, num_directions=4, rng_seed=9)
    b = empirical_tau(spec, num_samples=200, num_directions=4, rng_seed=9)
    assert a == b
