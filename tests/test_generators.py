import math

import numpy as np
import pytest

from oracles import (
    lex_pairs,
    oracle_gaussian_marginal,
    oracle_mallows_marginal,
    oracle_mallows_pmf,
    oracle_mnl_marginal,
    positions_of,
)
from rankmix.generators import (
    GAUSSIAN,
    MALLOWS,
    MNL,
    ComponentSpec,
    LabeledSample,
    MixtureSpec,
    cluster_mean,
    exact_pairwise_marginal,
    gumbel,
    hypercube_utilities,
    mask,
    normal_utilities,
    order_from_scores,
    rho_separated_utilities,
    sample_component,
    sample_embedded_batch,
    sample_mixture,
)
from rankmix.pipeline import run_pipeline
from rankmix.rankings import Permutation, is_missing

EULER_GAMMA = 0.5772156649015329

# frozen closed-form values (stdlib math, double checked by hand)
MNL_MARGINAL_1_0 = 0.7310585786300049  # e/(e+1)
GAUSS_MARGINAL_1_1 = 0.7602499389065233  # Phi(1/sqrt(2))


# ---------------------------------------------------------------- spec types

def test_component_spec_validation():
    with pytest.raises(ValueError):
        ComponentSpec.mnl([1.0, 0.0], beta=0.0)
    with pytest.raises(ValueError):
        ComponentSpec.gaussian([1.0, 0.0], sigma=-1.0)
    with pytest.raises(ValueError):
        ComponentSpec.mallows(Permutation([0, 1, 2]), phi=1.0)
    with pytest.raises(ValueError):
        ComponentSpec.mallows(Permutation([0, 1, 2]), phi=0.0)
    spec = ComponentSpec.mnl([1.0, 0.0, -1.0], beta=2.0)
    assert spec.family == MNL and spec.n == 3
    spec = ComponentSpec.mallows(Permutation([2, 0, 1]), phi=0.5)
    assert spec.family == MALLOWS and spec.n == 3


def test_mixture_spec_validation():
    c1 = ComponentSpec.gaussian([0.0, 1.0], sigma=1.0)
    c2 = ComponentSpec.gaussian([1.0, 0.0], sigma=1.0)
    with pytest.raises(ValueError):
        MixtureSpec([c1, c2], [0.7, 0.7])
    with pytest.raises(ValueError):
        MixtureSpec([c1, c2], [1.2, -0.2])
    c3 = ComponentSpec.gaussian([1.0, 0.0, 2.0], sigma=1.0)
    with pytest.raises(ValueError):
        MixtureSpec([c1, c3], [0.5, 0.5])
    m = MixtureSpec([c1, c2], [0.5, 0.5])
    assert m.k == 2 and m.n == 2


# ------------------------------------------------------------------ sampling

def test_gaussian_noiseless_limit_sorts_utilities():
    spec = ComponentSpec.gaussian([3.0, 2.0, 1.0], sigma=1e-9)
    for seed in range(200):
        p = sample_component(spec, seed)
        assert list(p.order) == [0, 1, 2]


def test_mnl_two_item_marginal_matches_formula():
    spec = ComponentSpec.mnl([1.0, 0.0], beta=1.0)
    x = sample_embedded_batch(spec, 100_000, rng_seed=42)
    freq = float(np.mean(x[:, 0] == 0.5))
    assert abs(freq - MNL_MARGINAL_1_0) <= 0.01


def test_mallows_pmf_matches_brute_force():
    center = Permutation([0, 1, 2, 3])
    spec = ComponentSpec.mallows(center, phi=0.5)
    want = oracle_mallows_pmf(tuple(center.order), 0.5)
    counts = {}
    rng = np.random.default_rng(4)
    draws = 100_000
    for _ in range(draws):
        p = sample_component(spec, rng)
        key = tuple(p.order)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(perm, 0) / draws - prob) for perm, prob in want.items()
    )
    assert tv <= 0.02


def test_gumbel_inverse_cdf_mean():
    for beta in (1.0, 2.0):
        rng = np.random.default_rng(11)
        g = gumbel(beta, 100_000, rng)
        assert abs(np.mean(g) - beta * EULER_GAMMA) / (beta * EULER_GAMMA) <= 0.02


def test_order_from_scores_tie_break_prefers_lower_index():
    assert list(order_from_scores(np.array([1.0, 1.0, 0.5]))) == [0, 1, 2]
    assert list(order_from_scores(np.array([0.5, 1.0, 1.0]))) == [1, 2, 0]


def test_sample_component_deterministic_given_seed():
    spec = ComponentSpec.mnl([0.5, 0.0, -0.5, 1.0], beta=1.0)
    assert sample_component(spec, 123) == sample_component(spec, 123)


# ------------------------------------------------------------ exact marginals

def test_marginal_equal_utilities_is_half():
    spec = ComponentSpec.mnl([1.0, 1.0, 1.0], beta=0.7)
    assert exact_pairwise_marginal(spec, 0, 1) == 0.5
    spec = ComponentSpec.gaussian([2.0, 2.0], sigma=0.5)
    assert exact_pairwise_marginal(spec, 0, 1) == 0.5


def test_marginal_frozen_values():
    mnl = ComponentSpec.mnl([1.0, 0.0], beta=1.0)
    assert abs(exact_pairwise_marginal(mnl, 0, 1) - MNL_MARGINAL_1_0) < 1e-12
    gauss = ComponentSpec.gaussian([1.0, 0.0], sigma=1.0)
    assert abs(exact_pairwise_marginal(gauss, 0, 1) - GAUSS_MARGINAL_1_1) < 1e-12


def test_marginal_complement():
    spec = ComponentSpec.mnl([0.3, -0.2, 1.1], beta=0.9)
    for a in range(3):
        for b in range(3):
            if a != b:
                pab = exact_pairwise_marginal(spec, a, b)
                pba = exact_pairwise_marginal(spec, b, a)
                assert abs(pab + pba - 1.0) < 1e-12


def test_mallows_marginal_matches_enumeration():
    center = Permutation([2, 0, 3, 1])
    spec = ComponentSpec.mallows(center, phi=0.6)
    for a, b in lex_pairs(4):
        want = oracle_mallows_marginal(tuple(center.order), 0.6, a, b)
        assert abs(exact_pairwise_marginal(spec, a, b) - want) < 1e-12


def test_mallows_closed_form_matches_enumeration_n7():
    center = Permutation([3, 6, 0, 5, 1, 4, 2])
    for phi in (0.1, 0.8, 0.99):
        spec = ComponentSpec.mallows(center, phi=phi)
        pmf = [(positions_of(perm), prob) for perm, prob in oracle_mallows_pmf(tuple(center.order), phi).items()]
        mu = cluster_mean(spec)
        for k, (a, b) in enumerate(lex_pairs(7)):
            want = sum(prob for pos, prob in pmf if pos[a] < pos[b])
            assert abs(exact_pairwise_marginal(spec, a, b) - want) < 1e-12
            assert abs(exact_pairwise_marginal(spec, b, a) - (1.0 - want)) < 1e-12
            assert abs(mu[k] - (want - 0.5)) < 1e-12


def test_run_pipeline_mallows_mixture_n12_reports_gamma():
    comps = [ComponentSpec.mallows(Permutation(order), phi=0.3) for order in (range(12), range(11, -1, -1))]
    result = run_pipeline(MixtureSpec(comps, [0.5, 0.5]), N=40, p=0.9, seed=0)
    assert result.evaluation.gamma is not None and np.isfinite(result.evaluation.gamma)


# -------------------------------------------------------------- cluster mean

def test_cluster_mean_equal_utilities_zero():
    spec = ComponentSpec.gaussian([1.0, 1.0, 1.0, 1.0], sigma=0.3)
    assert np.allclose(cluster_mean(spec), 0.0)


def test_cluster_mean_mnl_per_pair_formula():
    u = [1.0, 0.0, -1.0]
    spec = ComponentSpec.mnl(u, beta=1.0)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(3)):
        want = oracle_mnl_marginal(u[a], u[b], 1.0) - 0.5
        assert abs(mu[k] - want) < 1e-12
    assert np.all(np.abs(mu) <= 0.5)


def test_cluster_mean_gaussian_per_pair_formula():
    u = [0.4, -0.3, 0.9, 0.0]
    spec = ComponentSpec.gaussian(u, sigma=0.8)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(4)):
        want = oracle_gaussian_marginal(u[a], u[b], 0.8) - 0.5
        assert abs(mu[k] - want) < 1e-12


def test_cluster_mean_mallows_matches_enumeration():
    center = Permutation([1, 3, 0, 2])
    spec = ComponentSpec.mallows(center, phi=0.4)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(4)):
        want = oracle_mallows_marginal(tuple(center.order), 0.4, a, b) - 0.5
        assert abs(mu[k] - want) < 1e-12


def test_cluster_mean_monte_carlo():
    spec = ComponentSpec.gaussian([0.8, 0.2, -0.5, 0.0, 1.3], sigma=0.7)
    x = sample_embedded_batch(spec, 100_000, rng_seed=9)
    emp = x.mean(axis=0)
    assert np.max(np.abs(emp - cluster_mean(spec))) <= 0.01


# ------------------------------------------------------------------- mixture

def _two_component_mixture(n=5, sigma=0.4, seed=0):
    rng = np.random.default_rng(seed)
    u1 = rng.normal(size=n)
    u2 = rng.normal(size=n)
    c1 = ComponentSpec.gaussian(u1, sigma=sigma)
    c2 = ComponentSpec.gaussian(u2, sigma=sigma)
    return MixtureSpec([c1, c2], [0.5, 0.5])


def test_sample_mixture_single_component_labels():
    spec = MixtureSpec([ComponentSpec.mnl([1.0, 0.0], beta=1.0)], [1.0])
    samples = sample_mixture(spec, 50, rng_seed=3)
    assert len(samples) == 50
    assert all(s.true_label == 0 for s in samples)
    assert all(s.row_id == i for i, s in enumerate(samples))


def test_sample_mixture_label_frequencies():
    spec = _two_component_mixture(n=2)
    samples = sample_mixture(spec, 100_000, rng_seed=5)
    freq = np.mean([s.true_label for s in samples])
    assert abs(freq - 0.5) <= 0.01


def test_sample_mixture_within_label_means_near_their_centers():
    spec = _two_component_mixture(n=6, sigma=0.2, seed=12)
    samples = sample_mixture(spec, 100, rng_seed=21)
    mu = [cluster_mean(c) for c in spec.components]
    for label in (0, 1):
        rows = np.array(
            [s.observation.values for s in samples if s.true_label == label]
        )
        assert len(rows) > 10
        emp = rows.mean(axis=0)
        d_own = np.linalg.norm(emp - mu[label])
        d_other = np.linalg.norm(emp - mu[1 - label])
        assert d_own < d_other


def test_sample_mixture_deterministic():
    spec = _two_component_mixture()
    a = sample_mixture(spec, 20, rng_seed=8)
    b = sample_mixture(spec, 20, rng_seed=8)
    for s, t in zip(a, b):
        assert s.true_label == t.true_label
        assert np.array_equal(s.observation.values, t.observation.values)


# ------------------------------------------------------------------- masking

def test_mask_p_one_is_identity():
    spec = _two_component_mixture()
    samples = sample_mixture(spec, 10, rng_seed=1)
    masked = mask(samples, 1.0, rng_seed=2)
    for s, t in zip(samples, masked):
        assert np.array_equal(s.observation.values, t.observation.values)


def test_mask_rejects_bad_p():
    spec = _two_component_mixture()
    samples = sample_mixture(spec, 2, rng_seed=1)
    for p in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            mask(samples, p, rng_seed=0)


def test_mask_observed_fraction_concentrates():
    # ~1e6 total entries: N=2300 rows with d=435
    spec = MixtureSpec(
        [ComponentSpec.gaussian(np.zeros(30), sigma=1.0)], [1.0]
    )
    samples = sample_mixture(spec, 2300, rng_seed=13)
    masked = mask(samples, 0.3, rng_seed=14)
    values = np.array([s.observation.values for s in masked])
    frac = 1.0 - float(np.mean(is_missing(values)))
    assert abs(frac - 0.3) <= 0.002


def test_mask_substreams_commute_with_row_order():
    spec = _two_component_mixture(n=5)
    samples = sample_mixture(spec, 30, rng_seed=6)
    masked = mask(samples, 0.5, rng_seed=7)
    perm = np.random.default_rng(0).permutation(30)
    reordered = [samples[i] for i in perm]
    masked2 = mask(reordered, 0.5, rng_seed=7)
    for out_pos, src in enumerate(perm):
        a = masked2[out_pos].observation.values
        b = masked[src].observation.values
        assert np.array_equal(a, b, equal_nan=True)


# ------------------------------------------------------------------- helpers

def test_utility_helpers():
    u = normal_utilities(10, rng_seed=3)
    assert u.shape == (10,)
    h = hypercube_utilities(12, rng_seed=4)
    assert set(np.abs(h)) == {0.5}
    r = rho_separated_utilities(5, rho=0.3)
    gaps = -np.diff(r)
    assert np.allclose(gaps, 0.3)
    assert r[0] > r[-1]


def test_batch_sampler_matches_shape_and_values():
    spec = ComponentSpec.mnl([0.2, -0.2, 0.4], beta=1.0)
    x = sample_embedded_batch(spec, 500, rng_seed=77)
    assert x.shape == (500, 3)
    assert set(np.unique(np.abs(x))) == {0.5}
    # distributional sanity: empirical marginal near the exact one
    p01 = exact_pairwise_marginal(spec, 0, 1)
    assert abs(np.mean(x[:, 0] == 0.5) - p01) < 0.1


def test_batch_sampler_mallows_matches_pmf_loosely():
    center = Permutation([0, 1, 2])
    spec = ComponentSpec.mallows(center, phi=0.3)
    x = sample_embedded_batch(spec, 20_000, rng_seed=15)
    want = oracle_mallows_marginal((0, 1, 2), 0.3, 0, 1)
    assert abs(np.mean(x[:, 0] == 0.5) - want) < 0.02
