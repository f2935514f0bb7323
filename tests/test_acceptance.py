"""Acceptance gate: ten pinned pass/fail targets, one test per target.

Each test is self-contained — it draws its own data with pinned seeds,
computes the statistic named in its docstring, and asserts the agreed
tolerance. Runtime-limited targets also assert a wall-clock budget.
"""

import csv
import math
from time import perf_counter

import numpy as np

from oracles import (
    lex_pairs,
    oracle_embed,
    oracle_epsilon_graph_labels,
    oracle_mallows_pmf,
    oracle_risk_exhaustive,
    random_order,
)
from rankmix.clustering import single_linkage
from rankmix.estimation import (
    ObservationMatrix,
    compute_svd,
    estimate_p_hat,
    hsvt,
    select_threshold,
    spectral_gap_check,
)
from rankmix.evaluation import misclassification_rate
from rankmix.experiments import default_config, run_experiment
from rankmix.generators import (
    ComponentSpec,
    MixtureSpec,
    cluster_mean,
    exact_pairwise_marginal,
    mask,
    normal_utilities,
    sample_mixture,
)
from rankmix.rankings import (
    Permutation,
    embed,
    embedding_distance_sq,
    kendall_tau,
    pair_index,
)
from rankmix.seeding import child_seed, substream

TAU_BUDGET = 0.55  # tau_hat <= TAU_BUDGET * sqrt(n - 1) for every family tested


def _three_component_spec(n, sigma, master_seed, trial):
    comps = [
        ComponentSpec.gaussian(normal_utilities(n, substream(master_seed, trial, c)), sigma)
        for c in range(3)
    ]
    return MixtureSpec(comps, [1 / 3] * 3)


def _mean_matrix(spec, samples):
    means = [cluster_mean(c) for c in spec.components]
    return np.vstack(means)[samples.labels]


def test_01_embedding_distance_equals_kendall_tau():
    """2000 random pairs, n in 2..12: squared embedding distance == tau, < 5 s."""
    start = perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(2, 13))
        p1 = Permutation(random_order(rng, n))
        p2 = Permutation(random_order(rng, n))
        dist_sq = embedding_distance_sq(embed(p1), embed(p2))
        assert abs(dist_sq - kendall_tau(p1, p2)) <= 1e-9
    assert perf_counter() - start < 5.0


def test_02_empirical_marginals_match_closed_forms():
    """mnl and gaussian, n=5, 1e5 samples: each pair marginal within 0.01, < 30 s."""
    start = perf_counter()
    n, m = 5, 100_000
    specs = [
        ComponentSpec.mnl(normal_utilities(n, substream(21, 0)), 1.0),
        ComponentSpec.gaussian(normal_utilities(n, substream(21, 1)), 0.7),
    ]
    for fam_idx, spec in enumerate(specs):
        batch = sample_mixture(MixtureSpec([spec], [1.0]), m, child_seed(22, fam_idx)).values
        for a in range(n):
            for b in range(a + 1, n):
                empirical = 0.5 + batch[:, pair_index(a, b, n)].mean()
                exact = exact_pairwise_marginal(spec, a, b)
                assert abs(empirical - exact) <= 0.01, (spec.family, a, b)
    assert perf_counter() - start < 30.0


def test_03_mallows_sampler_total_variation():
    """n=4, phi in {0.3, 0.7}, 1e5 samples: TV to the exact PMF <= 0.02."""
    n, m = 4, 100_000
    center = tuple(range(n))
    pairs = lex_pairs(n)
    for phi_idx, phi in enumerate((0.3, 0.7)):
        spec = ComponentSpec.mallows(Permutation(list(center)), phi)
        batch = sample_mixture(MixtureSpec([spec], [1.0]), m, child_seed(31, phi_idx)).values
        rows, counts = np.unique(batch, axis=0, return_counts=True)
        empirical = {
            tuple(row.tolist()): cnt / m for row, cnt in zip(rows, counts)
        }
        exact = {}
        for perm, prob in oracle_mallows_pmf(center, phi).items():
            emb = oracle_embed(perm)
            exact[tuple(emb[pair] for pair in pairs)] = prob
        keys = set(empirical) | set(exact)
        tv = 0.5 * sum(
            abs(empirical.get(key, 0.0) - exact.get(key, 0.0)) for key in keys
        )
        assert tv <= 0.02, f"phi={phi}: TV={tv:.4f}"


def test_04_threshold_in_window_keeps_exact_rank():
    """50 trials (n=20, k=3, N=600, p alternating 0.6/1.0, sigma=0.2): whenever
    ||Y - pM||_2 < t1 < sigma_r(pM) - ||Y - pM||_2 holds with ground truth,
    the kept rank is exactly 3 — in 100% of qualifying trials."""
    n = 20
    tau_budget = TAU_BUDGET * math.sqrt(n - 1)
    qualifying = preserved = 0
    for trial in range(50):
        p = 0.6 if trial % 2 == 0 else 1.0
        spec = _three_component_spec(n, 0.2, 101, trial)
        samples = mask(sample_mixture(spec, 600, trial), p, trial)
        obs = ObservationMatrix.from_samples(samples)
        svd = compute_svd(obs)
        t1 = select_threshold(svd)
        report = spectral_gap_check(obs, _mean_matrix(spec, samples), t1, tau_budget, true_p=p)
        if report.rank_preservation_predicted:
            qualifying += 1
            if hsvt(obs, t1, svd=svd).kept_rank == 3:
                preserved += 1
    # guard against a vacuous pass: this regime is known to qualify almost always
    assert qualifying >= 40, f"only {qualifying}/50 trials inside the window"
    assert preserved == qualifying, f"{preserved}/{qualifying} qualifying trials kept rank 3"


def test_05_denoised_max_row_error_shrinks_with_more_rows():
    """n=20, k=3, sigma=0.2, p=0.8: seed-averaged (5 seeds) max-row l2 error of
    m_hat vs M decreases monotonically as N grows through 200, 600, 1800."""
    n = 20
    grid = (200, 600, 1800)
    means = []
    for N in grid:
        errors = []
        for seed in range(5):
            spec = _three_component_spec(n, 0.2, 101, seed)
            samples = mask(sample_mixture(spec, N, 2000 + seed), 0.8, 2000 + seed)
            obs = ObservationMatrix.from_samples(samples)
            svd = compute_svd(obs)
            estimate = hsvt(obs, select_threshold(svd), svd=svd)
            residual = estimate.m_hat - _mean_matrix(spec, samples)
            errors.append(float(np.sqrt((residual**2).sum(axis=1)).max()))
        means.append(float(np.mean(errors)))
    assert means[0] > means[1] > means[2], (
        f"seed-mean max-row errors {[round(m, 4) for m in means]} "
        f"do not decrease over N={grid}"
    )


def test_06_risk_vs_observation_probability_extremes(tmp_path):
    """Gaussian, n=30, k=2, lambda=500, sigma=0.3, 10 trials: mean risk <= 0.05
    at p=0.6 and >= 0.35 at p=0.02, < 10 min."""
    start = perf_counter()
    cfg = default_config("exp2", tmp_path).replace(p_list=(0.6, 0.02), trials=10)
    (csv_path,) = run_experiment(cfg)
    risks = {0.6: [], 0.02: []}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            risks[float(row["p"])].append(float(row["risk"]))
    assert len(risks[0.6]) == len(risks[0.02]) == 10
    mean_high = np.mean(risks[0.6])
    mean_low = np.mean(risks[0.02])
    assert mean_high <= 0.05, f"mean risk {mean_high:.4f} at p=0.6"
    assert mean_low >= 0.35, f"mean risk {mean_low:.4f} at p=0.02"
    assert perf_counter() - start < 600.0


def test_07_tau_hat_scales_like_sqrt_n(tmp_path):
    """sigma=1 gaussian and beta=1 mnl, n in {50, 100, 200}, m=1000: the
    log-log slope of tau_hat vs n lies in [0.4, 0.6] for each family, < 10 min."""
    start = perf_counter()
    cfg = default_config("exp3", tmp_path)
    assert cfg.n_list == (50, 100, 200)
    assert cfg.noise_list == (1.0,)
    for csv_path in run_experiment(cfg):
        ns, taus = [], []
        with open(csv_path, newline="") as fh:
            for row in csv.DictReader(fh):
                ns.append(float(row["n"]))
                taus.append(float(row["tau_hat"]))
        slope = float(np.polyfit(np.log(ns), np.log(taus), 1)[0])
        assert 0.4 <= slope <= 0.6, f"{csv_path}: slope={slope:.4f}"
    assert perf_counter() - start < 600.0


def test_08_assignment_risk_equals_exhaustive_risk():
    """500 random label instances with up to 5 labels per side: the
    assignment solver returns exactly the exhaustive oracle's risk."""
    rng = np.random.default_rng(81)
    for _ in range(500):
        N = int(rng.integers(2, 60))
        k_pred = int(rng.integers(1, 6))
        k_true = int(rng.integers(1, 6))
        predicted = rng.integers(0, k_pred, size=N)
        truth = rng.integers(0, k_true, size=N)
        risk, _ = misclassification_rate(predicted, truth)
        assert risk == oracle_risk_exhaustive(predicted, truth)


def test_09_observed_fraction_concentrates():
    """p=0.4 with N*d = 5e5 cells: |p_hat - p| <= 0.003 in at least 99/100 trials."""
    N, d, p = 1000, 500, 0.4
    hits = 0
    for trial in range(100):
        keep = substream(91, trial).random((N, d)) < p
        obs = ObservationMatrix(np.where(keep, 0.5, 0.0))
        if abs(estimate_p_hat(obs) - p) <= 0.003:
            hits += 1
    assert hits >= 99, f"{hits}/100 trials within 0.003"


def test_10_mst_cut_equals_epsilon_graph_components():
    """500 random instances, N <= 50: single-linkage labels equal the
    epsilon-graph connected-component labels exactly."""
    rng = np.random.default_rng(110)
    for _ in range(500):
        N = int(rng.integers(2, 51))
        dim = int(rng.integers(1, 5))
        rows = rng.normal(size=(N, dim))
        if rng.random() < 0.5:
            rows[: N // 2] += 3.0
        t2 = float(rng.uniform(0.0, 3.0))
        got = single_linkage(rows, t2).labels
        want = oracle_epsilon_graph_labels(rows, t2)
        assert got.tolist() == want
