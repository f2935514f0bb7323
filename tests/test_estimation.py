import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from rankmix.estimation import (
    ObservationMatrix,
    compute_svd,
    delta_bound,
    estimate_p_hat,
    hsvt,
    k_of_p,
    select_threshold,
    spectral_gap_check,
)
from rankmix.generators import (
    ComponentSpec,
    MixtureSpec,
    cluster_mean,
    mask,
    normal_utilities,
    sample_mixture,
)
from rankmix.rankings import Permutation, embed

from oracles import oracle_thin_svd

# frozen: 0.8 / (2 ln 9), computed with stdlib math
K_OF_09 = 0.18204784532536747
# frozen: (sqrt(0.5) + 0.5*sqrt(30))*sqrt(30**4) + (sqrt(30) + 0.25)*(30 + sqrt(30)*30)
DELTA_N30P4 = 4214.043570905577


def _stack(samples):
    return ObservationMatrix.from_samples(samples)


def _two_perm_matrix(n=10, copies=(30, 20), seed=3):
    """Noiseless two-cluster observation matrix: rows are two fixed embeddings."""
    rng = np.random.default_rng(seed)
    p1 = Permutation(rng.permutation(n))
    p2 = Permutation(rng.permutation(n))
    e1, e2 = embed(p1), embed(p2)
    rows = [e1] * copies[0] + [e2] * copies[1]
    return np.array(rows), e1, e2


# ------------------------------------------------------------------- p-hat

def test_p_hat_fully_observed():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    assert estimate_p_hat(obs) == 1.0


def test_p_hat_floor_when_nothing_observed():
    obs = ObservationMatrix.from_dense(np.full((10, 10), np.nan))
    assert estimate_p_hat(obs) == 0.01


def test_p_hat_matches_observed_fraction():
    rng = np.random.default_rng(0)
    vals = np.where(rng.random((40, 30)) < 0.5, 0.5, -0.5)
    drop = rng.random((40, 30)) < 0.25
    vals[drop] = np.nan
    obs = ObservationMatrix.from_dense(vals)
    want = (drop.size - int(drop.sum())) / drop.size
    assert estimate_p_hat(obs) == pytest.approx(want, abs=0)


def test_observation_matrix_fill_and_validation():
    vals = np.array([[0.5, np.nan], [-0.5, 0.5]])
    obs = ObservationMatrix.from_dense(vals)
    assert obs.N == 2 and obs.d == 2
    assert obs.values[0, 1] == 0.0  # a missing (NaN) entry is filled with exactly 0
    assert (obs.values != 0).tolist() == [[True, False], [True, True]]
    with pytest.raises(ValueError):
        ObservationMatrix.from_dense(np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="NaN, not 0"):
        ObservationMatrix.from_dense(np.array([[0.0, 0.5]]))  # files mark missing with NA


def test_observation_matrix_leaves_the_callers_array_writable():
    a = np.zeros((2, 2))
    obs = ObservationMatrix(a)
    assert np.shares_memory(obs.values, a) and not obs.values.flags.writeable
    a[0, 0] = 0.5
    assert obs.values[0, 0] == 0.5  # a frozen view, not a copy


# --------------------------------------------------------------------- svd

def test_svd_contract():
    rng = np.random.default_rng(5)
    for shape in ((20, 12), (12, 20)):  # tall, then wide (decomposed through Y^T)
        y = rng.normal(size=shape)
        svd = compute_svd(y)
        s = svd.singular_values
        assert svd.U.shape == (shape[0], 12) and svd.Vt.shape == (12, shape[1])
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.allclose(svd.U.T @ svd.U, np.eye(12), atol=1e-8)
        assert np.allclose(svd.Vt @ svd.Vt.T, np.eye(12), atol=1e-8)
        recon = (svd.U * s) @ svd.Vt
        assert np.linalg.norm(y - recon) / np.linalg.norm(y) <= 1e-8


def _matrix_of_kind(kind, N, d, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "tall":
        N, d = max(N, d), min(N, d)
    elif kind == "wide":
        N, d = min(N, d), max(N, d)
    elif kind == "square":
        d = N
    elif kind == "row":
        N = 1
    elif kind == "column":
        d = 1
    if kind == "zero":
        return np.zeros((N, d))
    if kind == "duplicated":  # rank at most N // 3
        distinct = rng.normal(size=(max(1, N // 3), d))
        return scale * distinct[rng.integers(0, len(distinct), size=N)]
    return scale * rng.normal(size=(N, d))


# Error constant of the Gram eigensolve: |sigma_j - sigma_j*| <= C eps sigma_1^2 / sigma_j
# and ||P_r - P_r*|| <= C eps sigma_1^2 / (sigma_r^2 - sigma_{r+1}^2), with P_r the projector
# onto the top r right singular vectors; C/eps = 14 and 19 were the largest seen over 3000
# random matrices like these (integer-valued ones included).
_GRAM_C = 100 * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["tall", "wide", "square", "duplicated", "zero", "row", "column"]),
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_gram_svd_matches_lapack(kind, N, d, seed, scale):
    y = _matrix_of_kind(kind, N, d, seed, scale)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        svd = compute_svd(y)
        u, o, vt = oracle_thin_svd(y)
        s = svd.singular_values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert not (svd.U if y.shape[0] >= y.shape[1] else svd.Vt.T)[:, s == 0].any()
        assert np.linalg.norm((svd.U * s) @ svd.Vt - y) <= 1e-10 * np.linalg.norm(y)
        if o[0] == 0:
            assert not s.any()
            return
        lead = o >= 1e-6 * o[0]
        assert np.all(np.abs(s[lead] - o[lead]) <= 1e-10 * o[lead] + _GRAM_C * o[0] ** 2 / o[lead])
        for r in range(1, o.size):
            if not o[r - 1] > (1 + 1e-3) * o[r]:
                continue
            tol = 1e-10 + _GRAM_C * o[0] ** 2 / (o[r - 1] ** 2 - o[r] ** 2)
            if tol > 1e-6:  # a cut inside the noise floor: neither subspace is determined
                continue
            assert np.abs(svd.Vt[:r].T @ svd.Vt[:r] - vt[:r].T @ vt[:r]).max() <= tol
            est = hsvt(y, (s[r - 1] + s[r]) / 2, svd=svd)
            assert est.kept_rank == r
            want = pdist(u[:, :r] * o[:r])
            assert np.allclose(pdist(est.coords), want, rtol=0, atol=tol * np.linalg.norm(y))
    assert not caught


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_plain_arrays_rejected(bad):
    y = np.ones((4, 3))
    svd = compute_svd(y)
    y[2, 1] = bad
    with pytest.raises(ValueError, match="4x3 matrix must hold only finite"):
        compute_svd(y)
    with pytest.raises(ValueError, match="4x3 matrix must hold only finite"):
        hsvt(y, 0.5, svd=svd)


# -------------------------------------------------------------------- hsvt

def test_hsvt_zero_threshold_full_observation_reproduces_y():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    est = hsvt(obs, 0.0)
    assert est.p_hat == 1.0
    assert np.allclose(est.m_hat, y, atol=1e-10)


def test_hsvt_threshold_above_top_singular_value_gives_zero():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    top = compute_svd(obs).singular_values[0]
    est = hsvt(obs, top * 1.01)
    assert est.kept_rank == 0
    assert np.allclose(est.m_hat, 0.0)


def test_hsvt_exact_low_rank_recovery():
    # rank-2 noiseless matrix, p=1: thresholding between sigma_2 and sigma_3=0
    # must reproduce the matrix exactly
    y, _, _ = _two_perm_matrix(n=10, copies=(30, 20))
    obs = ObservationMatrix.from_dense(y)
    svd = compute_svd(obs)
    t1 = select_threshold(svd, target_rank=2)
    est = hsvt(obs, t1, svd=svd)
    assert est.kept_rank == 2
    assert np.max(np.abs(est.m_hat - y)) <= 1e-8


def test_hsvt_estimate_rank_invariant():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    est = hsvt(obs, select_threshold(compute_svd(obs), target_rank=2))
    s = np.linalg.svd(est.m_hat, compute_uv=False)
    assert s[est.kept_rank] <= 1e-8 * s[0]


def test_hsvt_idempotent_rank():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    svd = compute_svd(obs)
    t1 = select_threshold(svd, target_rank=2)
    est = hsvt(obs, t1, svd=svd)
    # the denoised matrix has singular values sigma_j / p_hat; rescale t1 the
    # same way and rank must be preserved
    again = hsvt(est.m_hat, t1 / est.p_hat)
    assert again.kept_rank == est.kept_rank


@pytest.mark.parametrize("threshold", [np.nan, -1.0])
def test_hsvt_rejects_nan_or_negative_threshold(threshold):
    y, _, _ = _two_perm_matrix()
    with pytest.raises(ValueError, match="nonnegative"):
        hsvt(y, threshold)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_hat=0.0),
        dict(p_hat=np.nan),
        dict(p_hat=-0.5),
        dict(p_hat=2.0),
        dict(svd=compute_svd(np.eye(3))),
    ],
    ids=["p_hat_zero", "p_hat_nan", "p_hat_negative", "p_hat_above_one", "svd_of_another_matrix"],
)
def test_hsvt_rejects_bad_p_hat_or_foreign_svd(kwargs):
    y, _, _ = _two_perm_matrix()
    with pytest.raises(ValueError, match="p_hat|svd"):
        hsvt(y, 1.0, **kwargs)


def test_m_hat_is_built_from_the_factors_bit_for_bit():
    rng = np.random.default_rng(17)
    y = np.where(rng.random((25, 12)) < 0.5, 0.5, -0.5)
    y[rng.random(y.shape) < 0.3] = np.nan
    obs = ObservationMatrix.from_dense(y)
    svd = compute_svd(obs)
    s = svd.singular_values
    for t, rank in ((s[0], 0), (s[2], 2), (0.0, 12)):
        est = hsvt(obs, t, svd=svd)
        kept = s > t
        expected = (svd.U[:, kept] * s[kept]) @ svd.Vt[kept] / est.p_hat
        assert est.kept_rank == rank and est.coords.shape == (25, rank)
        assert est.m_hat.shape == (25, 12)
        assert np.array_equal(est.m_hat, expected)


# ------------------------------------------------------------- select t1

def test_select_threshold_gap_heuristic_example():
    y = np.diag([10.0, 9.0, 0.1, 0.05])
    t1 = select_threshold(compute_svd(y))
    assert t1 == pytest.approx(4.55, abs=1e-12)


def test_select_threshold_target_rank_examples():
    y = np.diag([5.0, 1.0])
    assert select_threshold(compute_svd(y), target_rank=1) == pytest.approx(3.0)
    # target equal to full rank: sigma_{r+1} treated as 0
    assert select_threshold(compute_svd(y), target_rank=2) == pytest.approx(0.5)


def test_select_threshold_errors():
    y = np.ones((1, 5))
    with pytest.raises(ValueError):
        select_threshold(compute_svd(y))
    y2 = np.diag([5.0, 1.0])
    with pytest.raises(ValueError):
        select_threshold(compute_svd(y2), target_rank=3)
    with pytest.raises(ValueError):
        select_threshold(compute_svd(y2), target_rank=0)


@pytest.mark.parametrize("bad", [2.7, np.nan, np.inf, -np.inf])
def test_select_threshold_rejects_non_integer_target_rank(bad):
    # int() would truncate 2.7 to rank 2 and fail on NaN with another message
    svd = compute_svd(np.diag([5.0, 3.0, 1.0]))
    with pytest.raises(ValueError, match="integer"):
        select_threshold(svd, target_rank=bad)
    assert select_threshold(svd, target_rank=2.0) == select_threshold(svd, target_rank=2)


def test_select_threshold_keeps_exactly_target_rank():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(15, 10))
    obs_free = y  # plain array path
    svd = compute_svd(y)
    for r in range(1, 10):
        t1 = select_threshold(svd, target_rank=r)
        est = hsvt(obs_free, t1, svd=svd)
        assert est.kept_rank == r


# ------------------------------------------------------------------ k_of_p

def test_k_of_p_pinned_values():
    assert k_of_p(0.5) == 0.25
    assert k_of_p(0.0) == 0.0
    assert k_of_p(1.0) == 0.0
    assert k_of_p(0.9) == pytest.approx(K_OF_09, abs=1e-15)


def test_k_of_p_continuity_and_range():
    assert k_of_p(0.5 + 1e-9) == pytest.approx(0.25, abs=1e-6)
    assert k_of_p(0.5 - 1e-9) == pytest.approx(0.25, abs=1e-6)
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.array([k_of_p(p) for p in grid])
    assert np.all(vals >= 0.0) and np.all(vals <= 0.25)
    # symmetric in p <-> 1-p
    assert k_of_p(0.3) == pytest.approx(k_of_p(0.7), abs=1e-15)


def test_k_of_p_rejects_out_of_range():
    with pytest.raises(ValueError):
        k_of_p(-0.1)
    with pytest.raises(ValueError):
        k_of_p(1.1)


# ------------------------------------------------------------- delta bound

def test_delta_bound_degenerate_point():
    assert delta_bound(N=1, n=1, p=0.0, tau_star=1.0) == pytest.approx(2.0)
    assert delta_bound(N=1, n=1, p=0.0, tau_star=1.0, C=2.0) == pytest.approx(4.0)


def test_delta_bound_monotone():
    base = delta_bound(N=100, n=10, p=0.5, tau_star=2.0)
    assert delta_bound(N=200, n=10, p=0.5, tau_star=2.0) >= base
    assert delta_bound(N=100, n=20, p=0.5, tau_star=2.0) >= base
    assert delta_bound(N=100, n=10, p=0.5, tau_star=3.0) >= base


def test_delta_bound_frozen_two_path_value():
    got = delta_bound(N=30**4, n=30, p=0.5, tau_star=np.sqrt(30.0))
    assert got == pytest.approx(DELTA_N30P4, abs=1e-9)


# ------------------------------------------------------- spectral gap check

def test_spectral_gap_check_clean_case_passes():
    # no noise, full observation, tau*=0: every reported condition holds
    y, e1, e2 = _two_perm_matrix(n=20, copies=(200, 200), seed=11)
    obs = ObservationMatrix.from_dense(y)
    svd = compute_svd(obs)
    t1 = select_threshold(svd, target_rank=2)
    report = spectral_gap_check(obs, y, t1, tau_star=0.0, true_p=1.0)
    assert report.noise_norm <= 1e-8
    assert report.rank == 2
    assert report.p_exceeds_threshold
    assert report.t1_proper
    assert report.rank_preservation_predicted


def test_spectral_gap_check_reports_failure_without_raising():
    rng = np.random.default_rng(2)
    y = np.where(rng.random((50, 45)) < 0.5, 0.5, -0.5)
    obs = ObservationMatrix.from_dense(y)
    m = np.outer(np.ones(50), np.full(45, 1e-6))
    report = spectral_gap_check(obs, m, t1=5.0, tau_star=3.0, true_p=1.0)
    assert not report.p_exceeds_threshold
    assert not report.rank_preservation_predicted
    scaled = spectral_gap_check(obs, m, t1=5.0, tau_star=3.0, true_p=1.0, C=2.0)
    assert scaled.delta == 2.0 * report.delta


def test_noise_norm_within_calibrated_delta():
    # Monte-Carlo: ||Y - pM||_2 <= Delta with C=3 and the generic tau*=sqrt(n-1)
    n, k, sigma, p, N = 30, 2, 0.3, 0.8, 1000
    tau = np.sqrt(n - 1.0)
    for trial in range(20):
        comps = [
            ComponentSpec.gaussian(normal_utilities(n, rng_seed=100 + 10 * trial + j), sigma)
            for j in range(k)
        ]
        spec = MixtureSpec(comps, np.full(k, 1 / k))
        samples = mask(sample_mixture(spec, N, rng_seed=trial), p, rng_seed=1000 + trial)
        obs = ObservationMatrix.from_samples(samples)
        means = np.array([cluster_mean(c) for c in comps])
        m = means[samples.labels]
        noise = np.linalg.norm(obs.values - p * m, 2)
        assert noise <= delta_bound(N=N, n=n, p=p, tau_star=tau, C=3.0)


# --------------------------------------------------- projector invariants

def test_hsvt_projector_is_contraction():
    rng = np.random.default_rng(21)
    y = rng.normal(size=(30, 18))
    svd = compute_svd(y)
    t = float(np.median(svd.singular_values))
    est = hsvt(y, t, svd=svd)
    assert 0 < est.kept_rank < 18
    for _ in range(1000):
        w = rng.normal(size=18)
        projected = est.Vt.T @ (est.Vt @ w)  # onto the kept right singular vectors
        assert np.linalg.norm(projected) <= np.linalg.norm(w) * (1 + 1e-12)


def test_hsvt_rows_equal_projected_rows():
    y, _, _ = _two_perm_matrix(n=8, copies=(12, 9))
    rng = np.random.default_rng(31)
    y = y + 0.01 * rng.normal(size=y.shape)  # break exact degeneracy
    svd = compute_svd(y)
    t = float(svd.singular_values[1] * 0.9)
    est = hsvt(y, t, svd=svd)
    for i in range(y.shape[0]):
        # m_hat is rescaled by 1/p_hat; the row identity is about the
        # unrescaled thresholded matrix
        assert np.allclose(est.m_hat[i] * est.p_hat, est.Vt.T @ (est.Vt @ y[i]), atol=1e-10)


def test_rank_preservation_under_perturbation_window():
    # whenever ||Y-pM||_2 < t1 < sigma_r(pM) - ||Y-pM||_2, kept rank == rank(M)
    rng = np.random.default_rng(41)
    m, e1, e2 = _two_perm_matrix(n=16, copies=(150, 150), seed=13)
    noise = 0.4 * rng.normal(size=m.shape)
    y = m + noise
    e = np.linalg.norm(y - m, 2)
    s = np.linalg.svd(m, compute_uv=False)
    sigma_r = s[1]
    assert e < sigma_r - e, "test construction must satisfy the window"
    t1 = 0.5 * (e + (sigma_r - e))
    est = hsvt(y, t1)
    assert est.kept_rank == 2


def test_mean_of_filled_matrix_is_p_times_mean():
    # E[Y] = p*M entrywise once missing (NaN) entries are replaced by 0
    spec = ComponentSpec.mnl([0.6, 0.0, -0.6, 0.3], beta=1.0)
    mix = MixtureSpec([spec], [1.0])
    p = 0.5
    mu = cluster_mean(spec)
    acc = np.zeros(mu.size)
    reps, N = 150, 100
    for rep in range(reps):
        samples = mask(sample_mixture(mix, N, rng_seed=rep), p, rng_seed=5000 + rep)
        obs = ObservationMatrix.from_samples(samples)
        acc += obs.values.mean(axis=0)
    avg = acc / reps
    assert np.max(np.abs(avg - p * mu)) <= 0.02
