import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from rankmix import estimation
from rankmix.clustering import single_linkage
from rankmix.estimation import (
    HsvtEstimate,
    ObservationMatrix,
    SvdResult,
    _check_float32_gram,
    _values_read,
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
from rankmix.pipeline import PipelineError, denoise
from rankmix.rankings import Permutation, embed

from oracles import oracle_gram_svd, oracle_thin_svd

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
    a = np.array([[0.5, -0.5], [0.0, 0.5]])
    obs = ObservationMatrix(a)
    assert not obs.values.flags.writeable
    want = compute_svd(obs)
    a[0, 0] = 0.3  # invalid, were it to reach the exact float32 Gram product
    assert obs.values.tolist() == [[0.5, -0.5], [0.0, 0.5]]  # a frozen copy
    assert compute_svd(obs).singular_values.tobytes() == want.singular_values.tobytes()


def test_svd_and_estimate_constructors_hold_frozen_copies():
    s, U, Vt = np.array([2.0, 1.0]), np.eye(2), np.eye(2)
    svd, estimate = SvdResult(s, U, Vt), HsvtEstimate(U, Vt, 2, 1.5, 1.0)
    U[0, 0] = Vt[0, 0] = s[0] = 9.0  # the caller's arrays stay writable
    assert svd.singular_values.tolist() == [2.0, 1.0]
    assert svd.U.tolist() == svd.Vt.tolist() == estimate.left.tolist() == estimate.Vt.tolist() == np.eye(2).tolist()
    held = (svd.singular_values, svd.U, svd.Vt, estimate.left, estimate.Vt, estimate.m_hat)
    assert not any(array.flags.writeable for array in held)


# --------------------------------------------------------------------- svd

def test_svd_contract():
    rng = np.random.default_rng(5)
    for shape in ((20, 12), (12, 20)):  # tall, then wide (decomposed through Y^T)
        y = rng.normal(size=shape)
        full = compute_svd(y)
        for top in (None, 12, 5, 1):
            svd = compute_svd(y, top=top)
            k = 12 if top is None else top
            s = svd.singular_values
            assert svd.U.shape == (shape[0], k) and svd.Vt.shape == (k, shape[1])
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            assert np.allclose(svd.U.T @ svd.U, np.eye(k), atol=1e-8)
            assert np.allclose(svd.Vt @ svd.Vt.T, np.eye(k), atol=1e-8)
            assert np.allclose(s, full.singular_values[:k], rtol=1e-12, atol=0)
            # the leading k triples are the best rank-k approximation
            recon = (svd.U * s) @ svd.Vt
            want = np.sqrt((full.singular_values[k:] ** 2).sum())
            assert abs(np.linalg.norm(y - recon) - want) <= 1e-8 * np.linalg.norm(y)
        for bad in (0, 13, -1, 2.5, np.nan):
            with pytest.raises(ValueError, match="top"):
                compute_svd(y, top=bad)


@pytest.mark.parametrize("shape", [(3000, 45), (45, 3000), (200, 105), (105, 200)], ids=str)
@pytest.mark.parametrize("kind", ["all_plus_half_columns", "masked"])
def test_float32_gram_matches_dsyrk_bit_for_bit(shape, kind):
    # an ObservationMatrix's Gram matrix comes from ssyrk on float32, a plain array's
    # from dsyrk on float64: with every partial sum exact the two agree bit for bit,
    # and so does everything compute_svd derives from them
    rng = np.random.default_rng(shape[0])
    values = np.where(rng.random(shape) < 0.5, -0.5, 0.5)
    if kind == "masked":
        values[rng.random(shape) < 0.7] = 0.0
    else:  # the largest Gram entries there are: max(N, d) / 4 on the diagonal
        values[:, :3] = 0.5
        values[:3] = 0.5
    top = min(shape) // 3
    via_float32, via_float64 = compute_svd(ObservationMatrix(values), top=top), compute_svd(values, top=top)
    for name in ("singular_values", "U", "Vt"):
        assert getattr(via_float32, name).tobytes() == getattr(via_float64, name).tobytes()


def test_hsvt_without_an_svd_takes_the_float32_gram_route(monkeypatch):
    # observation data has one Gram route: hsvt reduces the ObservationMatrix
    # itself, so float64 dsyrk is never reached; the plain array's dsyrk route
    # forms the same exact Gram matrix, so the two estimates agree bit for bit
    spec = MixtureSpec([ComponentSpec.gaussian(normal_utilities(8, seed), 0.3) for seed in (1, 2)], [0.5, 0.5])
    obs = _stack(mask(sample_mixture(spec, 60, 4), 0.5, 4))
    want = hsvt(obs.values, 1.0)

    def refused(*args, **kwargs):
        raise AssertionError("observation data reached dsyrk")

    monkeypatch.setattr(estimation, "dsyrk", refused)
    got = hsvt(obs, 1.0)
    assert got.kept_rank == want.kept_rank and got.left.tobytes() == want.left.tobytes()


def test_float32_gram_guard_refuses_a_side_beyond_2_24():
    for N, d in ((2**24, 3), (3, 2**24), (2**24, 2**24)):
        _check_float32_gram(N, d)
    for N, d in ((2**24 + 1, 3), (3, 2**24 + 1)):
        with pytest.raises(ValueError, match=r"max\(N, d\) must be at most 2\*\*24"):
            _check_float32_gram(N, d)


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


def _top_k_matrix(kind, N, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "tall":
        return rng.normal(size=(max(N, d), min(N, d)))
    if kind == "wide":
        return rng.normal(size=(min(N, d), max(N, d)))
    if kind == "rank_deficient":  # rank at most 3: past sigma_3 lies the noise floor
        return rng.normal(size=(N, 3)) @ rng.normal(size=(3, d))
    # integer_tied: b copies of a small integer block down the diagonal, rows and
    # columns shuffled, so every singular value of the block comes b times
    b = int(rng.integers(2, 4))
    block = rng.integers(-2, 3, size=(max(1, N // b), max(1, d // b))).astype(float)
    y = np.kron(np.eye(b), block)
    return y[rng.permutation(y.shape[0])][:, rng.permutation(y.shape[1])]


def _value_error(o):
    """SvdResult's stated bound on |sigma_j - sigma_j*|: _GRAM_C sigma_1^2 / sigma_j*,
    at most sqrt(_GRAM_C) sigma_1 (the noise floor)."""
    return _GRAM_C * o[0] ** 2 / np.maximum(o, np.sqrt(_GRAM_C) * o[0])


def _matches_up_to_sign(got, want, tol):
    sign = np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)
    return np.abs(got * sign - want).max() <= tol


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["tall", "wide", "rank_deficient", "integer_tied"]),
    st.integers(2, 30),
    st.integers(2, 30),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_top_k_svd_matches_lapack(kind, N, d, seed, data):
    y = _top_k_matrix(kind, N, d, seed)
    m = min(y.shape)
    k = data.draw(st.integers(1, m), label="top")
    svd = compute_svd(y, top=k)
    full = compute_svd(y)
    u, o, vt = oracle_thin_svd(y)
    s = svd.singular_values
    assert svd.U.shape == (y.shape[0], k) and svd.Vt.shape == (k, y.shape[1])
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    # the eigenvector side is orthonormal to 1e-12; on the back-product side the
    # column of a zero sigma_j is 0 and the others are orthonormal to the Gram bound
    tall = y.shape[0] >= y.shape[1]
    eig_side, back_side = (svd.Vt.T, svd.U) if tall else (svd.U, svd.Vt.T)
    assert np.abs(eig_side.T @ eig_side - np.eye(k)).max() <= 1e-12
    assert not back_side[:, s == 0].any()
    if o[0] == 0:
        assert not s.any()
        return
    err = _value_error(o)
    assert np.all(np.abs(s - o[:k]) <= err[:k])
    nz = s > 0
    gram = back_side[:, nz].T @ back_side[:, nz]
    bound = 1e-12 + _GRAM_C * o[0] ** 2 / np.outer(s[nz], s[nz])
    assert np.all(np.abs(gram - np.eye(int(nz.sum()))) <= bound)

    # column by column up to sign, wherever sigma_j is separated from its neighbours
    sq = o**2
    for j in range(k):
        gap = min(sq[j - 1] - sq[j] if j else np.inf, sq[j] - sq[j + 1] if j + 1 < m else np.inf)
        tol = 1e-12 + _GRAM_C * sq[0] / gap if gap > 0 else np.inf
        if tol > 1e-6:
            continue
        assert _matches_up_to_sign(svd.Vt[j : j + 1].T, vt[j : j + 1].T, tol if tall else 2 * tol * o[0] / o[j])
        assert _matches_up_to_sign(svd.U[:, j : j + 1], u[:, j : j + 1], 2 * tol * o[0] / o[j] if tall else tol)

    # the threshold rule and the kept coordinates equal the top=None route
    def same_cut(r, t_top, t_full):
        assert abs(t_top - t_full) <= err[r - 1] + err[r]
        tol = 1e-10 + _GRAM_C * sq[0] / (sq[r - 1] - sq[r]) if sq[r - 1] > sq[r] else np.inf
        if tol <= 1e-6:
            a, b = hsvt(y, t_top, svd=svd), hsvt(y, t_full, svd=full)
            assert a.kept_rank == b.kept_rank == r
            assert np.allclose(pdist(a.coords), pdist(b.coords), rtol=0, atol=tol * np.linalg.norm(y))

    for r in range(1, k):
        same_cut(r, select_threshold(svd, target_rank=r), select_threshold(full, target_rank=r))
    reads = min(m - 1, math.ceil(math.sqrt(m))) + 1
    if k < reads and k < m:
        with pytest.raises(ValueError, match=f"reads {reads} singular values, the svd holds {k} of {m}"):
            select_threshold(svd)
        return
    # the largest-ratio choice is determined when every ratio interval allowed by
    # the value bound lies below the best one's
    lo = (o[: reads - 1] - err[: reads - 1]) / (o[1:reads] + err[1:reads])
    with np.errstate(divide="ignore"):
        hi = (o[: reads - 1] + err[: reads - 1]) / np.maximum(o[1:reads] - err[1:reads], 0)
    best = int(np.argmax(lo))
    if lo[best] > np.delete(hi, best).max(initial=0):
        same_cut(best + 1, select_threshold(svd), select_threshold(full))


def test_a_top_value_that_splits_off_the_tridiagonal_gets_its_vector():
    # the Gram matrix of these rows is [[1/4, -1/4, 0], [-1/4, 1/2, 0], [0, 0, 1]]:
    # its largest eigenvalue is a 1 x 1 block of the tridiagonal, which LAPACK
    # dstebz's index mode misses (info = 2) when asked for that value alone
    y = np.array([[0, 0, -0.5], [0, 0, 0.5], [0, 0, -0.5], [0, -0.5, 0], [0, 0, 0.5], [-0.5, 0.5, 0]])
    obs = ObservationMatrix(y)
    svd = compute_svd(obs, top=1)
    assert svd.singular_values.tolist() == [1.0] and np.abs(svd.Vt).tolist() == [[0.0, 0.0, 1.0]]
    svd, est = denoise(obs, 1)
    assert est.kept_rank == 1 and np.allclose(est.left @ est.Vt, y * [0, 0, 1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [219, 304])
def test_singular_vectors_of_a_sparse_matrix_are_orthonormal(seed):
    # one observed cell per column: the Gram matrix is block diagonal with repeated
    # eigenvalues, and its reduction leaves off-diagonal entries at rounding level
    # between them; unless those split the tridiagonal, inverse iteration returned
    # vectors 0.19 (seed 219) and 0.48 (seed 304) from orthogonal
    rng = np.random.default_rng(seed)
    y = np.zeros((40, 30))
    y[rng.integers(0, 40, size=30), np.arange(30)] = 0.5
    svd = compute_svd(ObservationMatrix(y))
    assert np.abs(svd.Vt @ svd.Vt.T - np.eye(30)).max() <= 1e-12
    assert np.abs((svd.U * svd.singular_values) @ svd.Vt - y).max() <= 1e-12


def _denoise_input(kind, N, d, seed, missing):
    """A +-1/2 observation matrix with a share `missing` of zeros."""
    rng = np.random.default_rng(seed)
    if kind == "tall":
        N, d = max(N, d), min(N, d)
    elif kind == "wide":
        N, d = min(N, d), max(N, d)
    elif kind == "thin":  # m = 1: one row, or one pair (n = 2 items) per row
        N, d = (1, d) if seed % 2 else (N, 1)
    if kind == "block_diagonal":  # a split tridiagonal: copies of a block down the diagonal
        b = int(rng.integers(2, 4))
        block = rng.choice([-0.5, 0.5], size=(max(1, N // b), max(1, d // b)))
        return np.kron(np.eye(b), block)
    if kind == "kron":  # rank rank(A) rank(B), with tied singular values
        a = rng.choice([-0.5, 0.5], size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
        b = rng.choice([-1.0, 1.0], size=(max(1, N // len(a)), max(1, d // a.shape[1])))
        return np.kron(a, b)
    values = rng.choice([-0.5, 0.5], size=(N, d))
    if kind in ("low_rank", "duplicate_rows"):  # exactly low rank, or rows repeated
        distinct = values[: int(rng.integers(1, 4))] if kind == "low_rank" else values
        values = distinct[rng.integers(0, len(distinct), size=N)]
    return np.where(rng.random(values.shape) < missing, 0.0, values)


def _rank_read(s, reads, hint, err):
    """The rank the t1 rule picks from values s known to within err (exact
    zeros exact), or None when the bound leaves the largest ratio open."""
    if hint is not None:
        return hint
    num, den = s[: reads - 1], s[1:reads]
    last = np.flatnonzero((num > 0) & (den == 0))
    if last.size:  # the infinite gap after the last nonzero value wins
        return int(last[0]) + 1
    with np.errstate(divide="ignore"):
        lo = np.divide(num - err[: reads - 1], den + err[1:reads], out=np.zeros(num.size), where=den > 0)
        hi = np.divide(num + err[: reads - 1], np.maximum(den - err[1:reads], 0.0), out=np.zeros(num.size),
                       where=den > 0)
    best = int(np.argmax(lo))
    return best + 1 if lo[best] > np.delete(hi, best).max(initial=0.0) else None


def _gap_choice_determined(w, atol):
    """Whether single_linkage's automatic t2 stays in the same gap of the MST
    weights w when every weight moves by at most atol: the largest gap beats
    every other by a margin, and its weight ratio is clear of the 1.5 guard.
    Rows equal in exact arithmetic lie at rounding distances, so no gap
    between such distances is determined."""
    if w.size < 2:
        return True
    gaps = np.diff(w)
    g = int(np.argmax(gaps))
    margin = 4 * atol + 1e-12 * w[-1]
    if np.delete(gaps, g).max(initial=-np.inf) >= gaps[g] - margin or w[g + 1] <= margin:
        return False
    lo, hi = w[g], w[g + 1]
    return (hi - atol) / (lo + atol) > 1.5 or (lo > atol and (hi + atol) / (lo - atol) < 1.5)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["tall", "wide", "thin", "block_diagonal", "kron", "low_rank", "duplicate_rows"]),
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.data(),
)
def test_denoise_matches_the_eigh_oracle(kind, N, d, seed, missing, data):
    # pipeline.denoise reads the values from one reduction and the kept vectors
    # by inverse iteration; the oracle takes every eigenpair from eigh and runs
    # the same threshold rule and hsvt on the values the rule reads
    values = _denoise_input(kind, N, d, seed, missing)
    obs = ObservationMatrix(values)
    m = min(values.shape)
    hint = data.draw(st.one_of(st.none(), st.integers(1, m)), label="rank_hint")
    o, u, vt = oracle_gram_svd(values)
    reads = _values_read(obs.N, obs.d, hint)
    oracle = SvdResult(o[:reads], u[:, :reads], vt[:reads])
    if m == 1:
        with pytest.raises(PipelineError, match="^select_t1: need at least 2 singular values"):
            denoise(obs, hint)
        with pytest.raises(ValueError, match="need at least 2 singular values"):
            select_threshold(oracle, target_rank=hint)
        return
    svd, est = denoise(obs, hint)
    s = svd.singular_values
    assert s.size == reads and svd.U.shape == (obs.N, est.kept_rank) and svd.Vt.shape == (est.kept_rank, obs.d)
    if o[0] == 0:
        assert not s.any() and est.kept_rank == 0
        return
    err = np.where(o == 0, 0.0, _value_error(o))  # zeros are exact: no value lies near the floor
    assert np.all(np.abs(s - o[:reads]) <= err[:reads])
    r = _rank_read(o, reads, hint, err)
    if r is None:  # tied largest ratios: either route may take either
        return
    t1, want_t1 = est.threshold_used, select_threshold(oracle, target_rank=hint)
    t1_err = 1e-14 * want_t1 + (err[r - 1] + (err[r] if r < m else 0.0)) / 2
    assert abs(t1 - want_t1) <= t1_err
    if np.any((o[:reads] > 0) & (np.abs(o[:reads] - want_t1) <= err[:reads] + t1_err)):
        return  # a value at the threshold: either route may keep it
    ref = hsvt(obs, want_t1, svd=oracle)
    kept = ref.kept_rank
    assert est.kept_rank == kept
    sq, tall = o**2, obs.N >= obs.d
    for j in range(kept):  # column by column up to sign, wherever sigma_j is separated
        gap = min(sq[j - 1] - sq[j] if j else np.inf, sq[j] - sq[j + 1] if j + 1 < m else np.inf)
        tol = 1e-12 + _GRAM_C * sq[0] / gap if gap > 0 else np.inf
        if tol <= 1e-6:
            assert _matches_up_to_sign(svd.Vt[j : j + 1].T, vt[j : j + 1].T, tol if tall else 2 * tol * o[0] / o[j])
            assert _matches_up_to_sign(svd.U[:, j : j + 1], u[:, j : j + 1], 2 * tol * o[0] / o[j] if tall else tol)
    cut = sq[kept - 1] - sq[kept] if 0 < kept < m else np.inf
    tol = 1e-10 + _GRAM_C * sq[0] / cut
    if tol <= 1e-6:  # the kept subspace is determined, and so are the coordinates' distances
        atol = tol * np.linalg.norm(values) / est.p_hat
        assert np.allclose(pdist(est.coords), pdist(ref.coords), rtol=0, atol=atol)
        want = single_linkage(ref.coords)
        if _gap_choice_determined(want.mst_edge_weights, atol):
            assert np.array_equal(single_linkage(est.coords).labels, want.labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_plain_arrays_rejected(bad):
    y = np.ones((4, 3))
    svd = compute_svd(y)
    y[2, 1] = bad
    with pytest.raises(ValueError, match="4x3 matrix must hold only finite"):
        compute_svd(y)
    with pytest.raises(ValueError, match="4x3 matrix must hold only finite"):
        hsvt(y, 0.5, svd=svd)


@pytest.mark.parametrize("kind", ["observations", "plain"])
@pytest.mark.parametrize("shape", [(5, 0), (0, 4), (0, 0)], ids=["Nx0", "0xd", "0x0"])
def test_empty_matrix_is_refused_before_blas(shape, kind, capfd):
    # syrk on an empty side has illegal arguments: OpenBLAS prints, a reference xerbla stops
    y = ObservationMatrix(np.zeros(shape)) if kind == "observations" else np.zeros(shape)
    name = f"{shape[0]}x{shape[1]}"
    with pytest.raises(ValueError, match=f"a {name} matrix has no singular values"):
        compute_svd(y)
    with pytest.raises(ValueError, match=f"a {name} (observation )?matrix has no"):
        hsvt(y, 0.0)
    if kind == "observations":
        with pytest.raises(ValueError, match=f"a {name} observation matrix has no cells"):
            estimate_p_hat(y)
    assert capfd.readouterr() == ("", "")


# -------------------------------------------------------------------- hsvt

def test_hsvt_zero_threshold_full_observation_reproduces_y():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    est = hsvt(obs, 0.0)
    assert est.p_hat == 1.0
    assert np.allclose(est.m_hat, y, atol=1e-10)


def test_hsvt_threshold_above_top_singular_value_gives_zero():
    y, _, _ = _two_perm_matrix()
    for obs in (ObservationMatrix.from_dense(y), ObservationMatrix.from_dense(y.T)):  # tall, wide
        top = compute_svd(obs).singular_values[0]
        est = hsvt(obs, top * 1.01)
        assert est.kept_rank == 0
        assert est.m_hat.shape == obs.values.shape and not est.m_hat.any()


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


def test_hsvt_refuses_an_svd_without_the_vectors_of_a_kept_value():
    y, _, _ = _two_perm_matrix()
    obs = ObservationMatrix.from_dense(y)
    full = compute_svd(obs)
    s = full.singular_values
    lacking = SvdResult(s, full.U[:, :1], full.Vt[:1])  # every value, the first vector only
    assert hsvt(obs, (s[0] + s[1]) / 2, svd=lacking).kept_rank == 1
    with pytest.raises(ValueError, match="keeps 2 components, the svd holds the vectors of 1"):
        hsvt(obs, (s[1] + s[2]) / 2, svd=lacking)
    with pytest.raises(ValueError, match="must hold the vectors of the same c <= 2 values"):
        SvdResult(s[:2], full.U[:, :3], full.Vt[:3])


@pytest.mark.parametrize("threshold", [np.nan, -1.0])
def test_hsvt_rejects_nan_or_negative_threshold(threshold):
    y, _, _ = _two_perm_matrix()
    with pytest.raises(ValueError, match="nonnegative"):
        hsvt(y, threshold)


@pytest.mark.parametrize(
    "kwargs",
    [dict(svd=compute_svd(np.eye(3)))],
    ids=["svd_of_another_matrix"],
)
def test_hsvt_rejects_bad_p_hat_or_foreign_svd(kwargs):
    y, _, _ = _two_perm_matrix()
    with pytest.raises(ValueError, match="svd"):
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


def test_select_threshold_auto_rule_ignores_the_noise_floor():
    # an exactly rank-3 product: sigma = 28.6, 22.6, 18.0, then rounding noise, which
    # compute_svd returns as exact 0, so the gap after sigma_3 is infinite and 0/0
    # beyond it is none
    rng = np.random.default_rng(169)
    y = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 20))
    svd = compute_svd(y)
    s = svd.singular_values
    assert s[2] > 0 and not s[3:].any()
    t1 = select_threshold(svd)
    assert t1 == (s[2] + s[3]) / 2
    assert hsvt(y, t1, svd=svd).kept_rank == 3


def test_no_threshold_keeps_a_noise_component():
    # the rank-3 product above: neither a target rank of 5 nor an explicit t1 of 0 keeps
    # more than its 3 components, and the noise side of the svd is zero
    rng = np.random.default_rng(169)
    y = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 20))
    svd = compute_svd(y)
    assert not svd.U[:, 3:].any()
    for t1 in (select_threshold(svd, target_rank=5), 0.0):
        assert hsvt(y, t1, svd=svd).kept_rank == 3


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


def test_select_threshold_refuses_a_truncated_svd_too_short_for_its_rule():
    y = np.random.default_rng(6).normal(size=(40, 30))  # auto mode reads min(29, ceil(sqrt(30))) + 1 = 7
    full, top5 = compute_svd(y), compute_svd(y, top=5)
    with pytest.raises(ValueError, match="reads 7 singular values, the svd holds 5 of 30"):
        select_threshold(top5)
    with pytest.raises(ValueError, match="reads 6 singular values, the svd holds 5 of 30"):
        select_threshold(top5, target_rank=5)  # sigma_6 is not held, and not 0
    assert select_threshold(top5, target_rank=4) == pytest.approx(select_threshold(full, target_rank=4), rel=1e-12)
    assert select_threshold(compute_svd(y, top=7)) == pytest.approx(select_threshold(full), rel=1e-12)
    assert select_threshold(full, target_rank=30) == full.singular_values[-1] / 2  # a full spectrum ends in 0


def test_values_read_counts_what_select_threshold_reads():
    assert _values_read(1000, 780, None) == 29  # ceil(sqrt(780)) + 1
    assert _values_read(40, 30, 4) == 5
    assert _values_read(40, 30, 30) == 30  # r = min(N, d) reads no sigma_{r+1}
    for refused in (2.7, 0, 31, np.nan):  # refused before any svd is taken
        with pytest.raises(ValueError, match="^target_rank must "):
            _values_read(40, 30, refused)


def test_hsvt_refuses_a_threshold_below_a_truncated_spectrum():
    y = np.random.default_rng(7).normal(size=(40, 30))
    svd = compute_svd(y, top=5)
    s = svd.singular_values
    with pytest.raises(ValueError, match="below the smallest of the 5 singular values"):
        hsvt(y, 0.99 * s[-1], svd=svd)  # sigma_6 might pass it, and the svd lacks it
    # at sigma_5 itself nothing unheld can pass, since sigma_6 <= sigma_5
    assert hsvt(y, s[-1], svd=svd).kept_rank == 4
    assert hsvt(y, 0.99 * s[-1], svd=compute_svd(y)).kept_rank >= 5  # a full spectrum is never refused


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
    assert report.rank_preservation_predicted


def test_spectral_gap_check_reports_failure_without_raising():
    rng = np.random.default_rng(2)
    y = np.where(rng.random((50, 45)) < 0.5, 0.5, -0.5)
    obs = ObservationMatrix.from_dense(y)
    m = np.outer(np.ones(50), np.full(45, 1e-6))
    report = spectral_gap_check(obs, m, t1=5.0, tau_star=3.0, true_p=1.0)
    assert not report.rank_preservation_predicted


@pytest.mark.parametrize(
    "values, means, match",
    [
        # a 1 x d mean matrix would broadcast against the N x d observations
        (np.full((6, 6), 0.5), np.full((1, 6), 0.25), r"mean_matrix is \(1, 6\), the observations are \(6, 6\)"),
        # d = 5 pairs is no item count (rounding would take it as n = 4)
        (np.full((6, 5), 0.5), np.full((6, 5), 0.25), r"observations are \(6, 5\): d = 5 is not n\(n-1\)/2"),
    ],
    ids=["broadcast_mean_row", "d_not_a_pair_count"],
)
def test_spectral_gap_check_refuses_a_mismatched_mean_matrix(values, means, match):
    with pytest.raises(ValueError, match=match):
        spectral_gap_check(ObservationMatrix(values), means, t1=1.0, tau_star=1.0, true_p=1.0)


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
