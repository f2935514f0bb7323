"""Stacking masked observations and denoising by singular value thresholding.

The observation matrix Y holds N embedded rows, +-1/2 where observed and
exactly 0 where missing (the USVT convention; NaN marks missing only in
files). Denoising takes the SVD of Y, drops every component whose singular
value is at or below a threshold t1 (the kept set uses the strict inequality
sigma_j > t1), and rescales by the estimated observation probability:

    m_hat = (1/p_hat) * sum_{sigma_j > t1} sigma_j u_j v_j^T,
    p_hat = max(#nonzero, 1) / (N*d).

The SVD comes from the min(N, d)-square Gram matrix of Y, reduced once to
tridiagonal form (LAPACK dsytrd), at a fraction of the cost of LAPACK's
bidiagonal SVD. Every singular value comes from that reduction (dsterf);
singular vectors are computed only for the leading values a caller asks for,
by inverse iteration (dstebz, dstein) and one back-transformation (dormqr).
pipeline.denoise (run by the pipeline and by CLI denoise) reads the values
the threshold rule needs (_values_read: ceil(sqrt(min(N, d))) + 1 without a
rank hint, r + 1 with one), picks t1, and only then computes the vectors of
the components it keeps; compute_svd's top asks for as many vectors as
values. _values_read is also the one check of a rank hint, so a refused hint
fails before the Gram matrix is formed.
Every BLAS call, from the Gram product to the back-products and m_hat, runs
on scipy's BLAS: numpy and scipy may each link their own OpenBLAS, each
with its own thread pool, and work handed from one pool to the other pays
for both. Observation data always takes the exact float32 Gram product of
an ObservationMatrix (see _GramSpectrum; hsvt passes its y on).
SvdResult states the accuracy this gives.

The estimate is held as its rank-r factors, left = U_r S_r and Vt = V_r^T,
and the dense N x d m_hat is built only on demand. Because V_r has
orthonormal rows, distances between rows of m_hat equal distances between
rows of the N x r coordinates left / p_hat, so clustering never needs it.

The module also exposes the concentration-side diagnostics: the K(p) norm of
a centered Bernoulli, the Delta noise-level bound (its unspecified absolute
constant is the keyword C, default 1), and a report that places a chosen
threshold in the rank-preservation window of the ground-truth mean matrix
(synthetic mode only), with Delta beside the measured noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dgemm, dsyrk, ssyrk
from scipy.linalg.lapack import dormqr, dstebz, dstein, dsterf, dsytrd, dsytrd_lwork

from .rankings import _frozen, _integer_values, _observations, _own

_FLOAT32_GRAM_MAX = 2**24
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class ObservationMatrix:
    """N stacked embedded observations: values is +-1/2 at every observed
    cell and exactly 0 at every missing one, so observed == (values != 0).
    The matrix owns its values: the constructor checks and freezes a copy,
    so the caller's array stays writable and later writes to it do not
    reach the matrix."""

    values: np.ndarray

    def __post_init__(self):
        _own(self, values=_observations(np.array(self.values, dtype=float)))

    @classmethod
    def from_dense(cls, values) -> "ObservationMatrix":
        """Build from a matrix read from a file, in which NaN (the NA token)
        marks a missing entry; 0 is not an entry there and raises."""
        values = np.asarray(values, dtype=float)
        if (values == 0.0).any():
            raise ValueError("a dense observation matrix marks missing entries with NaN, not 0")
        return _own(cls, values=_observations(np.where(np.isnan(values), 0.0, values)))

    @classmethod
    def from_samples(cls, batch) -> "ObservationMatrix":
        """A SampleBatch's values without its labels (a batch is already an
        ObservationMatrix), unchecked and uncopied, as the batch owns them."""
        return _own(cls, values=batch.values)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SvdResult:
    """The leading k singular values of Y, nonincreasing, and the singular
    vectors of the leading c <= k of them: U is N x c and Vt is c x d. With
    c = k = min(N, d) it is the thin SVD, Y = U @ diag(singular_values) @ Vt;
    with c = k < min(N, d) (compute_svd's top) the best rank-k approximation.
    pipeline.denoise holds the values the threshold rule read and the
    vectors of the kept components only. A truncated result says nothing
    about the values it does not hold, so select_threshold and hsvt raise
    rather than read past singular_values[-1], and hsvt raises rather than
    keep a value whose vectors it does not hold. The constructor raises
    ValueError unless U and Vt hold the same c <= k vectors.

    Accuracy of the Gram route, which squares the condition number: sigma_j
    carries an absolute error of about eps * sigma_1^2 / sigma_j (eps =
    2.2e-16), and the reduction of the m x m Gram matrix (m = min(N, d))
    leaves its zero eigenvalues at up to about m * eps * sigma_1^2, so values
    below sqrt(m * eps) * sigma_1 (1.5e-8 sigma_1 at m = 1, 4.2e-7 at
    m = 780) are noise; ||a v_j|| is accurate to about eps * sigma_1. Noise
    comes back as exact 0: sigma_j = 0 when sigma_j, or ||a v_j|| where the
    vector is computed, is at most sqrt(m * eps) * sigma_1, and so is every
    later value. The eigenvector side (Vt when N >= d, U when N < d) is
    orthonormal to rounding. On the other side the vector of a zero sigma_j
    is a zero column, and the others are orthonormal to about
    eps * sigma_1^2 / (sigma_i * sigma_j).
    """

    singular_values: np.ndarray
    U: np.ndarray
    Vt: np.ndarray

    def __post_init__(self):
        s, U, Vt = (np.array(a, dtype=float) for a in (self.singular_values, self.U, self.Vt))
        if not U.shape[1] == Vt.shape[0] <= s.size:
            raise ValueError(f"U {U.shape} and Vt {Vt.shape} must hold the vectors of the same c <= {s.size} values")
        _own(self, singular_values=s, U=U, Vt=Vt)

    @property
    def N(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.Vt.shape[1]


@dataclass(frozen=True, eq=False)
class HsvtEstimate:
    """Denoised, rescaled estimate as rank-r factors, with the thresholding
    bookkeeping: m_hat = left @ Vt / p_hat, left = U_r S_r (not rescaled).
    left, Vt and m_hat are read-only, so m_hat never disagrees with coords."""

    left: np.ndarray
    Vt: np.ndarray
    kept_rank: int
    threshold_used: float
    p_hat: float

    def __post_init__(self):
        _own(self, left=np.array(self.left, dtype=float), Vt=np.array(self.Vt, dtype=float))

    @property
    def coords(self) -> np.ndarray:
        """N x r rows whose pairwise distances equal those of m_hat's rows."""
        return self.left / self.p_hat

    @cached_property
    def m_hat(self) -> np.ndarray:
        """The dense N x d estimate, built on first access (zeros at rank 0).

        scipy's dgemm forms m_hat^T = Vt^T left^T in F order, which is m_hat
        in C order; the F-ordered left and the C-ordered Vt that hsvt returns
        reach it uncopied. The division by p_hat follows the product."""
        m_hat = dgemm(1.0, self.Vt.T, self.left, trans_b=1).T
        m_hat /= self.p_hat
        return _frozen(m_hat)


def _as_matrix(y) -> np.ndarray:
    """Accept an ObservationMatrix or a plain fully observed array."""
    if isinstance(y, ObservationMatrix):
        return y.values
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.isfinite(arr).all():
        raise ValueError(f"a {arr.shape[0]}x{arr.shape[1]} matrix must hold only finite values")
    return arr


def estimate_p_hat(obs: ObservationMatrix) -> float:
    """Observed (nonzero) fraction, floored at 1/(N*d) so rescaling never divides by 0.
    A matrix with no cells (N or d is 0) raises ValueError."""
    if obs.values.size == 0:
        raise ValueError(f"a {obs.N}x{obs.d} observation matrix has no cells to estimate p from")
    return max(int(np.count_nonzero(obs.values)), 1) / obs.values.size


def _check_float32_gram(N: int, d: int) -> None:
    """Raise unless the Gram matrix of an N x d observation matrix is exact
    in float32: max(N, d) <= 2**24 (see _GramSpectrum)."""
    if max(N, d) > _FLOAT32_GRAM_MAX:
        raise ValueError(
            f"a {N}x{d} observation matrix is too large for an exact float32 Gram matrix: "
            f"max(N, d) must be at most 2**24 = {_FLOAT32_GRAM_MAX}"
        )


def _count_in_range(value, m: int, name: str) -> int:
    """value as an int in [1, m]; 2.7, NaN, inf, 0 and m + 1 raise ValueError."""
    count = int(_integer_values(value, name))
    if not 1 <= count <= m:
        raise ValueError(f"{name} must lie in [1, {m}], got {value}")
    return count


def _lapack(info: int, routine: str) -> None:
    """Raise LinAlgError unless a LAPACK routine returned info = 0."""
    if info:
        raise LinAlgError(f"LAPACK {routine} returned info = {info}")


class _GramSpectrum:
    """The Gram matrix of an observation matrix (or finite plain array),
    reduced once to tridiagonal form, with every singular value and the
    singular vectors of as many leading values as a caller asks for.

    With a = Y (or Y^T when N < d), BLAS syrk forms the lower triangle of the
    m x m Gram matrix a^T a, m = min(N, d), and one blocked LAPACK dsytrd
    reduces it in place to a tridiagonal T = Q^T a^T a Q, Q held as its
    Householder reflectors. An off-diagonal entry of T at most m * eps *
    ||T|| (the reduction's own error) is set to 0. dsterf returns every
    eigenvalue of T, whose square roots are the singular values; no vector is
    computed until svd asks. A matrix with m = 0 has no singular values and
    raises ValueError before any BLAS call; a nonzero LAPACK info raises
    LinAlgError.

    An ObservationMatrix's Gram matrix is formed by ssyrk on a float32 copy
    and is exact: every product is 0 or +-1/4, so every partial sum, in any
    order, is a multiple of 1/4 of magnitude at most max(N, d)/4 <= 2**22,
    which float32's 24-bit significand holds. max(N, d) > 2**24 raises
    ValueError; a plain array's Gram matrix comes from dsyrk. Every BLAS and
    LAPACK call goes through scipy, whose BLAS may be another library than
    numpy's, each with its own thread pool: one library keeps the route on
    one pool.
    """

    def __init__(self, y):
        values = _as_matrix(y)
        self.wide = values.shape[0] < values.shape[1]
        m = min(values.shape)
        if m == 0:  # syrk would be called with illegal arguments
            raise ValueError(f"a {values.shape[0]}x{values.shape[1]} matrix has no singular values")
        # values.T is an F-ordered view of a C-ordered matrix, so it reaches BLAS uncopied
        if isinstance(y, ObservationMatrix):
            _check_float32_gram(*values.shape)
            gram = ssyrk(1.0, values.astype(np.float32).T, trans=int(self.wide), lower=1).astype(float)
        else:
            gram = dsyrk(1.0, values.T, trans=int(self.wide), lower=1)
        self.values, self.m = values, m
        if m == 1:  # dsytrd refuses n = 1; scipy's wrappers take a 1-entry e there
            self.diagonal, self.off_diagonal = gram[0], np.zeros(1)
        else:  # gram is F-ordered, so dsytrd overwrites it with the reflectors
            lwork, info = dsytrd_lwork(m, lower=1)
            _lapack(info, "dsytrd")
            self.reflectors, self.diagonal, self.off_diagonal, self.tau, info = dsytrd(
                gram, lower=1, lwork=int(lwork), overwrite_a=1)
            _lapack(info, "dsytrd")
            # an off-diagonal entry within the reduction's error of 0 is set to 0, so
            # T splits there: dstein orthogonalizes a cluster of close eigenvalues only
            # within one block, and sparse or exactly low-rank Gram matrices leave such
            # clusters joined by rounding-level entries
            e = np.abs(self.off_diagonal)
            norm = np.abs(self.diagonal).max() + 2.0 * e.max()  # bounds ||T||
            self.off_diagonal[e <= m * _EPS * norm] = 0.0
        self.eigenvalues, info = dsterf(self.diagonal, self.off_diagonal)  # ascending
        _lapack(info, "dsterf")
        s = np.sqrt(np.maximum(self.eigenvalues[::-1], 0.0))
        self.floor = math.sqrt(m * _EPS) * s[0]  # numerical zero, decided once (see SvdResult)
        s[np.logical_or.accumulate(s <= self.floor)] = 0.0
        self.singular_values = _frozen(s)

    def _eigenvectors(self, count: int) -> np.ndarray:
        """The m x count F-ordered eigenvectors of a^T a for its top count
        eigenvalues, in descending order: dstebz places the eigenvalues of T
        in the interval that holds the top count of dsterf's, widened by
        their error bound, and groups them by split-off block as dstein
        takes them; dstein finds the vectors of the top count by inverse
        iteration, and dormqr applies Q. (dstebz's index mode misses an
        eigenvalue at the low end of the range that forms a 1 x 1 block,
        as exactly low-rank Gram matrices give, and returns info = 2.)"""
        m, eigenvalues = self.m, self.eigenvalues
        scale = max(-eigenvalues[0], eigenvalues[-1])
        margin = m * _EPS * scale if scale > 0 else 1.0  # T = 0 has every eigenvalue at exactly 0
        found, w, block, split, info = dstebz(self.diagonal, self.off_diagonal, 1, eigenvalues[m - count] - margin,
                                              eigenvalues[-1] + margin, 0, 0, 0.0, "B")
        _lapack(info, "dstebz")
        if found < count:
            raise LinAlgError(f"LAPACK dstebz found {found} of the top {count} eigenvalues")
        top = np.sort(np.argsort(-w[:found], kind="stable")[:count])  # in dstebz's block order
        w, block[:count] = w[top], block[top]
        z, info = dstein(self.diagonal, self.off_diagonal, w, block, split)
        _lapack(info, "dstein")
        if m > 1:
            # Q = diag(1, Q'), and the reflectors of Q' lie below the diagonal of
            # reflectors[1:, :-1]. That block is the F-ordered m x (m - 1) view of
            # the same buffer one element on, with leading dimension m, whose rows
            # :m - 1 dormqr reads: no copy of the m x m matrix is made.
            a = self.reflectors.reshape(-1, order="F")[1:1 + m * (m - 1)].reshape(m, m - 1, order="F")
            work, info = dormqr("L", "N", a, self.tau, z[1:], -1)[1:]
            _lapack(info, "dormqr")
            product, _, info = dormqr("L", "N", a, self.tau, z[1:], int(work[0]))
            _lapack(info, "dormqr")
            z[1:] = product
        return np.asfortranarray(z[:, np.argsort(-w, kind="stable")])

    def svd(self, top: int, vectors: int) -> SvdResult:
        """The top leading singular values and the singular vectors of the
        first `vectors` <= top of them. The other side is the back-products
        a v_j / sigma_j from BLAS gemm, and a zero column where sigma_j = 0."""
        s = self.singular_values[:top].copy()
        if not vectors:
            N, d = self.values.shape
            return _own(SvdResult, singular_values=s, U=np.zeros((N, 0)), Vt=np.zeros((0, d)))
        v = self._eigenvectors(vectors)
        w = dgemm(1.0, self.values.T, v, trans_a=int(not self.wide))  # a @ v
        zero = s == 0.0
        zero[:vectors] |= np.linalg.norm(w, axis=0) <= self.floor
        zero = np.logical_or.accumulate(zero)
        s[zero] = w[:, zero[:vectors]] = 0.0
        np.divide(w, s[:vectors], out=w, where=~zero[:vectors])
        U, Vt = (v, w.T) if self.wide else (w, v.T)
        return _own(SvdResult, singular_values=s, U=U, Vt=Vt)


def compute_svd(y, top: int | None = None) -> SvdResult:
    """Leading `top` singular triples of an observation matrix (or finite
    plain array) from one tridiagonal reduction of its smaller Gram matrix.

    top is an integer in [1, min(N, d)] (ValueError otherwise) and defaults
    to min(N, d), the whole thin SVD. See _GramSpectrum for the route and
    its refusals: the top eigenvectors of the Gram matrix are the right
    singular vectors of a, found by inverse iteration (dstebz and dstein)
    and one dormqr back-transformation, and the other side is the top
    back-products. The whole thin SVD is inverse iteration over the whole
    spectrum, about 3x slower than LAPACK's syevr there, and no library
    caller asks for it. See SvdResult for the accuracy this gives.
    """
    spectrum = _GramSpectrum(y)
    top = spectrum.m if top is None else _count_in_range(top, spectrum.m, "top")
    return spectrum.svd(top, top)


def hsvt(y, threshold: float, svd: SvdResult | None = None) -> HsvtEstimate:
    """Hard singular value thresholding at t1, rescaled by 1/p_hat.

    Keeps the components with sigma_j strictly above the threshold and
    returns them as factors (see HsvtEstimate). p_hat is estimate_p_hat of
    an ObservationMatrix; a plain array is fully observed, so p_hat = 1.
    Without an svd, hsvt reads every singular value of y and computes the
    vectors of the kept ones only. Raises ValueError unless a given svd is
    of a matrix shaped like y, holds every value above the threshold and
    holds the vectors of every kept one.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    p_hat = estimate_p_hat(y) if isinstance(y, ObservationMatrix) else 1.0
    if svd is None:
        spectrum = _GramSpectrum(y)  # y itself: an ObservationMatrix takes the float32 Gram route
        kept = int(np.count_nonzero(spectrum.singular_values > threshold))
        svd = spectrum.svd(spectrum.m, kept)
    elif (svd.N, svd.d) != (shape := _as_matrix(y).shape):
        raise ValueError(f"svd is of a {svd.N}x{svd.d} matrix, y is {shape}")
    s = svd.singular_values
    if s.size < min(svd.N, svd.d) and threshold < s[-1]:
        raise ValueError(
            f"threshold {threshold} is below the smallest of the {s.size} singular values the svd holds, "
            "so components it does not hold might pass it"
        )
    kept_rank = int(np.count_nonzero(s > threshold))  # the leading ones: s is nonincreasing
    if kept_rank > svd.U.shape[1]:
        raise ValueError(
            f"threshold {threshold} keeps {kept_rank} components, the svd holds the vectors of {svd.U.shape[1]}"
        )
    return _own(HsvtEstimate, left=svd.U[:, :kept_rank] * s[:kept_rank], Vt=svd.Vt[:kept_rank],
                kept_rank=kept_rank, threshold_used=float(threshold), p_hat=p_hat)


def _values_read(N: int, d: int, target_rank=None) -> int:
    """How many leading singular values select_threshold reads for an N x d
    matrix: r + 1 (at most min(N, d)) for a target rank r, and
    min(m - 1, ceil(sqrt(m))) + 1 with m = min(N, d) without one. A target
    rank that is not an integer in [1, m] raises ValueError, so asking
    before the svd refuses it before the Gram matrix is formed."""
    m = min(N, d)
    if target_rank is None:
        return min(m - 1, math.ceil(math.sqrt(m))) + 1
    return min(_count_in_range(target_rank, m, "target_rank") + 1, m)


def select_threshold(svd: SvdResult, target_rank: int | None = None) -> float:
    """Pick t1 from the spectrum.

    With a target rank r (an integer value; 2.7, NaN and inf raise) the
    threshold is the midpoint (sigma_r + sigma_{r+1})/2, taking sigma beyond
    a full spectrum (r = min(N, d)) as 0, so at most r components survive;
    a numerically zero sigma (exactly 0, see SvdResult) never does.
    Without one, r is chosen as the largest relative gap sigma_j/sigma_{j+1}
    over j <= ceil(sqrt(min(N, d))) -- the cap keeps noise-floor ratios out
    of the search -- and the same midpoint applies. The gap after the last
    nonzero value is infinite, and 0/0 is no gap.
    Raises ValueError when a truncated svd (from compute_svd's top) holds
    fewer values than the rule reads (_values_read).
    """
    s = svd.singular_values
    m = min(svd.N, svd.d)
    if m < 2:
        raise ValueError("need at least 2 singular values to place a threshold")
    reads = _values_read(svd.N, svd.d, target_rank)  # checks target_rank
    if s.size < reads:
        raise ValueError(f"the threshold rule reads {reads} singular values, the svd holds {s.size} of {m}")
    if target_rank is None:
        num, den = s[: reads - 1], s[1:reads]
        ratios = np.divide(num, den, out=np.where(num > 0, np.inf, 0.0), where=den > 0)  # 0/0 is no gap
        r = int(np.argmax(ratios)) + 1
    else:
        r = int(target_rank)
    nxt = s[r] if r < m else 0.0
    return float((s[r - 1] + nxt) / 2.0)


def k_of_p(p: float) -> float:
    """Sub-Gaussian norm of a centered Bernoulli(p): 0 at the endpoints,
    1/4 at p = 1/2, (2p-1)/(2 ln(p/(1-p))) elsewhere."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    if p == 0.5:
        return 0.25
    return (2.0 * p - 1.0) / (2.0 * math.log(p / (1.0 - p)))


def delta_bound(
    N: int,
    n: int,
    p: float,
    tau_star: float,
    C: float = 1.0,
) -> float:
    """Bound on the spectral noise level ||Y - pM||_2, with C the paper's
    unspecified absolute constant:

    Delta = C * ((sqrt(p) + p tau*) sqrt(N) + (tau* + K(p)) (n + sqrt(n) N^(1/4)))
    """
    if N < 1 or n < 1 or tau_star < 0:
        raise ValueError("N, n must be positive and tau_star nonnegative")
    return C * (
        (math.sqrt(p) + p * tau_star) * math.sqrt(N)
        + (tau_star + k_of_p(p)) * (n + math.sqrt(n) * N**0.25)
    )


@dataclass(frozen=True)
class SpectralGapReport:
    """The noise level and the true mean spectrum that place a chosen t1."""

    p: float
    noise_norm: float
    delta: float
    rank: int
    sigma_r_pm: float
    rank_preservation_predicted: bool


def spectral_gap_check(
    obs: ObservationMatrix,
    mean_matrix: np.ndarray,
    t1: float,
    tau_star: float,
    true_p: float | None = None,
) -> SpectralGapReport:
    """Evaluate the threshold window against a known mean matrix M.

    Purely diagnostic and synthetic-only: M must be the N x d ground-truth
    row means with d = n(n-1)/2 (ValueError otherwise). Reports
    ||Y - pM||_2, Delta (C = 1), r = rank(M), sigma_r(pM) and the
    rank-preservation window ||Y - pM||_2 < t1 < sigma_r(pM) - ||Y - pM||_2,
    which predicts that thresholding keeps exactly r components.
    """
    mean_matrix = np.asarray(mean_matrix, dtype=float)
    if mean_matrix.shape != obs.values.shape:
        raise ValueError(f"mean_matrix is {mean_matrix.shape}, the observations are {obs.values.shape}")
    n = round((1 + math.sqrt(1 + 8 * obs.d)) / 2)
    if n * (n - 1) // 2 != obs.d:
        raise ValueError(f"the observations are {obs.values.shape}: d = {obs.d} is not n(n-1)/2 for an integer n")
    p = estimate_p_hat(obs) if true_p is None else float(true_p)
    noise_norm = float(np.linalg.norm(obs.values - p * mean_matrix, 2))
    s = np.linalg.svd(mean_matrix, compute_uv=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-9)) if s.size and s[0] > 0 else 0
    delta = delta_bound(obs.N, n, p, tau_star)
    sigma_r_pm = p * float(s[rank - 1]) if rank else 0.0
    return SpectralGapReport(
        p=p,
        noise_norm=noise_norm,
        delta=delta,
        rank=rank,
        sigma_r_pm=sigma_r_pm,
        rank_preservation_predicted=noise_norm < t1 < sigma_r_pm - noise_norm,
    )
