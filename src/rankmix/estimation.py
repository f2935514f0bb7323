"""Stacking masked observations and denoising by singular value thresholding.

The observation matrix Y holds N embedded rows, +-1/2 where observed and
exactly 0 where missing (the USVT convention; NaN marks missing only in
files). Denoising takes the SVD of Y, drops every component whose singular
value is at or below a threshold t1 (the kept set uses the strict inequality
sigma_j > t1), and rescales by the estimated observation probability:

    m_hat = (1/p_hat) * sum_{sigma_j > t1} sigma_j u_j v_j^T,
    p_hat = max(#nonzero, 1) / (N*d).

The SVD comes from one symmetric eigensolve of the min(N, d)-square Gram
matrix of Y, at a fraction of the cost of LAPACK's bidiagonal SVD, and only
for the leading singular triples the threshold rule reads: compute_svd's
top, which pipeline.denoise (run by the pipeline and by CLI denoise) sets to
_values_read (ceil(sqrt(min(N, d))) + 1 without a rank hint, r + 1 with
one) and which defaults to all min(N, d). _values_read is also the one check
of a rank hint, so a refused hint fails before the eigensolve.
Every BLAS call, from the Gram product to the back-products and m_hat, runs
on scipy's BLAS: numpy and scipy may each link their own OpenBLAS, each
with its own thread pool, and work handed from one pool to the other pays
for both. Observation data always takes the exact float32 Gram product of
an ObservationMatrix (see compute_svd; hsvt passes its y on).
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
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm, dsyrk, ssyrk

from .rankings import _frozen, _integer_values, _observations, _own

_FLOAT32_GRAM_MAX = 2**24
_NOISE_FLOOR = math.sqrt(np.finfo(float).eps)  # relative to sigma_1; see SvdResult


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
    """The leading k singular triples of Y, values nonincreasing: with
    k = min(N, d) the thin SVD, Y = U @ diag(singular_values) @ Vt; with
    fewer (compute_svd's top) the best rank-k approximation. A truncated
    result says nothing about the values it does not hold, so select_threshold
    and hsvt raise rather than read past singular_values[-1].

    Accuracy of compute_svd's Gram route, which squares the condition number:
    sigma_j carries an absolute error of about eps * sigma_1^2 / sigma_j
    (eps = 2.2e-16), and values below about sqrt(eps) * sigma_1 (1.5e-8
    sigma_1) are noise; ||a v_j|| is accurate to about eps * sigma_1. Noise
    comes back as exact 0: sigma_j = 0 when sigma_j or ||a v_j|| is at most
    sqrt(eps) * sigma_1, and so is every later value. The eigenvector side
    (Vt when N >= d, U when N < d) is orthonormal to rounding. On the other
    side the vector of a zero sigma_j is a zero column, and the others are
    orthonormal to about eps * sigma_1^2 / (sigma_i * sigma_j).
    """

    singular_values: np.ndarray
    U: np.ndarray
    Vt: np.ndarray

    def __post_init__(self):
        s, U, Vt = (np.array(a, dtype=float) for a in (self.singular_values, self.U, self.Vt))
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
        in C order; the F-ordered left and the C-ordered Vt that hsvt makes
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
    in float32: max(N, d) <= 2**24 (see compute_svd)."""
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


def compute_svd(y, top: int | None = None) -> SvdResult:
    """Leading `top` singular triples of an observation matrix (or finite
    plain array) from one symmetric eigensolve of its smaller Gram matrix.

    top is an integer in [1, min(N, d)] (ValueError otherwise) and defaults
    to min(N, d), the whole thin SVD. With a = Y (or Y^T when N < d), the
    upper triangle of a^T a comes from BLAS syrk, and LAPACK's syevr returns
    only its top eigenpairs, the right singular vectors of a and sigma_j^2
    (MRRR over the whole index range, bisection and inverse iteration over
    part of it). The other side is the top back-products a v_j / sigma_j from
    BLAS gemm, and a zero column where sigma_j = 0. Every BLAS and LAPACK call
    goes through scipy, whose BLAS may be another library than numpy's, each
    with its own thread pool: one library keeps the route on one pool. A
    matrix with min(N, d) = 0 has no singular triples and raises ValueError
    before any BLAS call.

    An ObservationMatrix's Gram matrix is formed by ssyrk on a float32 copy
    and is exact: every product is 0 or +-1/4, so every partial sum, in any
    order, is a multiple of 1/4 of magnitude at most max(N, d)/4 <= 2**22,
    which float32's 24-bit significand holds. max(N, d) > 2**24 raises
    ValueError; a plain array's Gram matrix comes from dsyrk. eigh skips its
    finiteness check, since ObservationMatrix and plain arrays are refused
    unless finite. See SvdResult for the accuracy this gives.
    """
    values = _as_matrix(y)
    wide = values.shape[0] < values.shape[1]
    m = min(values.shape)
    if m == 0:  # syrk would be called with illegal arguments
        raise ValueError(f"a {values.shape[0]}x{values.shape[1]} matrix has no singular values")
    top = m if top is None else _count_in_range(top, m, "top")
    # values.T is an F-ordered view of a C-ordered matrix, so it reaches BLAS uncopied;
    # syrk fills the upper triangle of a^T a, which is all that eigh reads
    if isinstance(y, ObservationMatrix):
        _check_float32_gram(*values.shape)
        gram = ssyrk(1.0, values.astype(np.float32).T, trans=int(wide)).astype(float)
    else:
        gram = dsyrk(1.0, values.T, trans=int(wide))
    eigenvalues, v = eigh(
        gram, lower=False, subset_by_index=[m - top, m - 1], driver="evr", overwrite_a=True, check_finite=False
    )
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    v = np.asfortranarray(v[:, ::-1])  # descending order, in the layout gemm takes uncopied
    w = dgemm(1.0, values.T, v, trans_a=int(not wide))  # a @ v
    floor = _NOISE_FLOOR * s[0]  # numerical zero, decided once (see SvdResult)
    zero = np.logical_or.accumulate((s <= floor) | (np.linalg.norm(w, axis=0) <= floor))
    s[zero] = w[:, zero] = 0.0
    np.divide(w, s, out=w, where=~zero)
    U, Vt = (v, w.T) if wide else (w, v.T)
    return _own(SvdResult, singular_values=s, U=U, Vt=Vt)


def hsvt(y, threshold: float, svd: SvdResult | None = None) -> HsvtEstimate:
    """Hard singular value thresholding at t1, rescaled by 1/p_hat.

    Keeps the components with sigma_j strictly above the threshold and
    returns them as factors (see HsvtEstimate). p_hat is estimate_p_hat of
    an ObservationMatrix; a plain array is fully observed, so p_hat = 1.
    Raises ValueError unless a given svd is of a matrix shaped like y.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    p_hat = estimate_p_hat(y) if isinstance(y, ObservationMatrix) else 1.0
    if svd is None:
        svd = compute_svd(y)  # y itself: an ObservationMatrix takes the float32 Gram route
    elif (svd.N, svd.d) != (shape := _as_matrix(y).shape):
        raise ValueError(f"svd is of a {svd.N}x{svd.d} matrix, y is {shape}")
    s = svd.singular_values
    if s.size < min(svd.N, svd.d) and threshold < s[-1]:
        raise ValueError(
            f"threshold {threshold} is below the smallest of the {s.size} singular values the svd holds, "
            "so components it does not hold might pass it"
        )
    kept = s > threshold
    kept_rank = int(np.count_nonzero(kept))
    return _own(HsvtEstimate, left=svd.U[:, kept] * s[kept], Vt=svd.Vt[kept], kept_rank=kept_rank,
                threshold_used=float(threshold), p_hat=p_hat)


def _values_read(N: int, d: int, target_rank=None) -> int:
    """How many leading singular values select_threshold reads for an N x d
    matrix: r + 1 (at most min(N, d)) for a target rank r, and
    min(m - 1, ceil(sqrt(m))) + 1 with m = min(N, d) without one. A target
    rank that is not an integer in [1, m] raises ValueError, so asking
    before the svd refuses it before any eigensolve."""
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
