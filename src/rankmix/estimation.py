"""Stacking masked observations and denoising by singular value thresholding.

The observation matrix Y holds N embedded rows, +-1/2 where observed and
exactly 0 where missing (the USVT convention; NaN marks missing only in
files). Denoising takes the SVD of Y, drops every component whose singular
value is at or below a threshold t1 (the kept set uses the strict inequality
sigma_j > t1), and rescales by the estimated observation probability:

    m_hat = (1/p_hat) * sum_{sigma_j > t1} sigma_j u_j v_j^T,
    p_hat = max(#nonzero, 1) / (N*d).

The SVD comes from one symmetric eigendecomposition (np.linalg.eigh) of the
min(N, d)-square Gram matrix of Y, which gives every singular value, not
only the kept ones, at a fraction of the cost of LAPACK's bidiagonal SVD;
SvdResult states the accuracy this gives.

The estimate is held as its rank-r factors, left = U_r S_r and Vt = V_r^T,
and the dense N x d m_hat is built only on demand. Because V_r has
orthonormal rows, distances between rows of m_hat equal distances between
rows of the N x r coordinates left / p_hat, so clustering never needs it.

The module also exposes the concentration-side diagnostics: the K(p) norm of
a centered Bernoulli, the Delta noise-level bound, and a report that checks a
chosen threshold against the spectrum of the ground-truth mean matrix (only
available in synthetic mode). The unspecified absolute constant in the Delta
bound is the keyword C, default 1; it gates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rankings import _check_masked_embedding, _integer_values


@dataclass(frozen=True)
class ObservationMatrix:
    """N stacked embedded observations: values is +-1/2 at every observed
    cell and exactly 0 at every missing one, so observed == (values != 0)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be a 2-d array, got shape {values.shape}")
        _check_masked_embedding(values)
        values = values.view()  # freeze a view, not the caller's array
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dense(cls, values) -> "ObservationMatrix":
        """Build from a matrix read from a file, in which NaN (the NA token)
        marks a missing entry; 0 is not an entry there and raises."""
        values = np.asarray(values, dtype=float)
        if (values == 0.0).any():
            raise ValueError("a dense observation matrix marks missing entries with NaN, not 0")
        return cls(np.where(np.isnan(values), 0.0, values))

    @classmethod
    def from_samples(cls, batch) -> "ObservationMatrix":
        """Wrap a SampleBatch's values as they are (0 already marks missing)."""
        return cls(batch.values)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: Y = U @ diag(singular_values) @ Vt, values nonincreasing.

    Accuracy of compute_svd's Gram route, which squares the condition number:
    sigma_j carries an absolute error of about eps * sigma_1^2 / sigma_j
    (eps = 2.2e-16). Values well above sqrt(eps) * sigma_1 are accurate to
    near machine precision; values below about sqrt(eps) * sigma_1
    (1.5e-8 sigma_1) are noise, and a negative eigenvalue gives sigma_j = 0.
    The eigenvector side (Vt when N >= d, U when N < d) is orthonormal; on
    the other side, the vector of a zero sigma_j is a zero column.
    """

    singular_values: np.ndarray
    U: np.ndarray
    Vt: np.ndarray

    @property
    def N(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.Vt.shape[1]


@dataclass(frozen=True)
class HsvtEstimate:
    """Denoised, rescaled estimate as rank-r factors, with the thresholding
    bookkeeping: m_hat = left @ Vt / p_hat, left = U_r S_r (not rescaled)."""

    left: np.ndarray
    Vt: np.ndarray
    kept_rank: int
    threshold_used: float
    p_hat: float

    @property
    def coords(self) -> np.ndarray:
        """N x r rows whose pairwise distances equal those of m_hat's rows."""
        return self.left / self.p_hat

    @cached_property
    def m_hat(self) -> np.ndarray:
        """The dense N x d estimate, built on first access (zeros at rank 0)."""
        return self.left @ self.Vt / self.p_hat


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
    """Observed (nonzero) fraction, floored at 1/(N*d) so rescaling never divides by 0."""
    return max(int(np.count_nonzero(obs.values)), 1) / obs.values.size


def compute_svd(y) -> SvdResult:
    """Thin SVD of an observation matrix (or finite plain array) from one
    symmetric eigendecomposition of its smaller Gram matrix.

    With a = Y (or Y^T when N < d), eigh(a^T a) gives the right singular
    vectors of a and sigma_j^2; the other side is a v_j / sigma_j, and a zero
    column where sigma_j = 0. See SvdResult for the accuracy this gives.
    """
    values = _as_matrix(y)
    wide = values.shape[0] < values.shape[1]
    a = values.T if wide else values
    eigenvalues, v = np.linalg.eigh(a.T @ a)
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    v = np.ascontiguousarray(v[:, ::-1])  # descending order, BLAS-friendly strides
    w = a @ v
    np.divide(w, s, out=w, where=s > 0)
    w[:, s == 0] = 0.0
    return SvdResult(s, v, w.T) if wide else SvdResult(s, w, v.T)


def hsvt(y, threshold: float, svd: SvdResult | None = None, p_hat: float | None = None) -> HsvtEstimate:
    """Hard singular value thresholding at t1, rescaled by 1/p_hat.

    Keeps the components with sigma_j strictly above the threshold and
    returns them as factors (see HsvtEstimate). A plain array input is
    treated as fully observed (p_hat = 1 unless given). Raises ValueError
    unless 0 < p_hat <= 1 and a given svd is of a matrix shaped like y.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    values = _as_matrix(y)
    if p_hat is None:
        p_hat = estimate_p_hat(y) if isinstance(y, ObservationMatrix) else 1.0
    if not 0.0 < p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in (0, 1], got {p_hat}")
    if svd is None:
        svd = compute_svd(values)
    elif (svd.N, svd.d) != values.shape:
        raise ValueError(f"svd is of a {svd.N}x{svd.d} matrix, y is {values.shape}")
    s = svd.singular_values
    kept = s > threshold
    kept_rank = int(np.count_nonzero(kept))
    return HsvtEstimate(svd.U[:, kept] * s[kept], svd.Vt[kept], kept_rank, float(threshold), float(p_hat))


def select_threshold(svd: SvdResult, target_rank: int | None = None) -> float:
    """Pick t1 from the spectrum.

    With a target rank r (an integer value; 2.7, NaN and inf raise) the
    threshold is the midpoint (sigma_r + sigma_{r+1})/2, taking sigma beyond
    the spectrum as 0, so exactly r components survive. Without one, r is
    chosen as the largest relative gap sigma_j/sigma_{j+1} over
    j <= ceil(sqrt(min(N, d))) -- the cap keeps noise-floor ratios out of the
    search -- and the same midpoint applies.
    """
    s = svd.singular_values
    m = s.size
    if m < 2:
        raise ValueError("need at least 2 singular values to place a threshold")
    if target_rank is not None:
        r = int(_integer_values(target_rank, "target_rank"))
        if not (1 <= r <= m):
            raise ValueError(f"target_rank must lie in [1, {m}], got {target_rank}")
    else:
        j_max = min(m - 1, math.ceil(math.sqrt(min(svd.N, svd.d))))
        with np.errstate(divide="ignore"):
            ratios = np.where(s[1 : j_max + 1] > 0, s[:j_max] / s[1 : j_max + 1], np.inf)
        r = int(np.argmax(ratios)) + 1
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
    """Diagnostics comparing a chosen threshold with the true mean spectrum."""

    p: float
    noise_norm: float
    delta: float
    rank: int
    sigma_r_m: float
    sigma_r_pm: float
    t1: float
    p_exceeds_threshold: bool
    t1_proper: bool
    rank_preservation_predicted: bool


def spectral_gap_check(
    obs: ObservationMatrix,
    mean_matrix: np.ndarray,
    t1: float,
    tau_star: float,
    true_p: float | None = None,
    C: float = 1.0,
) -> SpectralGapReport:
    """Evaluate the threshold conditions against a known mean matrix M.

    Purely diagnostic and synthetic-only: M must be the ground-truth row
    means. Reports ||Y - pM||_2, Delta, and three booleans: p > 4*Delta /
    sigma_r(M); t1 in (Delta, sigma_r(pM) - Delta); and the
    rank-preservation window ||Y - pM||_2 < t1 < sigma_r(pM) - ||Y - pM||_2,
    which predicts that thresholding keeps exactly rank(M) components.
    """
    mean_matrix = np.asarray(mean_matrix, dtype=float)
    p = estimate_p_hat(obs) if true_p is None else float(true_p)
    noise_norm = float(np.linalg.norm(obs.values - p * mean_matrix, 2))
    s = np.linalg.svd(mean_matrix, compute_uv=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-9)) if s.size and s[0] > 0 else 0
    # infer n from the pair count d = n(n-1)/2
    n = int(round((1 + math.sqrt(1 + 8 * obs.d)) / 2))
    delta = delta_bound(obs.N, n, p, tau_star, C)
    if rank == 0:
        return SpectralGapReport(p, noise_norm, delta, 0, 0.0, 0.0, t1, False, False, False)
    sigma_r_m = float(s[rank - 1])
    sigma_r_pm = p * sigma_r_m
    return SpectralGapReport(
        p=p,
        noise_norm=noise_norm,
        delta=delta,
        rank=rank,
        sigma_r_m=sigma_r_m,
        sigma_r_pm=sigma_r_pm,
        t1=float(t1),
        p_exceeds_threshold=p > 4.0 * delta / sigma_r_m,
        t1_proper=delta < t1 < sigma_r_pm - delta,
        rank_preservation_predicted=noise_norm < t1 < sigma_r_pm - noise_norm,
    )
