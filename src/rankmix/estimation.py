"""Stacking masked observations and denoising by singular value thresholding.

The observation matrix Y holds N embedded rows with MISSING entries replaced
by exactly 0. Denoising takes the SVD of Y, drops every component whose
singular value is at or below a threshold t1 (the kept set uses the strict
inequality sigma_j > t1), and rescales by the estimated observation
probability:

    m_hat = (1/p_hat) * sum_{sigma_j > t1} sigma_j u_j v_j^T,
    p_hat = max(#observed, 1) / (N*d).

The module also exposes the concentration-side diagnostics: the K(p) norm of
a centered Bernoulli, the Delta noise-level bound, and a report that checks a
chosen threshold against the spectrum of the ground-truth mean matrix (only
available in synthetic mode). The unspecified absolute constants in those
bounds are configuration with default 1; they gate nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObservationMatrix:
    """N stacked embedded observations with mask metadata.

    values holds 0 at every masked-out cell and +-1/2 at observed cells;
    mask is True where observed.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2 or values.shape != mask.shape:
            raise ValueError("values and mask must be 2-d arrays of equal shape")
        if not np.all(values[~mask] == 0.0):
            raise ValueError("masked-out cells must hold exactly 0")
        if not np.all(np.abs(values[mask]) == 0.5):
            raise ValueError("observed cells must hold exactly +1/2 or -1/2")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_dense(cls, values) -> "ObservationMatrix":
        """Build from an array using NaN as the MISSING marker."""
        values = np.asarray(values, dtype=float)
        mask = ~np.isnan(values)
        return cls(np.where(mask, values, 0.0), mask)

    @classmethod
    def from_samples(cls, batch) -> "ObservationMatrix":
        """Build from a SampleBatch, whose values mark MISSING with NaN."""
        return cls.from_dense(batch.values)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: Y = U @ diag(singular_values) @ Vt, values nonincreasing."""

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
    """Denoised, rescaled estimate with the thresholding bookkeeping."""

    m_hat: np.ndarray
    kept_rank: int
    threshold_used: float
    p_hat: float


@dataclass(frozen=True)
class ConcentrationConstants:
    """Unspecified absolute constant in the concentration bounds.

    C scales the Delta bound. It defaults to 1 and is diagnostics-only:
    nothing in the algorithm branches on it.
    """

    C: float = 1.0


DEFAULT_CONSTANTS = ConcentrationConstants()


def _as_matrix(y) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept an ObservationMatrix or a plain fully observed array."""
    if isinstance(y, ObservationMatrix):
        return y.values, y.mask
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return arr, None


def estimate_p_hat(obs: ObservationMatrix) -> float:
    """Observed fraction, floored at 1/(N*d) so rescaling never divides by 0."""
    total = obs.values.size
    observed = int(np.count_nonzero(obs.mask))
    return max(observed, 1) / total


def compute_svd(y) -> SvdResult:
    """Deterministic thin SVD of an observation matrix (or plain array)."""
    values, _ = _as_matrix(y)
    try:
        u, s, vt = np.linalg.svd(values, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical failure path
        raise np.linalg.LinAlgError(
            f"SVD failed on a {values.shape} matrix "
            f"(finite: {np.isfinite(values).all()}): {exc}"
        ) from exc
    return SvdResult(s, u, vt)


def hsvt(y, threshold: float, svd: SvdResult | None = None, p_hat: float | None = None) -> HsvtEstimate:
    """Hard singular value thresholding at t1, rescaled by 1/p_hat.

    Keeps the components with sigma_j strictly above the threshold. A plain
    array input is treated as fully observed (p_hat = 1 unless given).
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    values, mask_arr = _as_matrix(y)
    if p_hat is None:
        if mask_arr is None:
            p_hat = 1.0
        else:
            p_hat = estimate_p_hat(y)
    if svd is None:
        svd = compute_svd(values)
    s = svd.singular_values
    kept = s > threshold
    kept_rank = int(np.count_nonzero(kept))
    if kept_rank == 0:
        m_hat = np.zeros_like(values)
    else:
        m_hat = (svd.U[:, kept] * s[kept]) @ svd.Vt[kept] / p_hat
    return HsvtEstimate(m_hat, kept_rank, float(threshold), float(p_hat))


def hsvt_projector(svd: SvdResult, threshold: float):
    """Row-space projector induced by thresholding: w -> sum_kept <w, v_j> v_j.

    Applying it to row i of Y reproduces row i of the (unrescaled)
    thresholded matrix; it is a linear contraction.
    """
    kept = svd.singular_values > threshold
    vk = svd.Vt[kept]

    def project(w: np.ndarray) -> np.ndarray:
        return vk.T @ (vk @ np.asarray(w, dtype=float))

    return project


def select_threshold(svd: SvdResult, target_rank: int | None = None) -> float:
    """Pick t1 from the spectrum.

    With a target rank r the threshold is the midpoint (sigma_r +
    sigma_{r+1})/2, taking sigma beyond the spectrum as 0, so exactly r
    components survive. Without one, r is chosen as the largest relative gap
    sigma_j/sigma_{j+1} over j <= ceil(sqrt(min(N, d))) -- the cap keeps
    noise-floor ratios out of the search -- and the same midpoint applies.
    """
    s = svd.singular_values
    m = s.size
    if m < 2:
        raise ValueError("need at least 2 singular values to place a threshold")
    if target_rank is not None:
        r = int(target_rank)
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
    constants: ConcentrationConstants = DEFAULT_CONSTANTS,
) -> float:
    """Bound on the spectral noise level ||Y - pM||_2:

    Delta = C * ((sqrt(p) + p tau*) sqrt(N) + (tau* + K(p)) (n + sqrt(n) N^(1/4)))
    """
    if N < 1 or n < 1 or tau_star < 0:
        raise ValueError("N, n must be positive and tau_star nonnegative")
    return constants.C * (
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
    constants: ConcentrationConstants = DEFAULT_CONSTANTS,
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
    delta = delta_bound(obs.N, n, p, tau_star, constants)
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
