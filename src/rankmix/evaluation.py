"""Scoring clusterings and probing separation / dispersion diagnostics.

Risk is the minimum disagreement fraction over injective matchings between
predicted and true label sets — exhaustive search for small label counts,
assignment solver on the agreement matrix otherwise. The separation side
provides the minimum pairwise distance between component means, closed-form
lower bounds for it under the two parametric families (natural log
throughout; the values can be negative and are returned as-is), and an
empirical sub-Gaussian dispersion estimate tau_hat.

tau_hat maximizes the empirical psi2 norm of <u, X - mean> over candidate
directions u. Random unit directions alone concentrate on the typical
directional dispersion, which stays O(1) as n grows, and would miss the
sqrt(n) growth carried by aggregate statistics; the candidate set therefore
always includes the normalized all-ones direction, whose projection counts
pairwise disagreements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr

from .generators import ComponentSpec, sample_embedded_batch
from .seeding import TAG_DIRECTIONS, TAG_SAMPLE, substream

# exhaustive matching is exact and lexicographically tie-broken; beyond this
# many labels the assignment solver takes over
EXHAUSTIVE_MAX_LABELS = 6


@dataclass(frozen=True)
class EvaluationReport:
    """Risk plus the separation diagnostic of one pipeline run."""

    risk: float
    matching: tuple[tuple[int, int], ...]
    gamma: float | None = None


@dataclass(frozen=True)
class CorollaryReport:
    """Does the observation probability clear the sufficiency threshold?"""

    condition_value: float
    p: float
    satisfied: bool
    satisfiable: bool
    comparison_count: float


def _agreement_counts(predicted, truth):
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.shape != truth.shape:
        raise ValueError(
            f"label arrays differ in length: {predicted.shape[0]} vs {truth.shape[0]}"
        )
    if predicted.size == 0:
        raise ValueError("need at least one label")
    pred_labels = sorted(set(predicted.tolist()))
    true_labels = sorted(set(truth.tolist()))
    agree = {(p, t): 0 for p in pred_labels for t in true_labels}
    for p, t in zip(predicted.tolist(), truth.tolist()):
        agree[(p, t)] += 1
    return predicted.size, pred_labels, true_labels, agree


def _best_matching_exhaustive(pred_labels, true_labels, agree):
    """Max-agreement injective matching; first (lexicographic) winner kept."""
    best_total = -1
    best_pairs = None
    if len(pred_labels) <= len(true_labels):
        for image in itertools.permutations(true_labels, len(pred_labels)):
            total = sum(agree[(p, image[i])] for i, p in enumerate(pred_labels))
            if total > best_total:
                best_total = total
                best_pairs = tuple(zip(pred_labels, image))
    else:
        for image in itertools.permutations(pred_labels, len(true_labels)):
            total = sum(agree[(image[i], t)] for i, t in enumerate(true_labels))
            if total > best_total:
                best_total = total
                best_pairs = tuple(sorted(zip(image, true_labels)))
    return best_total, best_pairs


def _best_matching_assignment(pred_labels, true_labels, agree):
    a = np.array([[agree[(p, t)] for t in true_labels] for p in pred_labels], dtype=float)
    rows, cols = linear_sum_assignment(-a)
    total = int(a[rows, cols].sum())
    pairs = tuple(sorted((pred_labels[i], true_labels[j]) for i, j in zip(rows, cols)))
    return total, pairs


def misclassification_rate(predicted, truth, method: str = "auto"):
    """Minimum disagreement fraction over injective label matchings.

    Returns (risk, matching) with matching a tuple of (predicted_label,
    true_label) pairs covering the smaller label set, sorted by predicted
    label. method picks the solver: "exhaustive" enumerates injections (and
    breaks ties toward the lexicographically smallest matching),
    "assignment" solves the agreement matrix, "auto" switches on label
    count. Both solvers achieve the same risk.
    """
    N, pred_labels, true_labels, agree = _agreement_counts(predicted, truth)
    if method == "auto":
        method = (
            "exhaustive"
            if max(len(pred_labels), len(true_labels)) <= EXHAUSTIVE_MAX_LABELS
            else "assignment"
        )
    if method == "exhaustive":
        total, pairs = _best_matching_exhaustive(pred_labels, true_labels, agree)
    elif method == "assignment":
        total, pairs = _best_matching_assignment(pred_labels, true_labels, agree)
    else:
        raise ValueError(f"unknown method {method!r}")
    return 1.0 - total / N, pairs


def separation_gamma(means) -> float:
    """Minimum pairwise Euclidean distance between component means."""
    means = [np.asarray(m, dtype=float) for m in means]
    if len(means) < 2:
        raise ValueError("need at least 2 means")
    return min(
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(len(means))
        for j in range(i + 1, len(means))
    )


def gamma_lower_bound_mnl(n: int, rho: float, beta: float) -> float:
    """Separation guaranteed for mnl components whose consecutive utility
    gaps are at least rho, noise scale beta. Can be negative (vacuous)."""
    if n < 2 or beta <= 0 or rho < 0:
        raise ValueError("need n >= 2, beta > 0, rho >= 0")
    e = math.exp(-rho / beta)
    return math.sqrt(n * (n - 1)) / 2.0 * (1.0 - e) / (1.0 + e) - 4.0 * math.sqrt(
        n * math.log(n)
    )


def gamma_lower_bound_gaussian(n: int, sigma: float) -> float:
    """Separation guaranteed for gaussian components with hypercube
    utilities, noise scale sigma. Can be negative (vacuous)."""
    if n < 2 or sigma <= 0:
        raise ValueError("need n >= 2, sigma > 0")
    phi = float(ndtr(1.0 / (sigma * math.sqrt(2.0))))
    return math.sqrt(n * (n - 1)) / math.sqrt(2.0) * (phi - 0.5) - 4.0 * math.sqrt(
        n * math.log(n)
    )


def psi2_norm(samples, rtol: float = 1e-6) -> float:
    """Empirical psi2 norm: smallest t with mean(exp(x^2/t^2)) <= 2.

    Solved by bisection on a bracket whose low end makes the largest term
    exp(700) — big enough to force a sign change without overflowing — and
    whose high end caps every term at exp(0.01).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("need at least one sample")
    xmax = float(np.abs(x).max())
    if xmax == 0.0:
        return 0.0

    def excess(t: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp((x / t) ** 2))) - 2.0

    return float(bisect(excess, xmax / math.sqrt(700.0), 10.0 * xmax, rtol=rtol))


def empirical_tau(
    spec: ComponentSpec,
    num_samples: int,
    num_directions: int = 32,
    rng_seed: int = 0,
) -> float:
    """Empirical sub-Gaussian dispersion of one component's embedding.

    Draws num_samples embedded rankings, centers them, and returns the max
    empirical psi2 norm of the projections onto num_directions random unit
    directions plus the normalized all-ones direction.
    """
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    if num_directions < 1:
        raise ValueError("num_directions must be at least 1")
    x = sample_embedded_batch(spec, num_samples, substream(rng_seed, TAG_SAMPLE))
    xc = x - x.mean(axis=0)
    d = x.shape[1]
    rng = substream(rng_seed, TAG_DIRECTIONS)
    directions = rng.normal(size=(num_directions, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    best = 0.0
    for u in np.vstack([directions, np.full((1, d), 1.0 / math.sqrt(d))]):
        proj = xc @ u
        if np.any(proj != 0.0):
            best = max(best, psi2_norm(proj))
    return best


def corollary_condition_check(
    n: int,
    N: int,
    p: float,
    r: int,
    gamma: float,
    tau_star: float,
    constant: float = 1.0,
) -> CorollaryReport:
    """Diagnostic: does p clear constant * tau* * sqrt(r) * log(n) / gamma?

    Also reports the implied total comparison count N * p * n(n-1)/2 and
    whether any p <= 1 could satisfy the condition at all.
    """
    if n < 2 or N < 1 or p <= 0 or r < 1 or gamma <= 0 or tau_star <= 0:
        raise ValueError("all corollary inputs must be positive")
    value = 0.0 if math.isinf(gamma) else constant * tau_star * math.sqrt(r) * math.log(n) / gamma
    return CorollaryReport(
        condition_value=value,
        p=float(p),
        satisfied=p > value,
        satisfiable=value < 1.0,
        comparison_count=n * (n - 1) / 2.0 * N * p,
    )
