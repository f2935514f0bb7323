"""Scoring clusterings and probing separation / dispersion diagnostics.

Risk is the minimum disagreement fraction over injective matchings between
predicted and true label sets, found by one rectangular assignment
(scipy's linear_sum_assignment) on the matrix of agreement counts. The
separation side provides the minimum pairwise distance gamma between
component means and an empirical sub-Gaussian dispersion estimate tau_hat.

tau_hat maximizes the empirical psi2 norm of <u, X - mean> over candidate
directions u. Random unit directions alone concentrate on the typical
directional dispersion, which stays O(1) as n grows, and would miss the
sqrt(n) growth carried by aggregate statistics; the candidate set therefore
always includes the normalized all-ones direction, whose projection counts
pairwise disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect
from scipy.optimize import linear_sum_assignment

from .generators import ComponentSpec, MixtureSpec, sample_mixture
from .seeding import TAG_DIRECTIONS, substream

@dataclass(frozen=True)
class EvaluationReport:
    """Risk of one pipeline run and the label matching that attains it."""

    risk: float
    matching: tuple[tuple[int, int], ...]


def misclassification_rate(predicted, truth):
    """Minimum disagreement fraction over injective label matchings.

    Returns (risk, matching) with matching a tuple of (predicted_label,
    true_label) pairs covering the smaller label set, sorted by predicted
    label. One rectangular assignment on the agreement counts finds the best
    matching exactly; where several matchings tie, the solver's deterministic
    optimum is returned, which need not be the lexicographically smallest.
    """
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.shape != truth.shape:
        raise ValueError(
            f"label arrays differ in length: {predicted.shape[0]} vs {truth.shape[0]}"
        )
    if predicted.size == 0:
        raise ValueError("need at least one label")
    pred_labels, p = np.unique(predicted, return_inverse=True)
    true_labels, t = np.unique(truth, return_inverse=True)
    agree = np.zeros((pred_labels.size, true_labels.size), dtype=np.int64)
    np.add.at(agree, (p, t), 1)
    rows, cols = linear_sum_assignment(agree, maximize=True)
    pairs = tuple((pred_labels[i].item(), true_labels[j].item()) for i, j in zip(rows, cols))
    return 1.0 - int(agree[rows, cols].sum()) / predicted.size, pairs


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


def psi2_norm(samples) -> float:
    """Empirical psi2 norm: smallest t with mean(exp(x^2/t^2)) <= 2.

    Solved to relative tolerance 1e-6 by bisection on a bracket whose low
    end makes the largest term exp(700) — big enough to force a sign change
    without overflowing — and whose high end caps every term at exp(0.01).
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

    return float(bisect(excess, xmax / math.sqrt(700.0), 10.0 * xmax, rtol=1e-6))


def empirical_tau(
    spec: ComponentSpec,
    num_samples: int,
    num_directions: int = 32,
    rng_seed: int = 0,
) -> float:
    """Empirical sub-Gaussian dispersion of one component's embedding.

    Draws num_samples rows of spec as a one-component mixture
    (``sample_mixture``, which refuses a non-integer count), centers them,
    and returns the max empirical psi2 norm of the projections onto
    num_directions random unit directions (the (rng_seed, directions-tag)
    substream) plus the normalized all-ones direction.
    """
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    if num_directions < 1:
        raise ValueError("num_directions must be at least 1")
    x = sample_mixture(MixtureSpec([spec], [1.0]), num_samples, rng_seed).values
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
