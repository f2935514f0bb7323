"""Single-linkage clustering of denoised rows.

Clusters are the connected components of the graph with an edge between rows
i and j whenever ||row_i - row_j||_2 <= t2. We compute them by building one
minimum spanning tree (Prim, dense, O(N^2)) and cutting every edge above t2
-- the two constructions give identical partitions. When no t2 is given, the
same tree's sorted edge weights choose it: the midpoint of the largest
consecutive gap, with a guard that falls back to a single cluster when no gap
stands out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fallback returns max MST weight scaled just past 1 so every edge survives
_FALLBACK_MARGIN = 1e-9
# a gap must beat this ratio (upper/lower weight) to count as a cluster split
_GAP_RATIO = 1.5


@dataclass(frozen=True)
class ClusteringResult:
    """Labels plus the thresholding diagnostics that produced them."""

    k_hat: int
    labels: np.ndarray
    threshold_used: float
    mst_edge_weights: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        weights = np.asarray(self.mst_edge_weights, dtype=float)
        labels.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mst_edge_weights", weights)


def _mst_edges(rows: np.ndarray):
    """Prim's algorithm over the complete Euclidean graph.

    Distance rows are computed on demand, so memory stays O(N) on top of the
    input. Returns (u, v, w) arrays of the N-1 tree edges in insertion order;
    each u joined the tree before its v.
    """
    N = rows.shape[0]
    in_tree = np.zeros(N, dtype=bool)
    in_tree[0] = True
    best_dist = np.sqrt(((rows - rows[0]) ** 2).sum(axis=1))
    best_from = np.zeros(N, dtype=np.intp)
    best_dist[0] = np.inf
    us = np.empty(N - 1, dtype=np.intp)
    vs = np.empty(N - 1, dtype=np.intp)
    ws = np.empty(N - 1, dtype=float)
    for k in range(N - 1):
        j = int(np.argmin(best_dist))
        us[k] = best_from[j]
        vs[k] = j
        ws[k] = best_dist[j]
        in_tree[j] = True
        best_dist[j] = np.inf
        dj = np.sqrt(((rows - rows[j]) ** 2).sum(axis=1))
        closer = (dj < best_dist) & ~in_tree
        best_dist[closer] = dj[closer]
        best_from[closer] = j
    return us, vs, ws


def _gap_threshold(w: np.ndarray) -> float:
    """Midpoint of the largest gap in the sorted MST weights w.

    A split is only trusted when the weights across the chosen gap differ by
    at least _GAP_RATIO; otherwise (including all-equal weights) the spacing
    looks like a single cluster and the returned threshold exceeds every MST
    edge.
    """
    w_max = float(w[-1])
    fallback = w_max * (1.0 + _FALLBACK_MARGIN) + _FALLBACK_MARGIN
    if w.size == 1:
        return fallback
    g = int(np.argmax(np.diff(w)))
    lo, hi = float(w[g]), float(w[g + 1])
    if hi <= 0.0:
        return fallback
    ratio = np.inf if lo == 0.0 else hi / lo
    if ratio < _GAP_RATIO:
        return fallback
    return (lo + hi) / 2.0


def single_linkage(rows, t2: float | None = None) -> ClusteringResult:
    """Cluster rows into components connected by edges of length <= t2.

    With t2 None the threshold is chosen from the MST's weight gaps (this
    needs at least 2 rows). Labels are assigned by order of first row
    appearance: row 0 always gets label 0, and a new label opens each time a
    row starts an unseen component.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("rows must be a nonempty 2-d matrix")
    if not np.isfinite(rows).all():
        raise ValueError("rows must be finite (found NaN or inf)")
    if t2 is not None and not t2 >= 0:
        raise ValueError(f"t2 must be nonnegative, got {t2}")
    N = rows.shape[0]
    if N == 1:
        if t2 is None:
            raise ValueError("need at least 2 rows to choose a threshold")
        return ClusteringResult(1, np.zeros(1, dtype=int), float(t2), np.empty(0))

    us, vs, ws = _mst_edges(rows)
    w = np.sort(ws)
    if t2 is None:
        t2 = _gap_threshold(w)
    # Prim order: u is already labelled when v joins, so one pass suffices
    comp = np.zeros(N, dtype=np.intp)
    for k, (u, v, keep) in enumerate(zip(us.tolist(), vs.tolist(), (ws <= t2).tolist())):
        comp[v] = comp[u] if keep else k + 1
    _, first, inverse = np.unique(comp, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[inverse]
    return ClusteringResult(first.size, labels, float(t2), w)
