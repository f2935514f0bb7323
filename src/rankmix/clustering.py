"""Single-linkage clustering of denoised rows.

Clusters are the connected components of the graph with an edge between rows
i and j whenever ||row_i - row_j||_2 <= t2. We compute them by building one
minimum spanning tree (Prim, dense, O(N^2) distances; each step scans only
the rows not yet in the tree) and cutting every edge above t2 -- the two
constructions give identical partitions. When no t2 is given, the
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
# Prim's scratch buffer: small enough to stay in cache and to bound the extra
# memory at one copy of the input rows
_CHUNK_BYTES = 1 << 20


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

    Rows not yet in the tree stay compacted in one copy of the input (the
    row that joins is swap-removed), so step k computes only the N-1-k
    distances it needs, with a full scan's arithmetic, through a scratch
    buffer of at most _CHUNK_BYTES. Returns (u, v, w) arrays of the N-1 tree
    edges in insertion order; each u joined the tree before its v. Tied
    distances may join in another order than a full scan's, but the multiset
    of MST weights is the same.
    """
    N, d = rows.shape
    rest = np.arange(1, N)  # original index of each out-of-tree row
    pts = rows[1:].copy()  # those rows, in the same order
    step = max(1, _CHUNK_BYTES // (8 * max(d, 1)))
    buf = np.empty((min(step, N - 1), d))

    def dist_to(row: np.ndarray, m: int) -> np.ndarray:
        out = np.empty(m)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            diff = buf[: hi - lo]
            np.subtract(pts[lo:hi], row, out=diff)
            np.square(diff, out=diff)
            np.sqrt(diff.sum(axis=1), out=out[lo:hi])
        return out

    best_dist = dist_to(rows[0], N - 1)
    best_from = np.zeros(N - 1, dtype=np.intp)
    us = np.empty(N - 1, dtype=np.intp)
    vs = np.empty(N - 1, dtype=np.intp)
    ws = np.empty(N - 1, dtype=float)
    for k in range(N - 1):
        m = N - 2 - k  # out-of-tree rows left after this step
        i = int(np.argmin(best_dist[: m + 1]))
        j = int(rest[i])
        us[k] = best_from[i]
        vs[k] = j
        ws[k] = best_dist[i]
        row_j = pts[i].copy()
        # swap-remove row i: the last out-of-tree row takes its slot
        pts[i] = pts[m]
        rest[i], best_dist[i], best_from[i] = rest[m], best_dist[m], best_from[m]
        dj = dist_to(row_j, m)
        closer = dj < best_dist[:m]
        best_dist[:m][closer] = dj[closer]
        best_from[:m][closer] = j
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
