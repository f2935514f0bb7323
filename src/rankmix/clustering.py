"""Single-linkage clustering of denoised rows.

Clusters are the connected components of the graph with an edge between rows
i and j whenever ||row_i - row_j||_2 <= t2. We compute them with scipy's
single linkage, which builds one minimum spanning tree over the condensed
pairwise distances (O(N^2) time; Müllner 2011), and cut every edge above t2
-- the two constructions give identical partitions (Gower & Ross 1969). The
condensed distances hold N(N-1)/2 float64 values: 4 MB at N = 1000, about
100 MB at N = 5000 and 1.6 GB at N = 20000. When no t2 is given, the same
tree's sorted edge weights choose it: the midpoint of the largest
consecutive gap, with a guard that falls back to a single cluster when no gap
stands out.

The cut reads the tree's merge list directly. Single-linkage merge heights
are the MST weights in nondecreasing order, so the merges at or below t2 are
a prefix of the list, and the nodes that prefix joins are exactly the
components of the MST's edges <= t2, which are the components of the t2
graph above. Each row's cluster is the root it reaches through the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from .rankings import _own

# fallback returns max MST weight scaled just past 1 so every edge survives
_FALLBACK_MARGIN = 1e-9
# a gap must beat this ratio (upper/lower weight) to count as a cluster split
_GAP_RATIO = 1.5
_TIE = 32 * np.finfo(float).eps  # gaps this close to the largest, per unit weight, are tied


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Labels plus the thresholding diagnostics that produced them, which the
    result holds read-only: the constructor's are copies of the caller's
    arrays, which stay writable; single_linkage's are its own, uncopied."""

    k_hat: int
    labels: np.ndarray
    threshold_used: float
    mst_edge_weights: np.ndarray

    def __post_init__(self):
        labels, weights = np.array(self.labels, dtype=int), np.array(self.mst_edge_weights, dtype=float)
        _own(self, labels=labels, mst_edge_weights=weights)


def _gap_threshold(w: np.ndarray) -> float:
    """Midpoint of the largest gap in the sorted MST weights w.

    Gaps within _TIE * w_max of the largest are tied and the first wins, so
    rounding does not pick between equal gaps: with the rows taken as exact,
    a distance over c coordinates is within (c/2 + 2) eps relative, so two
    equal gaps differ by at most (2c + 10) eps w_max once computed. _TIE is
    that bound at c = 11; the kept ranks (c of the pipeline's coordinates)
    in the default experiments and the benchmark workloads are at most 5.

    A split is only trusted when the weights across the chosen gap differ by
    at least _GAP_RATIO; otherwise (including all-equal weights) the spacing
    looks like a single cluster and the returned threshold exceeds every MST
    edge.
    """
    w_max = float(w[-1])
    fallback = w_max * (1.0 + _FALLBACK_MARGIN) + _FALLBACK_MARGIN
    if w.size == 1:
        return fallback
    gaps = np.diff(w)
    g = int(np.argmax(gaps >= gaps.max() - _TIE * w_max))
    lo, hi = float(w[g]), float(w[g + 1])
    if hi <= 0.0:
        return fallback
    ratio = np.inf if lo == 0.0 else hi / lo
    if ratio < _GAP_RATIO:
        return fallback
    return (lo + hi) / 2.0


def single_linkage(rows, t2: float | None = None) -> ClusteringResult:
    """Cluster rows into components connected by edges of length <= t2.

    One pdist and one single-linkage tree, cut at t2 by keeping the prefix of
    merges with height <= t2 (see the module docstring); memory is the
    N(N-1)/2 condensed distances. With t2 None the threshold is chosen from
    the MST's weight gaps (this needs at least 2 rows). Labels are assigned
    by order of first row appearance: row 0 always gets label 0, and a new
    label opens each time a row starts an unseen component.
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

    # condensed distances: linkage would warn on a square, symmetric block of rows
    distances = pdist(rows)
    if not np.isfinite(distances).all():
        raise ValueError("pairwise distances of these finite rows overflow float64 (rows too large in scale)")
    tree = linkage(distances, method="single")
    w = tree[:, 2]  # merge heights are the sorted MST weights
    if t2 is None:
        t2 = _gap_threshold(w)
    # node N + m is merge m's cluster; pointer jumping takes every row to the
    # root it reaches through the merges at or below t2
    kept = int(np.searchsorted(w, t2, side="right"))
    parent = np.arange(2 * N - 1)
    parent[tree[:kept, :2].astype(np.intp)] = np.arange(N, N + kept)[:, None]
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    root = parent[:N]
    # a row opens a cluster when it is its root's first row
    row = np.arange(N)
    first = np.full(2 * N - 1, N)
    np.minimum.at(first, root, row)
    first = first[root]
    opens = first == row
    labels = np.cumsum(opens)[first] - 1
    return _own(ClusteringResult, k_hat=int(np.count_nonzero(opens)), labels=labels, threshold_used=float(t2),
                mst_edge_weights=w)
