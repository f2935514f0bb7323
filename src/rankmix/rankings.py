"""Permutations, the pairwise-marginal embedding, and Kendall-tau geometry.

A ranking of n items is stored as an order array (``order[r]`` = item at rank
r, rank 0 most preferred). The embedding maps a ranking to a vector indexed by
item pairs (a, b), a < b, in lexicographic order, with coordinate +1/2 iff a
precedes b and -1/2 otherwise. Under this +-1/2 scaling, squared Euclidean
distance between two embedded rankings counts exactly the pairs on which they
disagree, i.e. equals their Kendall tau distance. (The same statement under a
+-1 scaling would carry a factor of 1/4.)

Coordinates may also be MISSING (stored as NaN) once an observation has been
partially masked; only fully observed vectors have a well-defined distance
here. All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: In-band marker for an unobserved coordinate.
MISSING = np.nan


def is_missing(values) -> np.ndarray:
    """Boolean mask of MISSING entries in an array of embedding coordinates."""
    return np.isnan(np.asarray(values, dtype=float))


@dataclass(frozen=True)
class Permutation:
    """A total ordering of n items with O(1) rank lookup.

    order[r] is the item at rank r; position[item] is the rank of an item.
    """

    order: np.ndarray
    position: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        if order.ndim != 1 or order.size == 0:
            raise ValueError("order must be a non-empty 1-d array of items")
        n = order.size
        seen = np.zeros(n, dtype=bool)
        if order.min(initial=0) < 0 or order.max(initial=0) >= n:
            raise ValueError(f"order entries must lie in [0, {n})")
        seen[order] = True
        if not seen.all():
            raise ValueError("order must be a bijection on {0,...,n-1}")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        order.setflags(write=False)
        position.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "position", position)

    @property
    def n(self) -> int:
        return int(self.order.size)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.order, other.order)

    def __hash__(self):
        return hash(self.order.tobytes())


class PairIndexer:
    """Lexicographic indexing of item pairs (a, b), a < b, for a fixed n.

    Pair k of the d = n(n-1)/2 pairs is (first[k], second[k]); see
    pair_index and pair_of for the scalar maps.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two items to form a pair")
        self.n = int(n)
        self.d = self.n * (self.n - 1) // 2
        first, second = np.triu_indices(self.n, k=1)  # lexicographic order
        first.setflags(write=False)
        second.setflags(write=False)
        self.first = first
        self.second = second


def pair_index(a: int, b: int, n: int) -> int:
    """Lexicographic rank of the pair (a, b), a < b, among all pairs from n items."""
    if not (0 <= a < b < n):
        raise ValueError(f"need 0 <= a < b < n, got a={a}, b={b}, n={n}")
    # pairs with first coordinate < a come first, then (a, a+1) ... (a, b)
    return a * n - a * (a + 1) // 2 + (b - a - 1)


def pair_of(k: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index: the k-th pair in lexicographic order."""
    d = n * (n - 1) // 2
    if not (0 <= k < d):
        raise ValueError(f"pair index {k} out of range [0, {d})")
    a = 0
    # row a holds n-1-a pairs; walk rows until k falls inside one
    while k >= n - 1 - a:
        k -= n - 1 - a
        a += 1
    return a, a + 1 + k


@dataclass(frozen=True)
class EmbeddedObservation:
    """A length-d vector over {-1/2, +1/2, MISSING} for d = n(n-1)/2 pairs."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        n = int(self.n)
        d = n * (n - 1) // 2
        if values.ndim != 1 or values.size != d:
            raise ValueError(f"expected {d} coordinates for n={n}, got shape {values.shape}")
        observed = ~np.isnan(values)
        if not np.all(np.abs(values[observed]) == 0.5):
            raise ValueError("every observed coordinate must be exactly +1/2 or -1/2")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)


def embed_positions(position) -> np.ndarray:
    """Embed rows of item ranks (position[..., item] = rank) in bulk.

    Coordinate (a, b) of a row is +1/2 iff a precedes b in that row.
    """
    position = np.asarray(position)
    idx = _indexer(position.shape[-1])
    return np.where(position[..., idx.first] < position[..., idx.second], 0.5, -0.5)


def embed(perm: Permutation) -> EmbeddedObservation:
    """Embed a permutation: coordinate (a, b) is +1/2 iff a precedes b."""
    return EmbeddedObservation(embed_positions(perm.position), perm.n)


def kendall_tau(p1: Permutation, p2: Permutation) -> int:
    """Number of item pairs on which two permutations disagree."""
    if p1.n != p2.n:
        raise ValueError(f"item counts differ: {p1.n} vs {p2.n}")
    return int(np.count_nonzero(embed_positions(p1.position) != embed_positions(p2.position)))


def embedding_distance_sq(e1: EmbeddedObservation, e2: EmbeddedObservation) -> float:
    """Squared Euclidean distance between two fully observed embeddings.

    Equals the Kendall tau distance of the underlying permutations exactly:
    each disagreeing pair contributes (+-1)^2 = 1.
    """
    if e1.n != e2.n:
        raise ValueError(f"item counts differ: {e1.n} vs {e2.n}")
    if np.isnan(e1.values).any() or np.isnan(e2.values).any():
        raise ValueError("distance is undefined on vectors with MISSING coordinates")
    diff = e1.values - e2.values
    return float(np.dot(diff, diff))


_INDEXER_CACHE: dict[int, PairIndexer] = {}


def _indexer(n: int) -> PairIndexer:
    indexer = _INDEXER_CACHE.get(n)
    if indexer is None:
        indexer = _INDEXER_CACHE[n] = PairIndexer(n)
    return indexer
