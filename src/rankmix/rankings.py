"""Permutations, the pairwise-marginal embedding, and Kendall-tau geometry.

A ranking of n items is stored as an order array (``order[r]`` = item at rank
r, rank 0 most preferred). The embedding maps a ranking to a plain float
vector indexed by item pairs (a, b), a < b, in lexicographic order, with
coordinate +1/2 iff a precedes b and -1/2 otherwise. Under this +-1/2
scaling, squared Euclidean distance between two embedded rankings counts
exactly the pairs on which they disagree, i.e. equals their Kendall tau
distance. (The same statement under a +-1 scaling would carry a factor of
1/4.)

Once rows are masked, NaN marks a missing coordinate; only fully observed
vectors have a well-defined distance here. Permutations are immutable after
construction and all functions are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Permutation:
    """A total ordering of n items with O(1) rank lookup.

    order[r] is the item at rank r; position[item] is the rank of an item.
    Entries must be integer values (integral floats and bools included).
    """

    order: np.ndarray
    position: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = np.asarray(self.order)
        if order.ndim != 1 or order.size == 0:
            raise ValueError("order must be a non-empty 1-d array of items")
        order = _integer_values(order, "order entries")
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


def _integer_values(values, what: str) -> np.ndarray:
    """values as an int64 array; raises unless every entry is an integer value.

    Integral floats and bools pass. The check comes before the cast, which
    would truncate 1.7 and warn on NaN.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        real = values.astype(float)
        if not np.all(np.isfinite(real) & (real == np.trunc(real))):
            raise ValueError(f"{what} must be integer values")
    return values.astype(np.int64)


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


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the d = n(n-1)/2 pairs in lexicographic order:
    pair k is (first[k], second[k])."""
    if n < 2:
        raise ValueError("need at least two items to form a pair")
    first, second = np.triu_indices(n, k=1)  # lexicographic order
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def embed_positions(position) -> np.ndarray:
    """Embed rows of item ranks (position[..., item] = rank) in bulk.

    Coordinate (a, b) of a row is +1/2 iff a precedes b in that row.
    """
    position = np.asarray(position)
    first, second = _pairs(position.shape[-1])
    return np.where(position[..., first] < position[..., second], 0.5, -0.5)


def embed(perm: Permutation) -> np.ndarray:
    """Embed a permutation as a read-only (d,) float array.

    Coordinate (a, b) is +1/2 iff a precedes b.
    """
    values = embed_positions(perm.position)
    values.setflags(write=False)
    return values


def kendall_tau(p1: Permutation, p2: Permutation) -> int:
    """Number of item pairs on which two permutations disagree."""
    if p1.n != p2.n:
        raise ValueError(f"item counts differ: {p1.n} vs {p2.n}")
    return int(np.count_nonzero(embed_positions(p1.position) != embed_positions(p2.position)))


def embedding_distance_sq(e1, e2) -> float:
    """Squared Euclidean distance between two fully observed embeddings.

    Both must be 1-d, of equal length, and every entry exactly +-1/2 (NaN,
    a missing coordinate, fails). The distance then equals the Kendall tau
    distance of the underlying permutations exactly: each disagreeing pair
    contributes (+-1)^2 = 1.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.ndim != 1 or e1.shape != e2.shape:
        raise ValueError(f"need two 1-d embeddings of equal length, got shapes {e1.shape}, {e2.shape}")
    if not (np.all(np.abs(e1) == 0.5) and np.all(np.abs(e2) == 0.5)):
        raise ValueError("distance needs fully observed embeddings with every entry exactly +1/2 or -1/2")
    diff = e1 - e2
    return float(np.dot(diff, diff))
