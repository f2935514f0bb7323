"""Deterministic randomness keyed by (master seed, purpose tag, ...).

One integer master seed governs a whole run. Every independent consumer of
randomness that is not a row (a direction draw, label draws, Poisson sizes,
an experiment cell's seed) derives its own generator or seed from
(master, *path) so that any part of a run can be reproduced in isolation.

Row randomness has one source: ``_keyed_words`` addresses a row's raw
words by (seed, tag, position) as Philox4x64-10 counters, with no per-row
generator, so a row can be regenerated alone and the first rows of a draw
do not depend on how many rows follow. ``_keyed_uniforms`` is their float
view.
"""

from __future__ import annotations

import operator

import numpy as np

# Registry of purpose tags appearing as the last path element. Keeping them in
# one place guarantees two different consumers never collide on the same path.
TAG_LABELS = 0
TAG_SAMPLE = 1
TAG_MASK = 2
TAG_DIRECTIONS = 3
TAG_UTILITIES = 4
TAG_SIZES = 5
TAG_TRIAL = 7


def _seed(value) -> int:
    """value as an int; anything but a non-negative integer (numpy integers
    pass), such as 1.5 or a Generator, is refused rather than cast."""
    try:
        seed = operator.index(value)
    except TypeError:
        seed = -1
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return seed


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (master_seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([_seed(x) for x in (master_seed, *path)]))


def child_seed(master_seed: int, *path: int) -> int:
    """A derived integer seed, for handing a whole sub-run its own master."""
    sequence = np.random.SeedSequence([_seed(x) for x in (master_seed, *path)])
    return int(sequence.generate_state(1, np.uint64)[0])


def _keyed_words(seed: int, tag: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) raw Philox4x64-10 words (uint64), row r a function of
    (seed, tag, r) alone.

    The key is ``SeedSequence([seed, tag]).generate_state(2, uint64)``. With
    q = ceil(width / 4), row r owns the counters r*q + 1 .. r*q + q; their
    4q raw words, first ``width`` kept, are the row's. A fresh Philox is at
    counter 0 and steps it before each block, so one ``random_raw`` call
    reads rows 0 .. rows - 1 in order, and the first rows do not depend on
    ``rows``. The stream depends only on the bit generator, whose output
    NumPy keeps stable (NEP 19).
    """
    key = np.random.SeedSequence([_seed(seed), tag]).generate_state(2, np.uint64)
    q = -(-width // 4)
    return np.random.Philox(key=key).random_raw((rows, 4 * q))[:, :width]


def _keyed_uniforms(seed: int, tag: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) uniforms strictly inside (0, 1): the float view
    of ``_keyed_words``, each raw word x mapped to ((x >> 12) + 0.5) * 2**-52.

    That is exact in float64 and inside [2**-53, 1 - 2**-53]. (53 bits plus
    0.5 would need 54 bits of mantissa, and the top word would round to
    exactly 1.) A test ``uniform < p`` can be made on the words alone; see
    ``generators.mask``.
    """
    words = _keyed_words(seed, tag, rows, width)
    words >>= np.uint64(12)
    uniforms = words.astype(float)
    uniforms += 0.5
    uniforms *= 2.0**-52
    return uniforms
