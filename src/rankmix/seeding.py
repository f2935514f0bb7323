"""Deterministic randomness keyed by (master seed, purpose tag, ...).

One integer master seed governs a whole run. Every independent consumer of
randomness that is not a row (a direction draw, label draws, Poisson sizes,
an experiment cell's seed) derives its own generator or seed from
(master, *path) so that any part of a run can be reproduced in isolation.

Row randomness has one source: ``_keyed_words`` addresses a row's raw
words by (seed, tag, row id) as Philox4x64-10 counters, with no per-row
generator, so a row can be regenerated alone and row order never bleeds
into row randomness. ``_keyed_uniforms`` is their float view.
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

_WORD = 2**64 - 1


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


def _keyed_words(seed: int, tag: int, row_ids, width: int) -> np.ndarray:
    """(len(row_ids), width) raw Philox4x64-10 words (uint64), row r a
    function of (seed, tag, row_ids[r]) alone.

    The key is ``SeedSequence([seed, tag]).generate_state(2, uint64)``. With
    q = ceil(width / 4), row id i owns the counters i*q + 1 .. i*q + q; their
    4q raw words, first ``width`` kept, are the row's. One Philox serves the
    call: its counter is set at the start of each run of consecutive sorted
    ids, and the run is one ``random_raw`` call. The stream depends only on
    the bit generator, whose output NumPy keeps stable (NEP 19).
    """
    key = np.random.SeedSequence([_seed(seed), tag]).generate_state(2, np.uint64)
    q = -(-width // 4)
    ids = np.asarray(row_ids, dtype=np.int64)
    if ids.size == 0:
        return np.empty((0, width), dtype=np.uint64)
    order = np.argsort(ids)
    sorted_ids = ids[order]
    # a run starts wherever an id does not follow its predecessor; ids are
    # non-negative, so the prepended -2 never continues a run
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-2) != 1)
    # one generator per call: constructing one costs an OS-entropy SeedSequence it never uses
    philox = np.random.Philox(key=key)
    state = philox.state  # buffer_pos 4: after each set, the next draw starts a fresh block
    runs = []
    for start, stop in zip(starts, np.append(starts[1:], ids.size)):
        counter = int(sorted_ids[start]) * q
        state["state"]["counter"] = np.array([(counter >> s) & _WORD for s in (0, 64, 128, 192)], dtype=np.uint64)
        philox.state = state
        runs.append(philox.random_raw((stop - start, 4 * q)))
    raw = runs[0] if len(runs) == 1 else np.concatenate(runs)
    del runs  # before the reordering copy, so at most two (N, 4q) arrays live at once
    words = raw[:, :width]
    if (order == np.arange(ids.size)).all():  # ids given in increasing order: no reordering copy
        return words
    return words[np.argsort(order)]


def _keyed_uniforms(seed: int, tag: int, row_ids, width: int) -> np.ndarray:
    """(len(row_ids), width) uniforms strictly inside (0, 1): the float view
    of ``_keyed_words``, each raw word x mapped to ((x >> 12) + 0.5) * 2**-52.

    That is exact in float64 and inside [2**-53, 1 - 2**-53]. (53 bits plus
    0.5 would need 54 bits of mantissa, and the top word would round to
    exactly 1.) A test ``uniform < p`` can be made on the words alone; see
    ``generators.mask``.
    """
    words = _keyed_words(seed, tag, row_ids, width)
    words >>= np.uint64(12)
    uniforms = words.astype(float)
    uniforms += 0.5
    uniforms *= 2.0**-52
    return uniforms
