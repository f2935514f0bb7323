"""Deterministic randomness keyed by (master seed, purpose tag, ...).

One integer master seed governs a whole run. Every independent consumer of
randomness (a direction draw, an experiment cell, a block of sampled rows)
derives its own generator from (master, *path) so that any part of a run can
be reproduced in isolation.

Row randomness is counter-keyed instead: ``_keyed_uniforms`` addresses a
row's uniforms by (seed, tag, row id) through one Philox4x64-10 block per
run of consecutive row ids, with no per-row generator, so a row can be
regenerated alone and row order never bleeds into row randomness.
"""

from __future__ import annotations

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


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (master_seed, *path)."""
    entropy = [int(master_seed)] + [int(x) for x in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_seed(master_seed: int, *path: int) -> int:
    """A derived integer seed, for handing a whole sub-run its own master."""
    entropy = [int(master_seed)] + [int(x) for x in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _keyed_uniforms(seed: int, tag: int, row_ids, width: int) -> np.ndarray:
    """(len(row_ids), width) uniforms strictly inside (0, 1), row r a function
    of (seed, tag, row_ids[r]) alone.

    The Philox4x64-10 key is ``SeedSequence([seed, tag]).generate_state(2,
    uint64)``. With q = ceil(width / 4), row id i owns the counters
    i*q + 1 .. i*q + q; their 4q raw words, first ``width`` kept, are the
    row's. Each run of consecutive sorted ids is one ``random_raw`` call. A
    raw word x becomes ((x >> 12) + 0.5) * 2**-52: exact in float64 and
    inside [2**-53, 1 - 2**-53]. (53 bits plus 0.5 would need 54 bits of
    mantissa, and the top word would round to exactly 1.) The stream depends
    only on the bit generator, whose output NumPy keeps stable (NEP 19).
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = np.random.SeedSequence([seed, tag]).generate_state(2, np.uint64)
    q = -(-width // 4)
    ids = np.asarray(row_ids, dtype=np.int64)
    order = np.argsort(ids)
    sorted_ids = ids[order]
    # a run starts wherever an id does not follow its predecessor; ids are
    # non-negative, so the prepended -2 never continues a run
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-2) != 1)
    raw = np.empty((ids.size, 4 * q), dtype=np.uint64)
    for start, stop in zip(starts, np.append(starts[1:], ids.size)):
        philox = np.random.Philox(key=key, counter=int(sorted_ids[start]) * q)
        raw[start:stop] = philox.random_raw((stop - start, 4 * q))
    raw >>= np.uint64(12)
    uniforms = raw[:, :width].astype(float)
    del raw  # before the reordering copy, so at most two (N, width) arrays live at once
    uniforms += 0.5
    uniforms *= 2.0**-52
    return uniforms[np.argsort(order)]
