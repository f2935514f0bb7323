"""Deterministic RNG substreams.

One integer master seed governs a whole run. Every independent consumer of
randomness (a sample row, a mask row, a direction draw, an experiment cell)
derives its own generator from (master, *path) so that any part of a run can
be reproduced in isolation and row order never bleeds into row randomness.
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
