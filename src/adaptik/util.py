"""Deterministic random-stream derivation.

Every parallelizable unit of work owns an independent generator derived
from integer coordinates, so results never depend on execution order:

    rng = stream_rng(seed, n, strategy_index, rep_index)

The rule is frozen: the entropy of the underlying SeedSequence is the
tuple of coordinates masked to 64 bits, handed over as the uint32 words
numpy's own coercion makes of it (low word, then high word if nonzero).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_rng"]


def stream_rng(*coords: int) -> np.random.Generator:
    words = []
    for c in coords:
        c = int(c) & 0xFFFFFFFFFFFFFFFF
        words += (c & 0xFFFFFFFF, c >> 32) if c >> 32 else (c,)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))
