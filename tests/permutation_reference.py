"""Scalar splitmix64 stream and pixel shuffle: the oracle for ``gen_permutation``.

The splitmix64 generator stepped one output at a time with plain Python
state, its unbiased ``randbelow`` by rejection, and the Fisher-Yates shuffle
over an int64 array that draws from it. ``seeding.splitmix64``, which
computes its stream a block at a time, and ``dataset.gen_permutation``, which
shuffles a list of ints with the rejection written inline, must match these
bit for bit.
"""

from __future__ import annotations

import numpy as np

from colanet_cl.seeding import mix64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def scalar_stream(seed: int):
    """Yield splitmix64's outputs: ``mix64`` of the state, then advance it by gamma."""
    state = seed & MASK64
    while True:
        yield mix64(state)
        state = (state + GAMMA) & MASK64


def randbelow(draws, n: int) -> int:
    """An unbiased integer in ``[0, n)``: redraw values above the last whole
    multiple of ``n`` in the 64-bit range, then reduce mod ``n``."""
    limit = MASK64 - (MASK64 + 1) % n
    while True:
        value = next(draws)
        if value <= limit:
            return value % n


def shuffle(draws) -> np.ndarray:
    """Fisher-Yates over pixel indices 0..783, from the last index down."""
    mapping = np.arange(784, dtype=np.int64)
    for i in range(783, 0, -1):
        j = randbelow(draws, i + 1)
        mapping[i], mapping[j] = mapping[j], mapping[i]
    return mapping
