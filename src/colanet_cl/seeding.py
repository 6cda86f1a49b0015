"""Deterministic seed derivation for reproducible experiments.

All randomness in an experiment flows from a single root seed. Sub-seeds for
independent purposes (weight initialization, per-task pixel permutations,
per-task encoding noise, evaluation noise) are derived from the root seed and
a list of string/integer labels via the splitmix64 finalizer, so each random
stream is independently reproducible and documented well enough to port
bit-for-bit to another language.

The derivation: start from ``mix64(root)``, then for every label absorb the
UTF-8 byte length followed by each byte, applying ``mix64`` after every
absorption. ``mix64`` is the splitmix64 output function (Steele, Lea &
Flood's SplittableRandom finalizer).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64's increment, the odd integer nearest 2^64 / golden ratio.
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """Apply the splitmix64 finalizer to a 64-bit integer.

    Args:
        x: Any integer; only the low 64 bits are used.

    Returns:
        A well-mixed 64-bit integer.
    """
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root_seed: int, *labels) -> int:
    """Derive a 64-bit sub-seed from a root seed and a label path.

    Distinct label paths yield independent sub-seeds; the same path always
    yields the same sub-seed. Labels are converted with ``str()`` before
    absorption, so ``derive_seed(s, "train", 3)`` is stable regardless of
    integer type.

    Args:
        root_seed: The experiment's root seed (any integer).
        *labels: Path of labels naming the purpose, e.g. ``("encode", 2)``.

    Returns:
        A 64-bit integer seed.
    """
    state = mix64(root_seed & _MASK64)
    for label in labels:
        data = str(label).encode("utf-8")
        state = mix64(state ^ len(data))
        for byte in data:
            state = mix64(state ^ byte)
    return state


class SplitMix64:
    """Minimal splitmix64 pseudo-random generator.

    Used where a documented, trivially portable integer stream is needed
    (pixel-permutation generation). For bulk numeric sampling we hand derived
    seeds to ``numpy.random.Generator`` instead.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit output: ``mix64`` of the state, then advance it."""
        z = self._state
        self._state = (z + _GAMMA) & _MASK64
        return mix64(z)

    def randbelow(self, n: int) -> int:
        """Return an unbiased uniform integer in ``[0, n)``.

        Uses rejection sampling on the top of the 64-bit range so every
        residue is equally likely.

        Args:
            n: Exclusive upper bound, must be positive.
        """
        if n <= 0:
            raise ValueError("randbelow requires a positive bound")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            value = self.next_u64()
            if value <= limit:
                return value % n


def generator_from(root_seed: int, *labels) -> np.random.Generator:
    """Build a numpy Generator seeded from a derived sub-seed.

    Args:
        root_seed: The experiment's root seed.
        *labels: Label path naming the stream's purpose.

    Returns:
        ``numpy.random.Generator`` backed by PCG64.
    """
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, *labels)))
