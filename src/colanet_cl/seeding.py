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
Flood's SplittableRandom finalizer). ``splitmix64`` yields its stream, which
pixel permutations draw from; bulk sampling uses ``generator_from``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64's increment, the odd integer nearest 2^64 / golden ratio.
_GAMMA = 0x9E3779B97F4A7C15
#: Outputs per ``mix64`` call in ``splitmix64``: one pixel shuffle's 783 draws.
_BLOCK = 1024


def mix64(x: int) -> int:
    """Apply the splitmix64 finalizer to a 64-bit integer.

    Args:
        x: Any integer (only its low 64 bits are used) or a uint64 array.

    Returns:
        A well-mixed 64-bit integer, or a uint64 array mixed elementwise.
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


def splitmix64(seed: int):
    """Yield the splitmix64 stream seeded with ``seed``, as Python ints.

    The k-th output is ``mix64((seed + k * gamma) mod 2**64)``, so a block of
    outputs is one ``mix64`` call over a uint64 array, which wraps mod 2**64.
    """
    steps = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(_GAMMA)
    while True:
        yield from mix64(steps + np.uint64(seed & _MASK64)).tolist()
        seed += _BLOCK * _GAMMA


def generator_from(root_seed: int, *labels) -> np.random.Generator:
    """Build a numpy Generator seeded from a derived sub-seed.

    Args:
        root_seed: The experiment's root seed.
        *labels: Label path naming the stream's purpose.

    Returns:
        ``numpy.random.Generator`` backed by PCG64.
    """
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, *labels)))
