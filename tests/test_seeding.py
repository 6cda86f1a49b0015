"""Tests for deterministic seed derivation."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import permutation_reference as ref
from colanet_cl import seeding
from colanet_cl.seeding import derive_seed, generator_from, mix64, splitmix64

_MASK64 = (1 << 64) - 1

# Reference outputs of the splitmix64 stream seeded with 1234567,
# cross-checked against the published algorithm (Steele, Lea & Flood);
# frozen here so a refactor cannot silently change every derived seed.
SPLITMIX64_SEED = 1234567
SPLITMIX64_FIRST_5 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_stream():
    assert list(islice(splitmix64(SPLITMIX64_SEED), 5)) == SPLITMIX64_FIRST_5
    assert list(islice(ref.scalar_stream(SPLITMIX64_SEED), 5)) == SPLITMIX64_FIRST_5


@pytest.mark.parametrize(
    "seed", [0, 1, 12345, 2**63, 2**64 - 1, 2**64 - 5000, -1, 2**64 + 7]
)
def test_splitmix64_matches_scalar_stepping(seed):
    """The block-computed stream is the scalar recurrence, across two block
    boundaries, for seeds whose first steps wrap past 2**64, and for seeds
    outside [0, 2**64), of which only the low 64 bits count."""
    count = 2 * seeding._BLOCK + 3
    draws = list(islice(splitmix64(seed), count))
    assert draws == list(islice(ref.scalar_stream(seed), count))
    assert all(type(value) is int for value in draws)


def test_mix64_zero_is_nonzero():
    # The finalizer must not map 0 -> 0 (that would make seed 0 degenerate).
    assert mix64(0) != 0


@given(st.integers())
def test_mix64_range(x):
    assert 0 <= mix64(x) <= _MASK64


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "eval", 3) == derive_seed(42, "eval", 3)


def test_derive_seed_distinguishes_labels():
    seeds = {
        derive_seed(42),
        derive_seed(42, "eval"),
        derive_seed(42, "eval", 1),
        derive_seed(42, "eval", 2),
        derive_seed(42, "train", 1),
        derive_seed(43, "eval", 1),
    }
    assert len(seeds) == 6


def test_derive_seed_label_boundaries_matter():
    # ("ab", "c") and ("a", "bc") must hash differently: each label's
    # length is absorbed before its bytes.
    assert derive_seed(7, "ab", "c") != derive_seed(7, "a", "bc")


def test_derive_seed_int_and_str_labels_agree():
    assert derive_seed(7, 12) == derive_seed(7, "12")


@given(st.integers(), st.lists(st.one_of(st.text(max_size=8), st.integers()), max_size=4))
def test_derive_seed_in_range(root, labels):
    assert 0 <= derive_seed(root, *labels) <= _MASK64


def test_generator_from_reproducible_and_distinct():
    a = generator_from(5, "noise", 1).random(4)
    b = generator_from(5, "noise", 1).random(4)
    c = generator_from(5, "noise", 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
