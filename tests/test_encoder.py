"""Tests for Bernoulli rate coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colanet_cl.encoder import (
    DEFAULT_STEPS_ACTIVE,
    DEFAULT_STEPS_SILENT,
    SpikeTrain,
    encode,
    encode_active_batch,
)


def test_default_window_lengths():
    assert DEFAULT_STEPS_ACTIVE == 10
    assert DEFAULT_STEPS_SILENT == 10


def test_encode_shape_and_silent_tail():
    img = np.full(784, 128, dtype=np.uint8)
    train = encode(img, rng=np.random.default_rng(0))
    assert train.spikes.shape == (20, 784)
    assert train.spikes.dtype == bool
    assert not train.spikes[10:].any()
    assert train.active.shape == (10, 784)


def test_black_pixels_never_spike():
    img = np.zeros(784, dtype=np.uint8)
    train = encode(img, rng=np.random.default_rng(1))
    assert not train.spikes.any()


def test_saturated_pixels_always_spike():
    img = np.full(784, 255, dtype=np.uint8)
    train = encode(img, rng=np.random.default_rng(2))
    assert train.active.all()


def test_encode_reproducible_for_same_seed():
    img = np.arange(784, dtype=np.uint64).astype(np.uint8)
    a = encode(img, rng=np.random.default_rng(3)).spikes
    b = encode(img, rng=np.random.default_rng(3)).spikes
    assert np.array_equal(a, b)


def test_encode_rejects_negative_steps():
    img = np.zeros(784, dtype=np.uint8)
    with pytest.raises(ValueError):
        encode(img, steps_active=-1)
    with pytest.raises(ValueError):
        encode(img, steps_silent=-1)


def test_encode_zero_length_windows():
    img = np.full(784, 255, dtype=np.uint8)
    train = encode(img, steps_active=0, steps_silent=3, rng=np.random.default_rng(0))
    assert train.spikes.shape == (3, 784)
    assert not train.spikes.any()


def test_spike_train_validates_shape():
    with pytest.raises(ValueError):
        SpikeTrain(10, 10, np.zeros((19, 784), dtype=bool))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=254),
    st.integers(min_value=0, max_value=2**32),
)
def test_encode_rate_matches_intensity(intensity, seed):
    """Spike counts stay within 3 sigma of the binomial expectation.

    All 784 pixels share one intensity, so the active window holds
    n = 784 * steps_active Bernoulli draws at p = intensity / 255. A correct
    encoder misses a 3-sigma bound on ~0.27% of draws, so the examples are
    a fixed set (derandomized, no example database) that all pass.
    """
    img = np.full(784, intensity, dtype=np.uint8)
    train = encode(img, rng=np.random.default_rng(seed))
    n = 784 * 10
    p = intensity / 255.0
    observed = int(train.active.sum())
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(observed - n * p) < 3 * sigma


def test_encode_active_batch_shape_and_extremes():
    images = np.stack(
        [np.zeros(784, dtype=np.uint8), np.full(784, 255, dtype=np.uint8)]
    )
    spikes = encode_active_batch(images, 10, np.random.default_rng(0))
    assert spikes.shape == (2, 10, 784)
    assert not spikes[0].any()
    assert spikes[1].all()


def test_encode_active_batch_rate():
    images = np.full((4, 784), 128, dtype=np.uint8)
    spikes = encode_active_batch(images, 10, np.random.default_rng(7))
    n = 4 * 10 * 784
    p = 128 / 255.0
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(int(spikes.sum()) - n * p) < 3 * sigma


def test_encode_draws_through_the_batch_encoder():
    """``encode``'s active rows are the batch encoder's draw for a batch of
    one, and a batch of B consumes the stream as B single draws do."""
    images = np.random.default_rng(8).integers(0, 256, (3, 784), dtype=np.uint8)
    batch = encode_active_batch(images, 10, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for i in range(3):
        train = encode(images[i], rng=rng)
        assert np.array_equal(train.active, batch[i])


def test_zero_length_draw_leaves_the_stream_untouched():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    encode(np.full(784, 255, dtype=np.uint8), steps_active=0, rng=rng)
    assert rng.bit_generator.state == before
