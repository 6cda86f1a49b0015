"""Rate coding of grayscale images into stochastic spike trains.

Every presentation shows an image for a fixed number of active steps followed
by a silent tail. At each active step, each pixel spikes independently with
probability ``intensity / 255`` — so a black pixel never spikes and a
fully saturated pixel spikes at every active step. Silent steps carry no
spikes and nothing downstream integrates them, so only the active window is
drawn. Spike noise is drawn fresh for every presentation, for training and
evaluation alike, which makes evaluation stochastic; callers pin a seed when
they need repeatability.
"""

from __future__ import annotations

import numpy as np


def encode_active_batch(
    images: np.ndarray, steps_active: int, rng: np.random.Generator
) -> np.ndarray:
    """Encode a batch of images, active window only.

    The one Bernoulli draw behind every presentation, in training and in
    evaluation. One draw for a batch of B images consumes the generator
    exactly as B single-image draws would.

    Args:
        images: uint8 array of shape (N, 784).
        steps_active: Active window length.
        rng: Source of randomness.

    Returns:
        Boolean array of shape (N, steps_active, 784).
    """
    p = images.astype(np.float64) / 255.0
    return rng.random((len(images), steps_active, 784)) < p[:, None, :]
