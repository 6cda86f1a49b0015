"""Rate coding of grayscale images into stochastic spike trains.

Every presentation shows an image for a fixed number of active steps followed
by a silent tail. At each active step, each pixel spikes independently with
probability ``intensity / 255`` — so a black pixel never spikes and a
fully saturated pixel spikes at every active step. Silent steps carry no
spikes and nothing downstream integrates them, so only the active window is
drawn, and only for the nonzero pixels: a black pixel gets no uniform.
Spike noise is drawn fresh for every presentation, for training and
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
    evaluation. It draws ``steps_active`` uniforms per nonzero pixel, in
    (image, step, ascending pixel) order, and none for a zero pixel. So one
    draw for a batch of B images consumes the generator exactly as B
    single-image draws would, and passing only some pixel columns gives the
    same spikes as passing all of them, as long as the columns left out are
    zero in every image.

    Args:
        images: uint8 array of shape (B, U): B images over any U pixel
            columns (784 for whole images).
        steps_active: Active window length.
        rng: Source of randomness.

    Returns:
        Boolean array of shape (B, steps_active, U).
    """
    batch, width = images.shape
    if images.all():
        # No zero entry: the draw order is C order over (image, step, pixel).
        uniforms = rng.random((batch, steps_active, width))
        return uniforms < images[:, None, :] / 255.0
    # Row (image, step) of ``repeated`` is that image; its nonzero entries,
    # read in C order, are the draw order.
    repeated = np.repeat(images, steps_active, axis=0)
    spikes = repeated != 0
    intensity = repeated[spikes]
    # The mask becomes the raster: its False entries already are, and each
    # True entry is overwritten with its own draw's outcome.
    spikes[spikes] = rng.random(len(intensity)) < intensity / 255.0
    return spikes.reshape(batch, steps_active, width)
