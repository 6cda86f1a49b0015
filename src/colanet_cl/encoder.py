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
    zero in every image. The batch takes one generator call: with no zero
    entry (training) as a (B, steps, U) block, else as one run of uniforms
    that is cut into each image's (step, nonzero pixel) block.

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
    # flatnonzero walks the images in C order, so one batch draw, cut into
    # (step, nonzero pixel) blocks image by image, keeps the draw order.
    lit = images != 0
    flat = np.flatnonzero(lit)
    cols = flat % width
    probs = images.reshape(-1)[flat] / 255.0
    uniforms = rng.random(steps_active * len(flat))
    ends = np.cumsum(np.count_nonzero(lit, axis=1))
    spikes = np.zeros((batch, steps_active, width), dtype=bool)
    start = 0
    for i, end in enumerate(ends.tolist()):
        block = uniforms[steps_active * start : steps_active * end]
        block = block.reshape(steps_active, end - start) < probs[start:end]
        spikes[i][:, cols[start:end]] = block
        start = end
    return spikes
