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
    """Encode a batch of images, active window only, step-major.

    The one Bernoulli draw behind every presentation, in training and in
    evaluation: one generator call draws ``steps_active`` uniforms per
    nonzero pixel, in (image, step, ascending pixel) order, and none for a
    zero pixel. So a batch consumes the generator as its images would one at
    a time, and columns that are zero in every image change no spike. One
    index over the nonzero pixels, advanced each step, gathers step-major.

    Args:
        images: uint8 array of shape (B, U): B images over any U pixel
            columns (784 for whole images).
        steps_active: Active window length.
        rng: Source of randomness.

    Returns:
        Boolean array of shape (steps_active, nnz) whose column j holds the
        spikes of the j-th entry of ``np.flatnonzero(images)``.
    """
    flat = np.flatnonzero(images != 0)
    sizes = np.count_nonzero(images, axis=1)
    probs = images.reshape(-1)[flat] / 255.0
    uniforms = rng.random((steps_active, flat.size))
    # Image i (n_i nonzero pixels, from column s_i on) drew its (step, pixel)
    # block from uniform steps * s_i on: (t, j) is steps*s_i + t*n_i + j - s_i.
    strides = np.repeat(sizes, sizes)
    index = np.repeat((steps_active - 1) * (np.cumsum(sizes) - sizes), sizes)
    index += np.arange(flat.size)
    spikes = np.empty(uniforms.shape, dtype=bool)
    for step in spikes:
        np.less(np.take(uniforms, index), probs, out=step)
        index += strides
    return spikes
