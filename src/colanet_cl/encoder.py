"""Rate coding of grayscale images into stochastic spike trains.

Every presentation shows an image for a fixed number of active steps followed
by a silent tail. At each active step, each pixel spikes independently with
probability ``intensity / 255`` — so a black pixel never spikes and a
fully saturated pixel spikes at every active step. Spike noise is drawn
fresh for every presentation, for training and evaluation alike, which makes
evaluation stochastic; callers pin a seed when they need repeatability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_STEPS_ACTIVE = 10
DEFAULT_STEPS_SILENT = 10


@dataclass(frozen=True)
class SpikeTrain:
    """Boolean spike raster for one image presentation.

    Attributes:
        steps_active: Number of steps in the active window.
        steps_silent: Number of trailing silent steps.
        spikes: Boolean matrix of shape (steps_active + steps_silent, 784);
            every row in the silent window is all-False.
    """

    steps_active: int
    steps_silent: int
    spikes: np.ndarray

    def __post_init__(self):
        expected = (self.steps_active + self.steps_silent, 784)
        if self.spikes.shape != expected:
            raise ValueError(
                f"spike raster shape {self.spikes.shape} != declared {expected}"
            )

    @property
    def active(self) -> np.ndarray:
        """The active-window rows of the raster."""
        return self.spikes[: self.steps_active]


def encode(
    img: np.ndarray,
    steps_active: int = DEFAULT_STEPS_ACTIVE,
    steps_silent: int = DEFAULT_STEPS_SILENT,
    rng: np.random.Generator | None = None,
) -> SpikeTrain:
    """Encode one image as a Bernoulli spike train.

    Args:
        img: uint8 intensity array of shape (784,).
        steps_active: Active window length (>= 0).
        steps_silent: Silent tail length (>= 0).
        rng: Source of randomness; a fresh default generator if omitted.

    Returns:
        SpikeTrain whose active rows spike with per-pixel probability
        ``img / 255`` and whose silent rows are all-False.
    """
    if steps_active < 0 or steps_silent < 0:
        raise ValueError("step counts must be >= 0")
    if rng is None:
        rng = np.random.default_rng()
    spikes = np.zeros((steps_active + steps_silent, 784), dtype=bool)
    active = encode_active_batch(np.asarray(img)[None], steps_active, rng)
    spikes[:steps_active] = active[0]
    return SpikeTrain(steps_active, steps_silent, spikes)


def encode_active_batch(
    images: np.ndarray, steps_active: int, rng: np.random.Generator
) -> np.ndarray:
    """Encode a batch of images, active window only.

    The one Bernoulli draw behind every presentation (training, prediction,
    evaluation and ``encode``): silent steps carry no spikes and nothing
    downstream integrates them, so only the active window is materialized.
    One draw for a batch of B images consumes the generator exactly as B
    single-image draws would.

    Args:
        images: uint8 array of shape (N, 784).
        steps_active: Active window length.
        rng: Source of randomness.

    Returns:
        Boolean array of shape (N, steps_active, 784).
    """
    p = images.astype(np.float64) / 255.0
    return rng.random((len(images), steps_active, 784)) < p[:, None, :]
