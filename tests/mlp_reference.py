"""Reference AdaDelta training: the oracle for the chunked in-place update.

The plain array formula of the update, which allocates several
parameter-sized temporaries per step, and an epoch that scales the whole
training split to [0, 1] up front. ``baseline.adadelta_step`` and
``baseline.mlp_train_epoch`` must match these byte for byte. Also the mean
cross-entropy loss that ``baseline.mlp_grads`` differentiates.
"""

from __future__ import annotations

import numpy as np

from colanet_cl.baseline import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    MlpParams,
    mlp_forward,
    mlp_grads,
)
from colanet_cl.dataset import TaskSpec

PARAM_NAMES = ("W1", "b1", "W2", "b2")


def mlp_loss(p: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy loss of a (B, 784) float64 batch with labels ``y``."""
    _, probs = mlp_forward(p, x)
    return float(-np.log(probs[np.arange(len(x)), y] + 1e-300).mean())


def reference_adadelta_step(p: MlpParams, grads: dict) -> None:
    """One AdaDelta update, written as whole-array expressions."""
    for name in PARAM_NAMES:
        g = grads[name]
        eg = p.grad_sq[name]
        ex = p.update_sq[name]
        eg *= ADADELTA_RHO
        eg += (1.0 - ADADELTA_RHO) * g * g
        step = -np.sqrt(ex + ADADELTA_EPS) / np.sqrt(eg + ADADELTA_EPS) * g
        ex *= ADADELTA_RHO
        ex += (1.0 - ADADELTA_RHO) * step * step
        getattr(p, name)[...] += step


def reference_train_epoch(p: MlpParams, task: TaskSpec, batch_size: int = 32) -> None:
    """One epoch that converts the whole split before the first batch."""
    images = task.train.images.astype(np.float64) / 255.0
    labels = task.train.labels
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        reference_adadelta_step(p, mlp_grads(p, x, y))
