"""Per-neuron reference dynamics: the oracle for the vectorized race.

One learning neuron simulated step by step with plain Python state: the
membrane potential decays by the leak fraction, integrates the summed weight
of the spiking pixels, and fires (resetting to zero) once it reaches the
adaptive threshold ``u_const + alpha * (positive mass)``. The network's
batched race and cached thresholds are checked against this model.

The whole-window batched race, which the network's two-window race must
match bit for bit, is kept here as a second oracle, and the plasticity rules
as whole-array expressions, which the in-place kernel must match bit for bit,
as a third.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_INPUTS = 784


@dataclass
class NeuronState:
    """Mutable state and fixed parameters of one learning neuron.

    Attributes:
        u: Membrane potential, reset to 0 at presentation start and after
            each emitted spike.
        u_const: Fixed component of the firing threshold (> 0).
        alpha: Adaptive-threshold coefficient (>= 0).
        leak: Per-step decay fraction in [0, 1); 0 is a pure integrator.
        fired_this_presentation: Whether the neuron has fired since the last
            presentation reset.
    """

    u: float = 0.0
    u_const: float = 1.0
    alpha: float = 0.0
    leak: float = 0.0
    fired_this_presentation: bool = False

    def reset(self) -> None:
        """Reset per-presentation state (start of a new presentation)."""
        self.u = 0.0
        self.fired_this_presentation = False


@dataclass
class ReceptiveField:
    """The 784 input weights of one neuron plus its eligibility trace.

    Attributes:
        weights: float64 array of shape (784,).
        eligibility: Nonnegative per-pixel presynaptic spike counts for the
            current presentation; cleared between presentations.
    """

    weights: np.ndarray
    eligibility: np.ndarray = field(
        default_factory=lambda: np.zeros(N_INPUTS, dtype=np.float64)
    )

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (N_INPUTS,):
            raise ValueError(f"weights must have shape ({N_INPUTS},)")

    def clear_eligibility(self) -> None:
        """Zero the eligibility trace (end of a presentation)."""
        self.eligibility[:] = 0.0

    def positive_sum(self) -> float:
        """Sum of strictly positive weights."""
        w = self.weights
        return float(w[w > 0.0].sum())


def adaptive_threshold(rf: ReceptiveField, n: NeuronState) -> float:
    """The firing threshold ``u_const + alpha * (positive mass)``.

    Equal to ``u_const`` when ``alpha`` is 0 or no weight is positive.
    """
    if n.alpha == 0.0:
        return n.u_const
    return n.u_const + n.alpha * rf.positive_sum()


def integrate_step(n: NeuronState, rf: ReceptiveField, presyn: np.ndarray) -> bool:
    """Advance the neuron by one time step; True when it fired.

    The eligibility trace counts every presynaptic spike regardless of
    firing; firing resets the potential to zero.
    """
    presyn = np.asarray(presyn, dtype=bool)
    n.u = (1.0 - n.leak) * n.u + float(rf.weights[presyn].sum())
    rf.eligibility[presyn] += 1.0
    if n.u >= adaptive_threshold(rf, n):
        n.u = 0.0
        n.fired_this_presentation = True
        return True
    return False


def whole_window_potentials(
    spikes: np.ndarray, drive_w: np.ndarray, leak: float
) -> np.ndarray:
    """(B, T, N) potentials of a batch, integrated over the whole window.

    The network's race before it was split into two windows: the pixels that
    spike anywhere in the batch are gathered, and without leak the potentials
    are one product of cumulative spike counts and the pixel-major weights
    ``drive_w`` (784, N); with leak each step's drive is decayed into ``u``.
    """
    batch, steps, _ = spikes.shape
    lit = np.flatnonzero(spikes.any(axis=(0, 1)))
    inputs = spikes[:, :, lit]
    if leak == 0.0:
        counts = np.cumsum(inputs, axis=1, dtype=np.float64)
    else:
        counts = inputs.astype(np.float64)
    potential = (
        counts.reshape(batch * steps, lit.size) @ drive_w[lit]
    ).reshape(batch, steps, -1)
    if leak != 0.0:
        u = np.zeros_like(potential[:, 0, :])
        for t in range(steps):
            u = (1.0 - leak) * u + potential[:, t, :]
            potential[:, t, :] = u
    return potential


def first_crossing_winners(
    potentials: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """(B,) winners of (B, T, N) potentials: the lowest flat index among the
    neurons crossing at the earliest step with a crossing, or -1."""
    crossed = potentials >= thresholds
    fired = crossed.any(axis=2)
    step = fired.argmax(axis=1)
    rows = np.arange(len(potentials))
    return np.where(fired[rows, step], crossed[rows, step].argmax(axis=1), -1)


def potentiate_reference(w: np.ndarray, eligibility: np.ndarray, cfg) -> None:
    """``snncore.potentiate`` as whole-array expressions, in place on ``w``."""
    before = w.sum()
    np.minimum(w + cfg.eta_plus * eligibility / cfg.steps_active, cfg.w_max, out=w)
    if cfg.renormalization_active:
        added = w.sum() - before
        np.maximum(w - added / (N_INPUTS + cfg.ns), cfg.w_min, out=w)


def depress_reference(w: np.ndarray, eligibility: np.ndarray, cfg) -> None:
    """``snncore.depress`` as a whole-array expression, in place on ``w``."""
    np.maximum(w - cfg.eta_minus * eligibility / cfg.steps_active, cfg.w_min, out=w)
