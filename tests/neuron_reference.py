"""Per-neuron reference dynamics: the oracle for the vectorized race.

One learning neuron simulated step by step with plain Python state: the
membrane potential decays by the leak fraction, integrates the summed weight
of the spiking pixels, and fires (resetting to zero) once it reaches the
adaptive threshold ``u_const + alpha * (positive mass)``. The network's
batched race and cached thresholds are checked against this model.
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
