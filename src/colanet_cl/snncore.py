"""Plasticity kernel for the columnar network.

Two rules operate once per presentation on one neuron's weight row, driven
by its eligibility trace (per-pixel presynaptic spike counts over the
active window):

* ``potentiate`` — reward: strengthen synapses in proportion to presynaptic
  activity, clamped above; then, when renormalization is active, spread the
  added mass back across the synapses (synaptic resource conservation: ns=0
  conserves the total real-synapse mass exactly, larger ns weakens the
  correction, and ns=None disables it, which is the default).
* ``depress`` — anti-Hebbian punishment: weaken the same way, clamped below.

Both work in place on one row and read their rates, window length, clamp
bounds and ``ns`` from the network config they are given.
"""

from __future__ import annotations

import numpy as np

N_INPUTS = 784


def potentiate(w: np.ndarray, eligibility: np.ndarray, cfg) -> None:
    """Reward one neuron: strengthen its synapses by eligibility.

    Raw update ``dw_i = eta_plus * eligibility_i / steps_active``, clamped
    above at ``w_max``. With renormalization active, the mass actually added
    is subtracted back as ``added / (784 + ns)`` from every real synapse,
    clamped at ``w_min``; the ``ns`` virtual synapses absorb the remaining
    share and store no state.

    Args:
        w: float64 weight row of shape (784,), mutated in place.
        eligibility: Per-pixel presynaptic spike counts, shape (784,).
        cfg: A ``ColaNetConfig`` (supplies eta_plus, steps_active, w_min,
            w_max, ns and ``renormalization_active``).
    """
    before = w.sum()
    np.minimum(w + cfg.eta_plus * eligibility / cfg.steps_active, cfg.w_max, out=w)
    if cfg.renormalization_active:
        added = w.sum() - before
        np.maximum(w - added / (N_INPUTS + cfg.ns), cfg.w_min, out=w)


def depress(w: np.ndarray, eligibility: np.ndarray, cfg) -> None:
    """Punish one neuron: weaken its synapses by eligibility.

    Raw update ``dw_i = -eta_minus * eligibility_i / steps_active``, clamped
    below at ``w_min``.

    Args:
        w: float64 weight row of shape (784,), mutated in place.
        eligibility: Per-pixel presynaptic spike counts, shape (784,).
        cfg: A ``ColaNetConfig`` (supplies eta_minus, steps_active, w_min).
    """
    np.maximum(w - cfg.eta_minus * eligibility / cfg.steps_active, cfg.w_min, out=w)
