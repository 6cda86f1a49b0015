"""Tests for the per-neuron reference dynamics and the plasticity kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colanet_cl.colanet import ColaNetConfig
from colanet_cl.snncore import N_INPUTS, depress, potentiate
from neuron_reference import (
    NeuronState,
    ReceptiveField,
    adaptive_threshold,
    depress_reference,
    integrate_step,
    potentiate_reference,
)


def make_rf(**fill) -> ReceptiveField:
    weights = np.zeros(N_INPUTS)
    for idx, value in fill.items():
        weights[int(idx)] = value
    return ReceptiveField(weights=weights)


def make_row(**fill) -> np.ndarray:
    return make_rf(**fill).weights


def rates(eta_plus=0.1, eta_minus=0.1, **overrides) -> ColaNetConfig:
    """A network config used only for the plasticity settings it carries."""
    return ColaNetConfig(eta_plus=eta_plus, eta_minus=eta_minus, **overrides)


def spikes_at(*indices) -> np.ndarray:
    row = np.zeros(N_INPUTS, dtype=bool)
    for i in indices:
        row[i] = True
    return row


# ------------------------------------------------------------- dataclasses


def test_neuron_state_reset():
    n = NeuronState(u=3.0, fired_this_presentation=True)
    n.reset()
    assert n.u == 0.0
    assert not n.fired_this_presentation


def test_receptive_field_rejects_wrong_shape():
    with pytest.raises(ValueError):
        ReceptiveField(weights=np.zeros(10))


def test_receptive_field_positive_sum_ignores_nonpositive():
    rf = make_rf(**{"0": 2.0, "1": 3.0, "2": -1.0})
    assert rf.positive_sum() == pytest.approx(5.0)


def test_clear_eligibility():
    rf = make_rf()
    rf.eligibility[:] = 4.0
    rf.clear_eligibility()
    assert not rf.eligibility.any()


def test_plasticity_config_validation():
    with pytest.raises(ValueError):
        rates(eta_plus=0.0)
    with pytest.raises(ValueError):
        rates(eta_minus=-1.0)


# ---------------------------------------------------------------- threshold


def test_threshold_reference_value():
    """Hand-computed: 1.0 + 0.005 * (2 + 3) = 1.025; the -1 weight is
    excluded from the positive mass."""
    rf = make_rf(**{"0": 2.0, "1": 3.0, "2": -1.0})
    n = NeuronState(u_const=1.0, alpha=0.005)
    assert adaptive_threshold(rf, n) == pytest.approx(1.025, abs=1e-12)


def test_threshold_alpha_zero_is_u_const():
    rf = make_rf(**{"0": 5.0})
    n = NeuronState(u_const=1.0, alpha=0.0)
    assert adaptive_threshold(rf, n) == 1.0


def test_threshold_all_negative_weights_is_u_const():
    rf = ReceptiveField(weights=np.full(N_INPUTS, -0.5))
    n = NeuronState(u_const=1.0, alpha=0.3)
    assert adaptive_threshold(rf, n) == pytest.approx(1.0)


@settings(max_examples=30)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_threshold_formula_property(u_const, alpha, seed):
    weights = np.random.default_rng(seed).uniform(-1.0, 1.0, N_INPUTS)
    rf = ReceptiveField(weights=weights)
    n = NeuronState(u_const=u_const, alpha=alpha)
    expected = u_const + alpha * weights[weights > 0].sum()
    assert adaptive_threshold(rf, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- integration


def test_integrate_accumulates_below_threshold():
    rf = make_rf(**{"0": 0.4})
    n = NeuronState(u_const=1.0)
    assert not integrate_step(n, rf, spikes_at(0))
    assert n.u == pytest.approx(0.4)
    assert not integrate_step(n, rf, spikes_at(0))
    assert n.u == pytest.approx(0.8)
    assert not n.fired_this_presentation


def test_integrate_fires_and_resets_at_threshold():
    rf = make_rf(**{"0": 0.6})
    n = NeuronState(u_const=1.0)
    integrate_step(n, rf, spikes_at(0))
    fired = integrate_step(n, rf, spikes_at(0))
    assert fired
    assert n.u == 0.0
    assert n.fired_this_presentation


def test_integrate_fires_against_adaptive_threshold():
    # Threshold is 1 + 0.5 * 2 = 2, so a single +2 drive only ties it.
    rf = make_rf(**{"0": 2.0})
    n = NeuronState(u_const=1.0, alpha=0.5)
    assert integrate_step(n, rf, spikes_at(0))  # u reaches 2.0 == threshold


def test_integrate_eligibility_counts_every_spike():
    rf = make_rf(**{"0": 10.0})
    n = NeuronState(u_const=1.0)
    integrate_step(n, rf, spikes_at(0, 1))
    integrate_step(n, rf, spikes_at(0))
    assert rf.eligibility[0] == 2.0
    assert rf.eligibility[1] == 1.0
    assert rf.eligibility[2:].sum() == 0.0


def test_integrate_leak_decays_potential():
    rf = make_rf(**{"0": 0.5})
    n = NeuronState(u_const=10.0, leak=0.2)
    integrate_step(n, rf, spikes_at(0))
    integrate_step(n, rf, np.zeros(N_INPUTS, dtype=bool))
    assert n.u == pytest.approx(0.5 * 0.8)


def test_integrate_negative_weights_lower_potential():
    rf = make_rf(**{"0": -0.3})
    n = NeuronState(u_const=1.0)
    integrate_step(n, rf, spikes_at(0))
    assert n.u == pytest.approx(-0.3)


# ---------------------------------------------------------------- plasticity


def test_potentiate_scales_eligibility():
    w = make_row()
    elig = np.zeros(N_INPUTS)
    elig[5] = 7.0
    potentiate(w, elig, rates(eta_plus=0.1, steps_active=10))
    assert w[5] == pytest.approx(0.07)
    assert w.sum() == pytest.approx(0.07)


def test_potentiate_clamps_at_w_max():
    w = make_row(**{"3": 0.95})
    elig = np.zeros(N_INPUTS)
    elig[3] = 10.0
    before = w.sum()
    potentiate(w, elig, rates(eta_plus=0.5, steps_active=10))
    assert w[3] == 1.0
    assert w.sum() - before == pytest.approx(0.05)


def test_depress_scales_eligibility_and_clamps():
    w = make_row(**{"2": -0.95, "4": 0.5})
    elig = np.zeros(N_INPUTS)
    elig[2] = 10.0
    elig[4] = 1.0
    before = w.sum()
    depress(w, elig, rates(eta_minus=0.5, steps_active=10))
    assert w[2] == -1.0
    assert w[4] == pytest.approx(0.45)
    assert w.sum() - before == pytest.approx(-0.1)


def test_renormalize_conserves_total_mass_at_ns_zero():
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.2, 0.2, N_INPUTS)
    elig = rng.integers(0, 5, N_INPUTS).astype(float)
    before = w.sum()
    potentiate(w, elig, rates(eta_plus=0.05, ns=0))
    assert w.sum() == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_renormalize_large_ns_approaches_plain_potentiation():
    rng = np.random.default_rng(1)
    weights = rng.uniform(-0.2, 0.2, N_INPUTS)
    elig = rng.integers(0, 5, N_INPUTS).astype(float)

    def run(ns):
        w = weights.copy()
        potentiate(w, elig, rates(eta_plus=0.05, ns=ns))
        return w

    plain = run(None)
    huge_ns = run(10**12)
    assert np.allclose(huge_ns, plain, atol=1e-9)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32))
def test_renormalize_correction_shrinks_with_ns(seed):
    """For the same potentiation, larger ns leaves more total mass behind."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.2, 0.2, N_INPUTS)
    elig = rng.integers(0, 4, N_INPUTS).astype(float)
    sums = []
    for ns in (0, 100, 10000):
        w = weights.copy()
        potentiate(w, elig, rates(eta_plus=0.05, ns=ns))
        sums.append(w.sum())
    assert sums[0] <= sums[1] + 1e-12
    assert sums[1] <= sums[2] + 1e-12


def test_renormalize_noop_when_inactive():
    """Both disabled sentinels give exactly the clamped raw update."""
    weights = make_row(**{"0": 0.5, "1": 0.99})
    elig = np.zeros(N_INPUTS)
    elig[:3] = (2.0, 5.0, 1.0)
    expected = np.minimum(weights + 0.1 * elig / 10, 1.0)
    for ns in (None, math.inf):
        w = weights.copy()
        potentiate(w, elig, rates(ns=ns))
        assert np.array_equal(w, expected)


def test_renormalize_clamps_at_w_min():
    w = np.full(N_INPUTS, -0.9999)
    w[0] = 0.0
    elig = np.zeros(N_INPUTS)
    elig[0] = 10.0
    # Pixel 0 gains the full +1.0 up to w_max; the ns=0 correction of
    # 1/784 per synapse pushes every other weight past w_min.
    potentiate(w, elig, rates(eta_plus=1.0, ns=0))
    assert w.min() == -1.0
    assert (w[1:] == -1.0).all()
    assert w[0] == pytest.approx(1.0 - 1.0 / N_INPUTS)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_weights_stay_bounded_under_random_plasticity(seed):
    """No sequence of rewards/punishments can push a weight past the rails."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, N_INPUTS)
    for _ in range(30):
        elig = rng.integers(0, 11, N_INPUTS).astype(float)
        eta_plus = float(rng.uniform(0.01, 2.0))
        eta_minus = float(rng.uniform(0.01, 2.0))
        ns = int(rng.integers(0, 100)) if rng.random() < 0.5 else None
        renormalize = bool(rng.random() < 0.5)
        cfg = rates(eta_plus, eta_minus, ns=ns if renormalize else None)
        if rng.random() < 0.5:
            potentiate(w, elig, cfg)
        else:
            depress(w, elig, cfg)
        assert w.max() <= 1.0 + 1e-12
        assert w.min() >= -1.0 - 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rule=st.sampled_from(["potentiate", "depress"]),
    ns=st.sampled_from([None, 0, 7, 100.5]),
    steps=st.sampled_from([1, 3, 10]),
    eta=st.floats(0.001, 2.0),
)
def test_plasticity_matches_whole_array_reference_bitwise(seed, rule, ns, steps, eta):
    """The in-place kernel writes the same bits as the whole-array
    expressions, on rows with exact zeros, weights at and near both clamps,
    and sparse spike counts."""
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 0.0, 1.0, -0.9999, 0.9999], N_INPUTS)
    dense = rng.random(N_INPUTS) < 0.6
    w[dense] = rng.uniform(-1.0, 1.0, dense.sum())
    elig = np.zeros(N_INPUTS)
    lit = rng.random(N_INPUTS) < 0.2
    elig[lit] = rng.integers(0, steps + 1, lit.sum())
    cfg = rates(eta_plus=eta, eta_minus=eta, ns=ns, steps_active=steps)
    kernel, reference = {
        "potentiate": (potentiate, potentiate_reference),
        "depress": (depress, depress_reference),
    }[rule]
    expected = w.copy()
    reference(expected, elig, cfg)
    kernel(w, elig, cfg)
    assert w.tobytes() == expected.tobytes()
