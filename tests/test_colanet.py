"""Tests for the columnar spiking network."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import math
import struct
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colanet_cl import colanet
from colanet_cl.colanet import (
    _CONFIG_FIELDS as CONFIG_FIELDS,
    _CONFIG_PACK as CONFIG_PACK,
    _first_step,
    ColaNetAdapter,
    ColaNetConfig,
    Network,
    evaluate_task,
    export_heatmaps,
    load_state,
    race_input,
    save_state,
    train_sample,
    train_task,
)
from colanet_cl.dataset import LabeledDataset, TaskSpec, gen_permutation
from colanet_cl.statefile import StateFormatError
from colanet_cl.seeding import generator_from
from colanet_cl.snncore import depress, potentiate

import neuron_reference as ref
from conftest import (
    bit_flips,
    encode_raster,
    flip,
    presentation,
    race_counts,
    saved_bytes,
    traced_peak,
    truncation_cuts,
)
from test_trajectory import sparse_glyph_stream

NO_FIRE = np.iinfo(np.int64).max
#: The race's pixel set for whole-image rasters.
ALL_PIXELS = np.arange(784)


def small_config(**overrides) -> ColaNetConfig:
    defaults = dict(class_count=3, microcolumns=2, seed=0)
    defaults.update(overrides)
    return ColaNetConfig(**defaults)


def stripes_task(
    class_count: int = 10, microcolumns: int = 2, per_class_train: int = 3
) -> TaskSpec:
    """Deterministically separable task: disjoint 70-pixel supports at 255.

    Saturated pixels spike with probability exactly 1, so training and
    evaluation on this task are fully deterministic despite the stochastic
    encoder.
    """
    templates = np.zeros((class_count, 784), dtype=np.uint8)
    for c in range(class_count):
        templates[c, c * 70 : (c + 1) * 70] = 255

    def split(n_per_class: int) -> LabeledDataset:
        labels = np.tile(np.arange(class_count), n_per_class).astype(np.int64)
        return LabeledDataset(templates[labels].copy(), labels)

    return TaskSpec(task_id=1, train=split(per_class_train), test=split(2))


# ------------------------------------------------------------ configuration


INVALID_CONFIGS = [
    dict(class_count=0),
    dict(microcolumns=0),
    dict(leak=1.0),
    dict(u_const=0.0),
    dict(alpha=-0.1),
    dict(ns=-784),  # would divide by zero in renormalization
    dict(ns=-1),
    dict(w_min=1.0, w_max=-1.0),
    dict(steps_active=0),
    dict(eta_plus=0.0),
    dict(eta_minus=-1.0),
    # NaN passes every comparison, so each float field is checked for it.
    dict(alpha=math.nan),
    dict(ns=math.nan),
    dict(u_const=math.nan),
    dict(eta_plus=math.nan),
    dict(eta_minus=math.nan),
    dict(leak=math.nan),
    dict(w_min=math.nan),
    dict(w_max=math.nan),
    dict(init_high=math.nan),
    dict(u_const=math.inf),
    dict(alpha=math.inf),
    dict(eta_plus=math.inf),
    dict(w_max=math.inf),
    dict(w_min=-math.inf),
    dict(init_high=math.inf),
    dict(init_high=-1.0),
    # Each field must fit its slot of the state file's config block.
    dict(seed=-1),
    dict(seed=2**64),
    dict(class_count=2**32),
    dict(microcolumns=2**32),
    # The window is at most 65535 steps long.
    dict(steps_active=65536, w_min=-1e-6, w_max=1e-6, init_high=1e-6),
    # The race's weight grid would be coarser than 2^-30.
    dict(steps_active=5350),  # 5350 * 784 * 1 > 2**22
    dict(w_min=-600.0),
    dict(init_high=600.0),
]


def test_config_validation():
    for overrides in INVALID_CONFIGS:
        with pytest.raises(ValueError):
            ColaNetConfig(**overrides)
    ColaNetConfig(steps_active=65535, w_min=-1e-6, w_max=1e-6, init_high=1e-6)


def test_race_grid_bits_follow_the_largest_potential():
    assert ColaNetConfig().race_grid_bits == 39  # 10 * 784 * 1 <= 2**13
    assert ColaNetConfig(w_max=2.0).race_grid_bits == 38
    assert ColaNetConfig(steps_active=5349).race_grid_bits == 30  # <= 2**22
    assert ColaNetConfig(ns=math.inf).race_grid_bits == 39


def test_config_renormalization_flag():
    assert ColaNetConfig(ns=0).renormalization_active
    assert ColaNetConfig(ns=100).renormalization_active
    assert not ColaNetConfig(ns=None).renormalization_active
    assert not ColaNetConfig(ns=math.inf).renormalization_active
    assert ColaNetConfig(ns=math.inf) == ColaNetConfig(ns=None)


def test_reference_defaults():
    cfg = ColaNetConfig()
    assert cfg.class_count == 10
    assert cfg.microcolumns == 15
    assert cfg.u_const == 1.0
    assert cfg.steps_active == 10
    assert (cfg.w_min, cfg.w_max) == (-1.0, 1.0)
    assert cfg.neuron_count == 150


# ------------------------------------------------------------ initialization


def test_network_init_range_and_determinism():
    cfg = small_config(init_high=0.001)
    net = Network(cfg)
    assert net.weights.shape == (6, 784)
    assert net.weights.min() >= 0.0
    assert net.weights.max() <= 0.001
    assert np.array_equal(net.weights, Network(cfg).weights)
    other = Network(small_config(seed=1, init_high=0.001))
    assert not np.array_equal(net.weights, other.weights)


def test_network_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        Network(small_config(), weights=np.zeros((5, 784)))


# ------------------------------------------- equivalence with neuron kernel


def test_thresholds_match_neuron_kernel():
    net = Network(small_config(alpha=0.4, u_const=1.5))
    net.weights[:] = np.random.default_rng(0).uniform(-1, 1, net.weights.shape)
    net._refresh()
    expected = [
        ref.adaptive_threshold(
            ref.ReceptiveField(weights=net.weights[flat].copy()),
            ref.NeuronState(u_const=1.5, alpha=0.4),
        )
        for flat in range(net.config.neuron_count)
    ]
    assert net._thresholds == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1, 4]),
)
def test_race_matches_per_neuron_simulation(seed, alpha, leak, batch):
    """The batched race, and the one-image race of each presentation, pick
    the neuron the sequential per-neuron dynamics would: earliest first
    spike, flat order breaking ties, and -1 when nothing fires."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, leak=leak)
    net = Network(cfg, weights=rng.uniform(-0.3, 0.6, (cfg.neuron_count, 784)))
    # Per-presentation input density; 0 makes a silent presentation, so a
    # batch can mix silent and firing rows.
    density = rng.choice([0.0, 0.02, 0.15], size=(batch, 1, 1))
    spikes = rng.random((batch, cfg.steps_active, 784)) < density

    winners = net.race(race_counts(spikes), ALL_PIXELS)
    assert winners.shape == (batch,)
    for b in range(batch):
        firsts = []
        for flat in range(cfg.neuron_count):
            rf = ref.ReceptiveField(weights=net.weights[flat].copy())
            n = ref.NeuronState(u_const=cfg.u_const, alpha=cfg.alpha, leak=cfg.leak)
            first = NO_FIRE
            for t in range(cfg.steps_active):
                if ref.integrate_step(n, rf, spikes[b, t]):
                    first = t
                    break
            firsts.append(first)
        expected = -1 if min(firsts) == NO_FIRE else int(np.argmin(firsts))
        assert winners[b] == expected
        assert race_image(net, spikes[b])[0] == expected


def snapped(weights: np.ndarray, cfg: ColaNetConfig) -> np.ndarray:
    """Weights rounded to the race's grid, computed apart from the network."""
    k = cfg.race_grid_bits
    return np.rint(weights * 2.0**k) / 2.0**k


def screen_margins(net: Network) -> np.ndarray:
    """Each neuron's screen margin 2^-14 * T * A_n + 2^-120, A_n being the
    sum of its |grid weight|, computed apart from the network."""
    absums = np.abs(snapped(net.weights, net.config)).sum(axis=1)
    return 2.0**-14 * net.config.steps_active * absums + 2.0**-120


def exact_calls(net: Network) -> list:
    """Record each exact settle of ``net`` as (counts, pixels, neurons,
    potentials)."""
    calls = []
    helper = net._exact

    def spy(counts, pixels, neurons):
        potentials = helper(counts, pixels, neurons)
        calls.append((np.array(counts), pixels, neurons, potentials.copy()))
        return potentials

    net._exact = spy
    return calls


def assert_settles_exact(settles, expected, net):
    """Every settled potential is bit-identical to the exact race's: each
    exact settle returns the dense float64 sums of its counts over the
    snapped weights, and those are the ``expected`` (B, T, N) potentials of
    one row over a window ending at the split or at T (from step 0 with
    leak)."""
    cfg = net.config
    steps = expected.shape[1]
    split = (race_start(net) + steps + 1) // 2
    for counts, pixels, neurons, potentials in settles:
        grid = snapped(net.weights, cfg)[np.ix_(neurons, pixels)]
        if cfg.leak:
            drives = np.diff(counts, axis=0, prepend=0.0) > 0
            dense = ref.whole_window_potentials(drives[None], grid.T, cfg.leak)[0]
        else:
            dense = counts.astype(np.float64) @ grid.T
        assert np.array_equal(potentials, dense)
        # With leak the sums run from step 0, so the window must start there.
        stops = [stop for stop in (split, steps) if not cfg.leak or stop == len(dense)]
        assert any(
            np.array_equal(potentials, expected[b, stop - len(dense) : stop][:, neurons])
            for b in range(len(expected))
            for stop in stops
        )


def potential_calls(net: Network) -> list:
    """Record each call of ``net``'s per-window product as (counts as
    passed, potentials), both step-major."""
    calls = []
    helper = net._potentials

    def spy(counts, weights):
        passed = counts.copy()
        potential = helper(counts, weights)
        calls.append((passed, potential.copy()))
        return potential

    net._potentials = spy
    return calls


def race_windows(net: Network, spikes: np.ndarray, pixels=ALL_PIXELS):
    """Race the (B, T, U) raster ``spikes``: the winners, and the
    ``potential_calls`` record of the race."""
    calls = potential_calls(net)
    try:
        winners = net.race(race_counts(spikes), pixels)
    finally:
        del net._potentials
    return winners, calls


class ReadRows(np.ndarray):
    """Cumulated counts that record each index the one-image race reads."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(self)[key]


def race_image(net: Network, spikes: np.ndarray, pixels=ALL_PIXELS):
    """The one-image race of a (T, U) raster, given its counts cumulated
    from step 0 as ``present_full`` gives them: the winner, and the row
    slices of the counts it read."""
    counts = np.cumsum(spikes, axis=0, dtype=np.float32).view(ReadRows)
    counts.reads = []
    return net._race_image(counts, pixels), counts.reads


def race_start(net: Network) -> int:
    """The first step the race should multiply, by brute force: with leak 0,
    the least step s at which (s + 1) times some neuron's positive grid mass
    reaches its threshold, or T when there is none; with leak, 0 unless no
    neuron can cross at all."""
    cfg = net.config
    peaks = np.maximum(snapped(net.weights, cfg), 0.0).sum(axis=1)
    for s in range(cfg.steps_active):
        if ((s + 1) * peaks >= net._thresholds).any():
            return 0 if cfg.leak else s
    return cfg.steps_active


def assert_windows_equal(calls, expected, net):
    """The race's windows hold the (B, T, N) ``expected`` potentials, each
    within its neuron's screen margin (``screen_margins``).

    The first covers steps [t0, split) of every row, t0 being
    ``race_start`` and split the midpoint of [t0, T) rounded up: no earlier
    step is multiplied, and no neuron could have crossed in one. The second,
    called only when some row has not crossed, covers the remaining steps of
    those rows, or with leak all of them again from step 0. With leak the
    potentials are float64, decayed over float32 drives.
    """
    thresholds = net._thresholds
    margins = screen_margins(net)
    steps = expected.shape[1]
    start = race_start(net)
    if start == steps:
        assert calls == []
        return
    split = (start + steps + 1) // 2
    assert not (expected[:, :start] >= thresholds).any()
    counts, potential = calls[0]
    assert counts.shape[:2] == (split - start, len(expected))
    assert potential.dtype == (np.float64 if net.config.leak else np.float32)
    assert (np.abs(potential - by_step(expected[:, start:split])) <= margins).all()
    crossed = (expected[:, start:split] >= thresholds).any(axis=(1, 2))
    pending = np.flatnonzero(~crossed)
    if not pending.size or split == steps:
        assert len(calls) == 1
        return
    assert len(calls) == 2
    rest = start if net.config.leak else split
    counts, potential = calls[1]
    assert counts.shape[:2] == (steps - rest, pending.size)
    assert (np.abs(potential - by_step(expected[pending, rest:])) <= margins).all()


def by_step(potentials: np.ndarray) -> np.ndarray:
    """(B, T, N) potentials in the race's step-major (T, B, N) order."""
    return potentials.transpose(1, 0, 2)


#: Adaptive-threshold coefficients the race is checked at: none, the
#: paper's default, the stable setting (whose races start at step 2) and
#: one at which a neuron can cross only at the last of 10 steps.
RACE_ALPHAS = [0.0, 0.023817, 2.5, 9.0]


def race_weights(rng, cfg: ColaNetConfig, family: str) -> np.ndarray:
    """Dense uniform weights, or sparse nonnegative templates of ~40 pixels
    each, like imprinted receptive fields."""
    shape = (cfg.neuron_count, 784)
    if family == "uniform":
        return rng.uniform(-0.3, 0.6, shape)
    return np.where(rng.random(shape) < 0.05, rng.uniform(0.0, 1.0, shape), 0.0)


def race_spikes(rng, batch: int, steps: int) -> np.ndarray:
    """Rasters whose rows mix silent, sparse, dense and saturated input."""
    density = rng.choice([0.0, 0.002, 0.02, 0.15, 1.0], size=(batch, 1, 1))
    return rng.random((batch, steps, 784)) < density


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(RACE_ALPHAS),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1, 5]),
    st.sampled_from(["uniform", "template"]),
)
def test_race_is_exact_on_its_weight_grid(seed, alpha, leak, batch, family):
    """Every potential the race screens, in both windows, lies within its
    neuron's margin of a dense float64 product over the rounded weights, and
    every potential it settles equals that product bit for bit; permuting
    pixels or racing rows alone changes no winner."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, leak=leak)
    weights = race_weights(rng, cfg, family)
    net = Network(cfg, weights=weights)
    spikes = race_spikes(rng, batch, cfg.steps_active)

    grid = snapped(weights, cfg)
    assert np.abs(grid - weights).max() <= 2.0 ** -(cfg.race_grid_bits + 1)
    # The screen's bounds enclose theta -+ m_n, m_n = 2^-14 T A_n + 2^-120.
    absums = np.abs(grid).sum(axis=1)  # exact: sums on the grid
    for lo, hi, theta, absum in zip(net._lows, net._highs, net._thresholds, absums):
        margin = Fraction(cfg.steps_active, 2**14) * Fraction(absum) + Fraction(1, 2**120)
        assert Fraction(lo) <= Fraction(theta) - margin
        assert Fraction(hi) >= Fraction(theta) + margin
    drive = spikes.astype(np.float64) @ grid.T
    expected = np.empty_like(drive)
    u = np.zeros_like(drive[:, 0, :])
    for t in range(cfg.steps_active):
        u = (1.0 - leak) * u + drive[:, t, :]
        expected[:, t, :] = u
    settles = exact_calls(net)
    winners, calls = race_windows(net, spikes)
    assert_windows_equal(calls, expected, net)
    assert_settles_exact(settles, expected, net)

    perm = rng.permutation(784)
    shuffled = Network(cfg, weights=weights[:, perm])
    settles = exact_calls(shuffled)
    shuffled_winners, calls = race_windows(shuffled, spikes[:, :, perm])
    assert_windows_equal(calls, expected, shuffled)
    assert_settles_exact(settles, expected, shuffled)
    assert np.array_equal(shuffled_winners, winners)
    for b in range(batch):
        alone = net.race(race_counts(spikes[b : b + 1]), ALL_PIXELS)
        assert np.array_equal(alone, winners[b : b + 1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(RACE_ALPHAS),
    st.sampled_from([1, 2, 3, 10]),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1, 5, 64]),
    st.sampled_from(["uniform", "template"]),
)
def test_race_matches_whole_window_oracle(seed, alpha, steps, leak, batch, family):
    """Both race shapes, started at their bound and split in two, pick the
    winners of the whole-window race from step 0, for odd windows, windows
    with no second half, batches with silent rows, and a pixel set that
    holds, besides every pixel that spikes, pixels that never do: the batch
    race on the whole batch, the one-image race on each row of the same
    counts."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, leak=leak, steps_active=steps)
    weights = race_weights(rng, cfg, family)
    net = Network(cfg, weights=weights)
    spikes = race_spikes(rng, batch, steps)
    potentials = ref.whole_window_potentials(spikes, snapped(weights, cfg).T, leak)
    expected = ref.first_crossing_winners(potentials, net._thresholds)
    pixels = np.flatnonzero(spikes.any(axis=(0, 1)) | (rng.random(784) < 0.1))
    counts = race_counts(spikes[:, :, pixels])
    assert np.array_equal(net.race(counts, pixels), expected)
    alone = [net._race_image(counts[:, b], pixels) for b in range(batch)]
    assert alone == expected.tolist()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    batch=st.sampled_from([1, 5, 64]),
    steps=st.sampled_from([1, 4]),
    neurons=st.sampled_from([1, 3, 90]),
    density=st.sampled_from([0.0, 0.003, 0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_crossings_match_the_reference_readout(
    batch, steps, neurons, density, seed
):
    """The batch read-out (``_screen``) picks the earliest step's lowest
    crossing index and marks the rows with none -1, on crossings dense
    enough to tie at every step, rows with no crossing and rows whose
    crossings all sit in the last step. Both bounds are 0.5, so crossings
    given as 0/1 potentials decide every row on the screen."""
    rng = np.random.default_rng(seed)
    crossed = rng.random((batch, steps, neurons)) < density
    crossed[::3] = False
    crossed[1::3, :-1] = False
    net = Network(ColaNetConfig(class_count=neurons, microcolumns=1, seed=0))
    net._lows = net._highs = np.full(neurons, 0.5)
    u = np.ascontiguousarray(by_step(crossed), dtype=np.float32)
    winners = net._screen(u, np.zeros((steps, batch, 0), np.float32), np.arange(0))
    expected = ref.first_crossing_winners(crossed.astype(np.float64), 0.5)
    assert winners.dtype == np.int64
    assert np.array_equal(winners, expected)
    assert (winners[::3] == -1).all()


def test_screen_settles_the_rows_whose_first_candidate_is_below_its_bound():
    """``_screen`` sends a row to ``_first_crossing``, with its own
    potentials and counts, exactly when its first candidate (earliest step,
    then lowest index, at or above its lower bound) lies below its upper
    bound. A first candidate at its upper bound wins on the screen, whatever
    crosses later, and a row with no candidate is -1 without a settle."""
    net = Network(ColaNetConfig(class_count=3, microcolumns=1, seed=0))
    net._lows = np.full(3, 0.25)
    net._highs = np.array([0.5, 0.75, 0.5])
    u = np.full((2, 5, 3), 0.125, dtype=np.float32)
    u[0, 0, 2] = 0.5  # at its bound: wins; the later 1.0 does not matter
    u[1, 0, 0] = 1.0
    u[1, 1, 1:] = [0.5, 1.0]  # below neuron 1's bound, beside a sure crossing
    u[:, 3, 0] = [0.375, 1.0]  # below the bound at step 0, above it at step 1
    u[:, 4, 0] = [0.0, 0.5]  # at the bound, at step 1
    counts = np.random.default_rng(0).random((2, 5, 4)).astype(np.float32)
    settled = []

    def settle(row_u, row_counts, pixels):
        settled.append((row_u, row_counts))
        return 9

    net._first_crossing = settle
    winners = net._screen(u, counts, np.arange(4))
    assert winners.tolist() == [2, 9, -1, 9, 0]
    assert len(settled) == 2
    for (row_u, row_counts), row in zip(settled, [1, 3]):
        assert np.array_equal(row_u, u[:, row])
        assert np.array_equal(row_counts, counts[:, row])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(RACE_ALPHAS),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([2, 5, 64]),
    st.sampled_from(["uniform", "template"]),
)
def test_screen_reads_each_row_as_the_one_image_race(seed, alpha, leak, batch, family):
    """On a whole window's potentials from random weights and counts, the
    batch read-out's winners are ``_first_crossing``'s, row by row: rows
    decided on the screen, rows settled on exact sums (some forced there by
    a potential moved between its neuron's bounds) and undecided rows (row 0
    is silent)."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, leak=leak)
    net = Network(cfg, weights=race_weights(rng, cfg, family))
    spikes = race_spikes(rng, batch, cfg.steps_active)
    spikes[0] = False
    pixels = np.flatnonzero(spikes.any(axis=(0, 1)) | (rng.random(784) < 0.1))
    counts = race_counts(spikes[:, :, pixels])
    u = net._potentials(counts, net._drive_w[pixels])
    rows = 1 + np.flatnonzero(rng.random(batch - 1) < 0.3)
    steps = rng.integers(0, cfg.steps_active, rows.size)
    neurons = rng.integers(0, cfg.neuron_count, rows.size)
    u[steps, rows, neurons] = (net._lows[neurons] + net._highs[neurons]) / 2
    winners = net._screen(u, counts, pixels)
    alone = [net._first_crossing(u[:, b], counts[:, b], pixels) for b in range(batch)]
    assert winners.tolist() == alone
    assert winners[0] == -1


def two_window_batch() -> tuple[Network, np.ndarray]:
    """A 2x1 network and four presentations over a 10-step window.

    Neuron 0 sums 0.25 per spike of pixels 0..9 and neuron 1 per spike of
    pixel 100; both thresholds are 1. Row 0 crosses at step 0 (neuron 0),
    row 1 is silent, row 2 crosses at step 3 (neuron 0), and row 3 spikes
    pixel 100 at steps 2 and 7..9, so neuron 1 carries 0.25 into the second
    half and crosses at step 9.
    """
    cfg = ColaNetConfig(class_count=2, microcolumns=1, alpha=0.0, seed=0)
    weights = np.zeros((2, 784))
    weights[0, :10] = 0.25
    weights[1, 100] = 0.25
    spikes = np.zeros((4, cfg.steps_active, 784), dtype=bool)
    spikes[0, :, :10] = True
    spikes[2, :, 0] = True
    spikes[3, [2, 7, 8, 9], 100] = True
    return Network(cfg, weights=weights), spikes


def test_race_winner_crossing_in_second_half_matches_oracle():
    net, spikes = two_window_batch()
    potentials = ref.whole_window_potentials(spikes, snapped(net.weights, net.config).T, 0.0)
    expected = ref.first_crossing_winners(potentials, net._thresholds)
    assert expected.tolist() == [0, -1, 0, 1]
    assert np.array_equal(net.race(race_counts(spikes), ALL_PIXELS), expected)
    assert [race_image(net, raster)[0] for raster in spikes] == expected.tolist()


#: Near ties between a threshold and an exact grid sum whose float32 sum
#: falls on the other side of it: (threshold, pixel weights, exact winner).
#: Four weights 0.25 - 2^-39 sum to 1 - 2^-37 but round to 0.25 each, so
#: float32 reaches 1; 0.5 + 2^-30 and 0.25 reach their threshold exactly,
#: but 0.5 + 2^-30 rounds to 0.5.
NEAR_TIES = {
    "float32 over": (1.0, [0.25 - 2.0**-39] * 4, -1),
    "float32 under": (0.75 + 2.0**-30, [0.5 + 2.0**-30, 0.25], 0),
}


@pytest.mark.parametrize("case", sorted(NEAR_TIES))
@pytest.mark.parametrize("leak", [0.0, 0.1])
@pytest.mark.parametrize("step", [0, 7])
def test_near_ties_the_float32_sums_get_wrong_are_settled_exactly(case, leak, step):
    """One neuron whose pixels all spike once, at ``step``: its float32 sum
    and its exact sum lie on opposite sides of the threshold. Both race
    shapes settle it on the exact sum and pick the oracle's winner."""
    threshold, pixel_weights, winner = NEAR_TIES[case]
    cfg = ColaNetConfig(
        class_count=1, microcolumns=1, alpha=0.0, u_const=threshold, leak=leak
    )
    weights = np.zeros((1, 784))
    weights[0, : len(pixel_weights)] = pixel_weights
    net = Network(cfg, weights=weights)
    spikes = np.zeros((1, cfg.steps_active, 784), dtype=bool)
    spikes[0, step, : len(pixel_weights)] = True
    exact = ref.whole_window_potentials(spikes, snapped(weights, cfg).T, leak)
    assert ref.first_crossing_winners(exact, net._thresholds).tolist() == [winner]
    # A Python float beside a float32 scalar compares in float32: widen it.
    screened = float(np.float32(pixel_weights).sum(dtype=np.float32))
    assert (screened >= threshold) != (exact[0, step, 0] >= threshold)

    settles = exact_calls(net)
    assert net.race(race_counts(spikes), ALL_PIXELS).tolist() == [winner]
    assert settles
    settles.clear()
    assert race_image(net, spikes[0])[0] == winner
    assert settles


def test_screened_leaky_potentials_decay_in_float64():
    """With weights whose float32 sums are exact (multiples of 2^-6), the
    screened potentials with leak equal the exact race's bit for bit: the
    decay runs in float64, as the exact race's does. Both windows are
    pinned, in both race shapes: the first half of the window, then, for
    rows with no crossing, the whole window again from step 0."""
    rng = np.random.default_rng(3)
    cfg = small_config(alpha=0.0, leak=0.1, u_const=50.0)
    weights = rng.integers(0, 64, (cfg.neuron_count, 784)) / 64.0
    net = Network(cfg, weights=weights)
    spikes = rng.random((4, cfg.steps_active, 784)) < 0.01
    expected = ref.whole_window_potentials(spikes, weights.T, cfg.leak)
    winners, calls = race_windows(net, spikes)
    assert winners.tolist() == ref.first_crossing_winners(expected, 50.0).tolist()
    split = (cfg.steps_active + 1) // 2
    pending = np.flatnonzero(winners < 0)
    assert pending.size and len(calls) == 2
    assert np.array_equal(calls[0][1], by_step(expected[:, :split]))
    assert np.array_equal(calls[1][1], by_step(expected[pending]))
    calls = potential_calls(net)
    for row in pending:
        calls.clear()
        assert race_image(net, spikes[row])[0] == -1
        windows = [potential[:, 0] for _, potential in calls]
        assert len(windows) == 2
        assert np.array_equal(windows[0], expected[row, :split])
        assert np.array_equal(windows[1], expected[row])


@pytest.mark.parametrize("leak", [0.0, 0.1])
def test_race_is_exact_below_float32_normal_range(leak):
    """At u_const = 1e-29 and weights within 1e-30 (grid 2^-138), weights
    and products fall below float32's normal range, some of them deep into
    its subnormals; both race shapes still pick the exact race's winners."""
    cfg = small_config(
        alpha=0.5, leak=leak, u_const=1e-29, w_min=-1e-30, w_max=1e-30, init_high=1e-30
    )
    assert cfg.race_grid_bits == 138
    rng = np.random.default_rng(11)
    for _ in range(20):
        weights = race_weights(rng, cfg, "template") * 1e-30
        tiny = rng.random(weights.shape) < 0.02
        weights[tiny] = rng.choice([2.0**-130, -(2.0**-135), 3 * 2.0**-138], tiny.sum())
        net = Network(cfg, weights=weights)
        spikes = race_spikes(rng, 8, cfg.steps_active)
        potentials = ref.whole_window_potentials(spikes, snapped(weights, cfg).T, leak)
        expected = ref.first_crossing_winners(potentials, net._thresholds)
        assert np.array_equal(net.race(race_counts(spikes), ALL_PIXELS), expected)
        assert [race_image(net, raster)[0] for raster in spikes] == expected.tolist()


def test_second_window_races_only_rows_that_did_not_cross():
    """The early exit: rows settled in the first window are not raced again,
    and no second window runs when every row crossed in the first. The
    second window's counts are the pending rows' counts cumulated from
    step 0."""
    net, spikes = two_window_batch()
    half = (net.config.steps_active + 1) // 2  # neuron 0 can cross at step 0
    winners, calls = race_windows(net, spikes)
    assert winners.tolist() == [0, -1, 0, 1]
    assert len(calls) == 2
    counts, _ = calls[1]
    pending = [1, 3]
    later = np.cumsum(spikes[pending], axis=1)[:, half:]
    assert np.array_equal(counts, by_step(later))

    winners, calls = race_windows(net, spikes[[0, 2]])
    assert winners.tolist() == [0, 0]
    assert len(calls) == 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(RACE_ALPHAS),
    st.sampled_from([1, 3, 10]),
)
def test_race_starts_at_the_first_step_any_neuron_can_cross(seed, alpha, steps):
    """Each neuron's cached earliest step is the least s with
    (s + 1) * (positive grid mass) >= threshold; the race multiplies no step
    before the least of them, and that bound is tight: with nonnegative
    weights and every pixel spiking at every step, a neuron crosses exactly
    there. The one-image race reads no count before that step either."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, steps_active=steps)
    weights = race_weights(rng, cfg, "template")
    net = Network(cfg, weights=weights)
    peaks = np.maximum(snapped(weights, cfg), 0.0).sum(axis=1)
    thresholds = net._thresholds
    for flat in range(cfg.neuron_count):
        first = next(
            (s for s in range(steps) if (s + 1) * peaks[flat] >= thresholds[flat]),
            steps,
        )
        assert net._first_steps[flat] == first
    start = race_start(net)
    assert start == min(net._first_steps)

    spikes = np.ones((2, steps, 784), dtype=bool)
    winners, calls = race_windows(net, spikes)
    winner, reads = race_image(net, spikes[0])
    assert winner == winners[0]
    assert all(rows.start >= start for rows in reads)
    if start == steps:
        assert calls == [] and winners.tolist() == [-1, -1] and reads == []
        return
    counts, potential = calls[0]
    assert counts.shape[0] == (start + steps + 1) // 2 - start
    assert np.array_equal(counts[0], np.full((2, 784), start + 1.0))
    # Saturated input drives each neuron by its whole (nonnegative) mass.
    assert (potential[0] >= thresholds).any(axis=1).all()
    assert winners.tolist() == [int(np.argmax(net._first_steps == start))] * 2


def test_race_bound_handles_extremes():
    assert _first_step(3.0, 1.0, 10) == 2  # (2 + 1) * 1 reaches 3 exactly
    assert _first_step(math.nextafter(3.0, 4.0), 1.0, 10) == 3
    assert _first_step(10.0, 1.0, 10) == 9
    assert _first_step(math.nextafter(10.0, 11.0), 1.0, 10) == 10
    assert _first_step(1.0, 0.0, 10) == 10  # no positive weight
    assert _first_step(1e300, 2.0**-40, 10) == 10  # a quotient that overflows
    assert _first_step(1e-300, 1.0, 10) == 0
    # Thresholds one float either side of a multiple of a grid mass.
    rng = np.random.default_rng(0)
    for _ in range(2000):
        peak = float(rng.integers(1, 2**40)) * 2.0**-39
        exact = float(rng.integers(1, 10)) * peak
        below, above = math.nextafter(exact, 0.0), math.nextafter(exact, math.inf)
        threshold = float(rng.choice([below, exact, above]))
        first = next((s for s in range(10) if (s + 1) * peak >= threshold), 10)
        assert _first_step(threshold, peak, 10) == first


def test_untrained_network_with_zero_weights_races_nothing():
    """With init_high = 0 no weight is positive, so no neuron can cross:
    every row is -1 and nothing is multiplied."""
    net = Network(ColaNetConfig(microcolumns=3, init_high=0.0))
    spikes = np.ones((4, net.config.steps_active, 784), dtype=bool)
    winners, calls = race_windows(net, spikes)
    assert winners.tolist() == [-1] * 4
    assert calls == []
    assert race_image(net, spikes[0]) == (-1, [])


def test_simultaneous_crossing_breaks_toward_lowest_flat_index():
    cfg = ColaNetConfig(class_count=2, microcolumns=1, alpha=0.0, seed=0)
    # Both neurons cross on the first step; the second even has more drive.
    weights = np.stack([np.full(784, 0.01), np.full(784, 0.02)])
    net = Network(cfg, weights=weights)
    img = np.full((1, 784), 255, dtype=np.uint8)
    spikes = encode_raster(img, cfg.steps_active, np.random.default_rng(0))
    assert net.race(race_counts(spikes), ALL_PIXELS).tolist() == [0]
    assert race_image(net, spikes[0])[0] == 0


# ------------------------------------------------------------- teacher forcing


def fixed_net(**overrides) -> Network:
    """2x2 network with one strong neuron (0,0) tuned to pixels 0..9."""
    fields = dict(class_count=2, microcolumns=2, alpha=0.0, seed=0) | overrides
    cfg = ColaNetConfig(**fields)
    weights = np.zeros((4, 784))
    weights[0, :10] = 0.2  # fires on the probe image
    weights[2, 100:110] = 0.05  # committed micro of column 1
    weights[3, 200:205] = 0.01  # least-committed micro of column 1
    return Network(cfg, weights=weights)


def probe_img() -> np.ndarray:
    img = np.zeros(784, dtype=np.uint8)
    img[:10] = 255
    return img


def test_designated_microcolumn_least_positive_mass():
    net = fixed_net()
    assert net.designated_microcolumn(0) == 1  # flat 1 has zero mass
    assert net.designated_microcolumn(1) == 1  # 0.05 (flat 3) < 0.5 (flat 2)


def test_designated_microcolumn_tie_goes_low():
    net = Network(small_config(), weights=np.zeros((6, 784)))
    assert net.designated_microcolumn(1) == 0


def test_correct_winner_is_potentiated_only():
    net = fixed_net()
    before = net.weights.copy()
    outcome = train_sample(net, presentation(net, probe_img()), label=0)
    assert outcome.raw_winner == (0, 0)
    assert outcome.effective_winner == (0, 0)
    assert (net.weights[0, :10] > before[0, :10]).all()
    assert np.array_equal(net.weights[1:], before[1:])


def test_wrong_winner_depressed_and_designated_potentiated():
    net = fixed_net()
    before = net.weights.copy()
    outcome = train_sample(net, presentation(net, probe_img()), label=1)
    assert outcome.raw_winner == (0, 0)
    assert outcome.effective_winner == (1, 1)
    # Raw winner loses mass on the active pixels.
    assert (net.weights[0, :10] < before[0, :10]).all()
    # The labeled column's least-committed microcolumn (flat 3) gains.
    assert (net.weights[3, :10] > before[3, :10]).all()
    # The committed microcolumn of column 1 and column 0's spare are untouched.
    assert np.array_equal(net.weights[1], before[1])
    assert np.array_equal(net.weights[2], before[2])


def test_silent_presentation_potentiates_designated_only():
    cfg = ColaNetConfig(class_count=2, microcolumns=2, alpha=0.0, u_const=1e9)
    net = Network(cfg, weights=np.zeros((4, 784)))
    before = net.weights.copy()
    outcome = train_sample(net, presentation(net, probe_img()), label=1)
    assert outcome.raw_winner is None
    assert outcome.effective_winner == (1, 0)
    assert (net.weights[2, :10] > before[2, :10]).all()
    changed = [i for i in range(4) if not np.array_equal(net.weights[i], before[i])]
    assert changed == [2]


def test_present_full_eligibility_is_the_float_spike_count():
    """The eligibility, read off the last step of the cumulated counts, is
    the raster's per-pixel spike count, and the raw winner is the batch
    race's on the same raster: for a sparse image, a saturated one and a
    black one, with and without leak, over one step and ten, from a network
    that races and one that races none."""
    rng = np.random.default_rng(1)
    sparse = rng.integers(0, 256, 784).astype(np.uint8)
    sparse[rng.random(784) < 0.8] = 0
    images = [sparse, np.full(784, 255, dtype=np.uint8), np.zeros(784, np.uint8)]
    for steps, leak, init_high in itertools.product((1, 10), (0.0, 0.1), (0.01, 0.0)):
        cfg = small_config(alpha=0.0, steps_active=steps, leak=leak, init_high=init_high)
        net = Network(cfg)
        for img in images:
            draw = copy.deepcopy(net.rng)  # the draw presentation() is to make
            spikes = encode_raster(img[None], steps, draw)
            drawn = presentation(net, img)
            outcome, eligibility = net.present_full(drawn, 0), drawn.eligibility
            assert eligibility.dtype == np.float64
            assert np.array_equal(eligibility, spikes[0].sum(axis=0))
            winner = int(net.race(race_counts(spikes), ALL_PIXELS)[0])
            flat = -1 if outcome.raw_winner is None else net._flat(*outcome.raw_winner)
            assert flat == winner


def test_train_sample_rejects_bad_label():
    net = fixed_net()
    with pytest.raises(ValueError):
        train_sample(net, presentation(net, probe_img()), label=2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_plasticity_touches_at_most_two_neurons(seed):
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=0.02)
    net = Network(cfg, weights=rng.uniform(-0.2, 0.4, (cfg.neuron_count, 784)))
    img = rng.integers(0, 256, 784, dtype=np.uint8)
    before = net.weights.copy()
    label = int(rng.integers(0, cfg.class_count))
    train_sample(net, presentation(net, img), label=label)
    changed = [
        i
        for i in range(cfg.neuron_count)
        if not np.array_equal(net.weights[i], before[i])
    ]
    assert len(changed) <= 2


def test_renormalization_conserves_row_mass():
    cfg = ColaNetConfig(
        class_count=2, microcolumns=1, alpha=0.0, u_const=1e9, ns=0, eta_plus=0.01
    )
    rng = np.random.default_rng(0)
    net = Network(cfg, weights=rng.uniform(0.1, 0.2, (2, 784)))
    before = net.weights[1].sum()
    train_sample(net, presentation(net, probe_img()), label=1)
    assert not np.array_equal(net.weights[1], Network(cfg).weights[1])
    assert net.weights[1].sum() == pytest.approx(before, rel=1e-9)


def test_cached_positive_sums_stay_consistent(tmp_path):
    """The positive mass, float32 race view, thresholds, earliest steps and
    screen bounds follow every depression and potentiation bit for bit,
    with and without renormalization and leak, as a network built from the
    same weights derives them; load rebuilds them."""
    for ns in (None, 0, 100):
        for leak in (0.0, 0.1):
            net = fixed_net(alpha=0.25, ns=ns, leak=leak)
            img = probe_img()
            outcomes = [
                train_sample(net, presentation(net, img), label)
                for label in (0, 1, 0, 1)
            ]
            # A wrong-column winner was depressed, and others potentiated.
            assert any(o.raw_winner not in (None, o.effective_winner) for o in outcomes)
            fresh = Network(net.config, weights=net.weights.copy())
            assert np.array_equal(net._pos_sum, fresh._pos_sum)
            positive = np.maximum(net.weights, 0.0).sum(axis=1)
            assert np.array_equal(net._pos_sum, positive)
            view = np.float32(snapped(net.weights, net.config)).T
            assert net._drive_w.dtype == np.float32
            assert np.array_equal(net._drive_w, view)
            assert np.array_equal(net._thresholds, fresh._thresholds)
            assert np.array_equal(net._first_steps, fresh._first_steps)
            assert np.array_equal(net._lows, fresh._lows)
            assert np.array_equal(net._highs, fresh._highs)
            path = str(tmp_path / f"net_{ns}_{leak}.bin")
            save_state(net, path)
            loaded = load_state(path)
            assert np.array_equal(loaded._drive_w, view)
            assert np.array_equal(loaded._lows, fresh._lows)
            assert np.array_equal(loaded._highs, fresh._highs)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(3, 2), (10, 7), (10, 13)]),
    st.sampled_from([None, 0]),
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 129), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=12,
    ),
)
def test_one_derivation_serves_any_rows(shape, ns, updates):
    """``_learn`` re-derives its one row, construction every row in passes of
    64: after any sequence of depressions and potentiations, on networks of
    6, 70 and 130 rows (within one pass, across a pass boundary and beyond),
    the six derived arrays equal those of a network built from the same
    weights byte for byte."""
    class_count, microcolumns = shape
    cfg = ColaNetConfig(class_count=class_count, microcolumns=microcolumns, alpha=0.25, ns=ns)
    net = Network(cfg)
    for potentiates, row, seed in updates:
        rng = np.random.default_rng(seed)
        eligibility = rng.integers(0, 11, 784) * (rng.random(784) < 0.2)
        rule = potentiate if potentiates else depress
        net._learn(rule, row % cfg.neuron_count, eligibility.astype(np.float64))
    fresh = Network(cfg, weights=net.weights.copy())
    for name in ("_drive_w", "_pos_sum", "_thresholds", "_first_steps", "_lows", "_highs"):
        derived, expected = getattr(net, name), getattr(fresh, name)
        assert derived.dtype == expected.dtype, name
        assert derived.tobytes() == expected.tobytes(), name


def test_deriving_the_race_state_needs_bounded_scratch():
    """Construction derives the race state 64 rows at a time: at M=200
    (2000 rows) it peaks less than 3 MB above what the network keeps, where
    one more C*M x 784 float64 grid would take 12.5 MB."""
    tracemalloc.start()
    try:
        net = Network(ColaNetConfig(microcolumns=200))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.weights.nbytes + net._drive_w.nbytes <= kept
    assert peak - kept < 3 * 2**20


@pytest.mark.parametrize("steps", [10, 700])
def test_block_boundaries_do_not_move_training(steps, monkeypatch):
    """Training draws a block of images at a time; blocks of 1, 7 and the
    default size leave identical weight bytes and generator state, over a
    split with an all-black image, an all-lit one and glyphs. At 700 steps
    the cap of 2^20 uniforms per block makes every block one image."""
    images, labels = sparse_glyph_stream(150, seed=3)
    images[5] = 0
    images[20] = np.random.default_rng(4).integers(1, 256, 784)
    split = LabeledDataset(images, labels)
    task = TaskSpec(task_id=1, train=split, test=split)
    encode, sizes, states = colanet.encode_active_batch, {}, set()
    for block in (None, 1, 7):
        if block is not None:
            monkeypatch.setattr(colanet, "_TRAIN_BATCH", block)
        drawn = sizes.setdefault(block, [])

        def recording_encode(images, steps_active, rng):
            drawn.append(len(images))
            return encode(images, steps_active, rng)

        monkeypatch.setattr(colanet, "encode_active_batch", recording_encode)
        cfg = ColaNetConfig(microcolumns=5, alpha=2.5, ns=0, steps_active=steps, seed=4)
        net = Network(cfg)
        train_task(net, task)
        states.add((net.weights.tobytes(), repr(net.rng.bit_generator.state)))
    assert len(states) == 1
    assert sizes[1] == [1] * 150
    if steps == 700:
        assert sizes[None] == sizes[7] == [1] * 150
    else:
        assert sizes[None] == [64, 64, 22]
        assert sizes[7] == [7] * 21 + [3]


# ------------------------------------------------------------------ inference


def reseeded(net: Network, seed: int) -> Network:
    """``net``'s weights in a network whose config has another ``seed``, and
    so another evaluation noise stream."""
    return Network(dataclasses.replace(net.config, seed=seed), weights=net.weights)


def evaluate_recording(net: Network, task) -> tuple[float, list[np.ndarray]]:
    """``evaluate_task``'s accuracy and the winners of each ``Network.race``
    batch it raced."""
    race, batches = net.race, []

    def recording_race(counts, pixels):
        batches.append(race(counts, pixels))
        return batches[-1]

    net.race = recording_race
    try:
        return evaluate_task(net, task), batches
    finally:
        del net.race


def test_learning_on_disjoint_supports_is_perfect():
    task = stripes_task()
    net = Network(ColaNetConfig(microcolumns=2, seed=0))
    train_task(net, task)
    assert evaluate_task(net, task) == 1.0


def test_single_image_imprint_predicts_its_class():
    task = stripes_task()
    net = Network(ColaNetConfig(microcolumns=2, seed=0))
    img = task.train.images[3]
    label = int(task.train.labels[3])
    train_sample(net, presentation(net, img), label)
    train_sample(net, presentation(net, img), label)
    only = LabeledDataset(img[None].copy(), np.array([label]))
    assert evaluate_task(reseeded(net, 1), dataclasses.replace(task, test=only)) == 1.0


def test_evaluate_task_deterministic_and_pure():
    task = stripes_task(class_count=4)
    cfg = ColaNetConfig(class_count=4, microcolumns=2, seed=3)
    trained = Network(cfg)
    train_task(trained, task)
    net = reseeded(trained, 11)
    weights_before = net.weights.copy()
    rng_before = net.rng.bit_generator.state
    a = evaluate_task(net, task)
    b = evaluate_task(net, task)
    c = evaluate_task(reseeded(trained, 12), task)
    assert a == b
    assert isinstance(c, float)
    assert np.array_equal(net.weights, weights_before)
    assert net.rng.bit_generator.state == rng_before


def test_evaluate_task_matches_reference_reimplementation():
    """Batched evaluation equals a from-scratch single-pass simulation."""
    rng = np.random.default_rng(42)
    cfg = ColaNetConfig(class_count=4, microcolumns=3, alpha=0.05, seed=9)
    net = Network(cfg, weights=rng.uniform(-0.05, 0.08, (cfg.neuron_count, 784)))
    images = rng.integers(0, 256, size=(60, 784), dtype=np.uint8)
    labels = rng.integers(0, 4, size=60).astype(np.int64)
    task = TaskSpec(
        task_id=2,
        train=LabeledDataset(images[:1], labels[:1]),
        test=LabeledDataset(images, labels),
    )

    got = evaluate_task(reseeded(net, 77), task)

    eval_rng = generator_from(77, "eval", task.task_id)
    spikes = encode_raster(images, cfg.steps_active, eval_rng)
    thresholds = net._thresholds
    correct = 0
    for i in range(len(images)):
        potential = np.zeros(cfg.neuron_count)
        first = np.full(cfg.neuron_count, NO_FIRE, dtype=np.int64)
        for t in range(cfg.steps_active):
            potential = potential + spikes[i, t].astype(float) @ net.weights.T
            newly = (potential >= thresholds) & (first == NO_FIRE)
            first[newly] = t
        if (first == NO_FIRE).all():
            predicted = 0
        else:
            predicted = int(first.argmin()) // cfg.microcolumns
        correct += predicted == labels[i]
    assert got == correct / len(images)


def assert_batch_size_free(monkeypatch, net: Network, images, labels) -> None:
    """Every image's winner, and so the accuracy, is the same at evaluation
    batches (``_EVAL_BATCH``) of 1, 7, 64 and 256, and neither trivial."""
    test = LabeledDataset(images, labels)
    task = TaskSpec(task_id=3, train=test, test=test)
    runs = []
    for size in (1, 7, 64, 256):
        monkeypatch.setattr(colanet, "_EVAL_BATCH", size)
        accuracy, batches = evaluate_recording(net, task)
        assert [len(b) for b in batches[:-1]] == [size] * (len(batches) - 1)
        runs.append((accuracy, np.concatenate(batches)))
    accuracy, winners = runs[0]
    for other, other_winners in runs[1:]:
        assert other == accuracy and np.array_equal(other_winners, winners)
    assert 0.0 < accuracy < 1.0 and (winners < 0).sum() < len(labels)


def test_evaluate_task_does_not_depend_on_batch_size(monkeypatch):
    rng = np.random.default_rng(8)
    cfg = ColaNetConfig(class_count=4, microcolumns=3, alpha=0.05, seed=2)
    net = Network(cfg, weights=rng.uniform(-0.05, 0.08, (cfg.neuron_count, 784)))
    images = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
    images[rng.random(images.shape) < 0.8] = 0  # sparse, like glyphs
    labels = rng.integers(0, 4, size=300).astype(np.int64)
    assert_batch_size_free(monkeypatch, net, images, labels)


def test_evaluate_task_from_a_later_race_start_does_not_depend_on_batch_size(monkeypatch):
    """Each batch races over its own nonzero pixels and draws per nonzero
    pixel; a network trained at alpha = 2.5 races from step 2 on."""
    images, labels = sparse_glyph_stream(300, seed=8)
    net = Network(ColaNetConfig(microcolumns=5, alpha=2.5, ns=0, seed=2))
    for img, label in zip(images, labels):
        train_sample(net, presentation(net, img), int(label))
    assert min(net._first_steps) == 2
    assert_batch_size_free(monkeypatch, net, images, labels)


def test_evaluate_task_permutes_one_batch_not_the_split():
    """A permuted split is permuted one 64-image batch at a time: it costs
    about one uint8 batch (49 KiB) over the same split unpermuted, not a
    permuted copy of all 10000 images (7.5 MiB)."""
    images, labels = sparse_glyph_stream(10000)
    net = Network(ColaNetConfig(class_count=10, microcolumns=2))
    peaks = [
        traced_peak(evaluate_task, net, TaskSpec(2, split, split))
        for split in (
            LabeledDataset(images, labels),
            LabeledDataset(images, labels, gen_permutation(7)),
        )
    ]
    assert peaks[1] - peaks[0] < 2 * 64 * 784


def test_evaluate_task_counts_silent_presentations():
    cfg = ColaNetConfig(class_count=2, microcolumns=1, u_const=1e9)
    net = Network(cfg, weights=np.zeros((2, 784)))
    task = stripes_task(class_count=2)
    acc, batches = evaluate_recording(net, task)
    winners = np.concatenate(batches)
    assert len(winners) == len(task.test) and (winners == -1).all()
    # Silent presentations predict class 0, so accuracy is class 0's share.
    assert acc == pytest.approx(float((task.test.labels == 0).mean()))


# -------------------------------------------------------------- serialization


def trained_small_net() -> Network:
    task = stripes_task(class_count=3)
    cfg = ColaNetConfig(class_count=3, microcolumns=2, ns=0, seed=5)
    net = Network(cfg)
    train_task(net, task)
    return net


def test_save_load_roundtrip(tmp_path):
    net = trained_small_net()
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    loaded = load_state(path)
    assert loaded.config == net.config
    assert np.array_equal(loaded.weights, net.weights)
    probes = np.random.default_rng(0).integers(0, 256, (50, 784), dtype=np.uint8)
    counts = race_counts(np.concatenate([
        encode_raster(img[None], 10, generator_from(1, "probe", i))
        for i, img in enumerate(probes)
    ]))
    assert np.array_equal(
        net.race(counts, ALL_PIXELS), loaded.race(counts, ALL_PIXELS)
    )


def test_save_load_preserves_training_stream(tmp_path):
    """Continued training after a reload is bit-identical, which requires
    the serialized generator state to be exact."""
    net = trained_small_net()
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    loaded = load_state(path)
    task = stripes_task(class_count=3)
    for i in range(6):
        img = task.train.images[i]
        label = int(task.train.labels[i])
        train_sample(net, presentation(net, img), label)
        train_sample(loaded, presentation(loaded, img), label)
    assert np.array_equal(net.weights, loaded.weights)


def test_save_load_preserves_ns_sentinel(tmp_path):
    for ns in (None, math.inf, 0, 37):
        cfg = ColaNetConfig(class_count=2, microcolumns=1, ns=ns)
        path = str(tmp_path / f"ns_{ns}.bin")
        save_state(Network(cfg), path)
        loaded = load_state(path)
        if ns in (None, math.inf):
            assert loaded.config.ns is None
        else:
            assert loaded.config.ns == ns
    # "Off" is written as infinity, as it always was.
    off = (tmp_path / "ns_None.bin").read_bytes()
    assert off == (tmp_path / "ns_inf.bin").read_bytes()
    stored = dict(zip(CONFIG_FIELDS, struct.unpack_from(CONFIG_PACK, off, 8)))
    assert stored["ns"] == math.inf


def test_save_load_keeps_the_largest_seed(tmp_path):
    cfg = ColaNetConfig(class_count=2, microcolumns=1, seed=2**64 - 1)
    path = str(tmp_path / "net.bin")
    save_state(Network(cfg), path)
    assert load_state(path).config == cfg


def test_config_block_holds_every_field_once():
    """Each ColaNetConfig field has exactly one slot of the state file's
    config block, and ``_CONFIG_PACK`` has one item of the field's type per
    slot, so a new field cannot be left out of checkpoints unnoticed."""
    names = [f.name for f in dataclasses.fields(ColaNetConfig)]
    assert sorted(CONFIG_FIELDS) == sorted(names + ["reserved"])
    codes = CONFIG_PACK.replace(" ", "")[1:]
    assert len(codes) == len(CONFIG_FIELDS)
    defaults = dict(vars(ColaNetConfig()), reserved=10)
    for name, code in zip(CONFIG_FIELDS, codes):
        is_float = defaults[name] is None or isinstance(defaults[name], float)
        assert (code == "d") == is_float, name


def test_reserved_config_slot_is_written_as_10_and_ignored(tmp_path):
    """The slot that held the silent-tail length keeps format 1's bytes: it
    is written as 10, and a file holding another value loads the same."""
    edited = load_state(corrupt_config(tmp_path, reserved=5))
    original = tmp_path / "net.bin"
    stored = struct.unpack_from(CONFIG_PACK, original.read_bytes(), 8)
    assert dict(zip(CONFIG_FIELDS, stored))["reserved"] == 10
    net = load_state(str(original))
    assert edited.config == net.config
    assert np.array_equal(edited.weights, net.weights)
    assert edited.rng.bit_generator.state == net.rng.bit_generator.state


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 100)
    with pytest.raises(StateFormatError, match="magic"):
        load_state(str(path))


def test_load_rejects_bad_version(tmp_path):
    net = Network(ColaNetConfig(class_count=2, microcolumns=1))
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[4:8] = struct.pack("<I", 999)
    bad = tmp_path / "ver.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(StateFormatError, match="version"):
        load_state(str(bad))


def test_load_rejects_truncation_and_trailing(tmp_path):
    net = Network(ColaNetConfig(class_count=2, microcolumns=1))
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    with open(path, "rb") as fh:
        data = fh.read()
    short = tmp_path / "short.bin"
    short.write_bytes(data[:-30])
    with pytest.raises(StateFormatError, match="truncated"):
        load_state(str(short))
    # Every cut inside the header (magic, version, config block) and a
    # sample through the weights and generator state fails with the typed
    # error only.
    header_len = 8 + struct.calcsize(CONFIG_PACK)
    for cut in truncation_cuts(len(data), header_len):
        short.write_bytes(data[:cut])
        with pytest.raises(StateFormatError):
            load_state(str(short))
    long = tmp_path / "long.bin"
    long.write_bytes(data + b"z")
    with pytest.raises(StateFormatError, match="trailing"):
        load_state(str(long))


def corrupt_config(tmp_path, **fields) -> str:
    """A valid 2x1 state file whose config block carries other field values."""
    net = Network(ColaNetConfig(class_count=2, microcolumns=1))
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    values = dict(
        zip(CONFIG_FIELDS, struct.unpack_from(CONFIG_PACK, data, 8))
    )
    values.update(fields)
    struct.pack_into(CONFIG_PACK, data, 8, *values.values())
    bad = tmp_path / "corrupt.bin"
    bad.write_bytes(bytes(data))
    return str(bad)


def test_load_rejects_invalid_config_block(tmp_path):
    with pytest.raises(StateFormatError, match="config"):
        load_state(corrupt_config(tmp_path, class_count=0))
    with pytest.raises(StateFormatError, match="config"):
        load_state(corrupt_config(tmp_path, ns=-784.0))
    with pytest.raises(StateFormatError, match="config"):
        load_state(corrupt_config(tmp_path, alpha=math.nan))


def test_load_checks_declared_size_before_reading(tmp_path):
    """A corrupt grid size declares ~10 TB of weights; the loader compares
    that with the file size instead of trying to read it."""
    path = corrupt_config(tmp_path, class_count=2**20, microcolumns=2**20)
    with pytest.raises(StateFormatError, match="truncated"):
        load_state(path)


def test_load_rejects_non_finite_weight(tmp_path):
    """A NaN weight fails at the boundary instead of reaching the race view."""
    path = str(tmp_path / "net.bin")
    save_state(Network(ColaNetConfig(class_count=2, microcolumns=1)), path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    struct.pack_into("<d", data, 8 + struct.calcsize(CONFIG_PACK) + 8 * 100, math.nan)
    bad = tmp_path / "nan.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(StateFormatError, match="non-finite"):
        load_state(str(bad))


def test_load_checks_weights_against_the_weight_bound(tmp_path):
    """A weight of magnitude exactly ``weight_bound`` loads; one ulp beyond
    it, on either side, fails typed."""
    cfg = ColaNetConfig(class_count=2, microcolumns=1)
    bound = cfg.weight_bound
    cases = [
        (bound, True),
        (-bound, True),
        (math.nextafter(bound, math.inf), False),
        (math.nextafter(-bound, -math.inf), False),
    ]
    for index, (value, loads) in enumerate(cases):
        net = Network(cfg)
        net.weights[1, 300] = value
        path = str(tmp_path / f"net{index}.bin")
        save_state(net, path)
        if loads:
            assert load_state(path).weights[1, 300] == value
        else:
            with pytest.raises(StateFormatError, match="exceeds"):
                load_state(path)


def _trained_2x1() -> Network:
    net = Network(ColaNetConfig(class_count=2, microcolumns=1, ns=0, seed=3))
    for label in (0, 1, 1):
        train_sample(net, presentation(net, np.full(784, 200, dtype=np.uint8)), label)
    return net


STATE_BYTES = saved_bytes(save_state, _trained_2x1())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bit_flips(len(STATE_BYTES), 8 + struct.calcsize(CONFIG_PACK), tail_len=40))
@example(bits=[(len(STATE_BYTES) - 41) * 8 + 6])  # last weight's exponent
@example(bits=[(len(STATE_BYTES) - 24) * 8])  # generator increment made even
@example(bits=[(len(STATE_BYTES) - 4) * 8 - 1])  # has_uint32 = 2**31
def test_load_state_bit_flips_load_cleanly_or_fail_typed(tmp_path_factory, bits):
    """A damaged state file loads without warnings or fails typed."""
    path = tmp_path_factory.getbasetemp() / "flipped_net.bin"
    path.write_bytes(flip(STATE_BYTES, bits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_state(str(path))
        except StateFormatError:
            pass


# ------------------------------------------------------------------ heatmaps


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        assert fh.readline() == b"P6\n"
        width, height = map(int, fh.readline().split())
        assert fh.readline() == b"255\n"
        data = fh.read()
    assert len(data) == width * height * 3
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def test_heatmap_grid_geometry(tmp_path):
    net = Network(ColaNetConfig())  # 10 x 15 reference grid
    path = str(tmp_path / "grid.ppm")
    export_heatmaps(net, path)
    pixels = read_ppm(path)
    assert pixels.shape == (10 * 28 + 9, 15 * 28 + 14, 3)
    # Separator rows/columns are black.
    assert not pixels[28, :, :].any()
    assert not pixels[:, 28, :].any()


def test_heatmap_color_mapping(tmp_path):
    cfg = ColaNetConfig(class_count=1, microcolumns=2)
    weights = np.stack([np.full(784, 0.5), np.full(784, -0.5)])
    net = Network(cfg, weights=weights)
    path = str(tmp_path / "colors.ppm")
    export_heatmaps(net, path)
    pixels = read_ppm(path)
    assert pixels.shape == (28, 57, 3)
    assert tuple(pixels[0, 0]) == (255, 0, 0)  # strongest positive: red
    assert tuple(pixels[0, 29]) == (0, 0, 255)  # strongest negative: blue
    assert not pixels[:, 28, :].any()  # separator column


def test_heatmap_zero_network_renders_white(tmp_path):
    cfg = ColaNetConfig(class_count=1, microcolumns=2)
    net = Network(cfg, weights=np.zeros((2, 784)))
    path = str(tmp_path / "white.ppm")
    export_heatmaps(net, path)
    pixels = read_ppm(path)
    assert (pixels[:, :28] == 255).all()
    assert (pixels[:, 29:] == 255).all()


def test_heatmap_intermediate_weights_fade(tmp_path):
    cfg = ColaNetConfig(class_count=1, microcolumns=1)
    weights = np.zeros((1, 784))
    weights[0, 0] = 1.0  # vmax
    weights[0, 1] = 0.5  # half-strength positive: lighter red
    net = Network(cfg, weights=weights)
    path = str(tmp_path / "fade.ppm")
    export_heatmaps(net, path)
    pixels = read_ppm(path)
    assert tuple(pixels[0, 0]) == (255, 0, 0)
    r, g, b = pixels[0, 1]
    assert r == 255 and g == b and 0 < g < 255


# SHA-256 of the PPM for seeded random weights, a third of them zeroed, on a
# 3 x 4 grid, as the per-tile renderer wrote it: the whole-array renderer
# must match it byte for byte.
HEATMAP_SHA256 = "d02beb72a8700b4fe5b76c7b1ff92041ad28963ef9cfc089d4c56c0ab8aa8de2"


def test_heatmap_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(16)
    weights = rng.normal(size=(12, 784)) * (rng.random((12, 784)) > 1 / 3)
    net = Network(ColaNetConfig(class_count=3, microcolumns=4), weights=weights)
    path = tmp_path / "pinned.ppm"
    export_heatmaps(net, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HEATMAP_SHA256


# ------------------------------------------------------------------- adapter


def test_adapter_wires_network_into_sequences(tmp_path):
    from colanet_cl.clbench import run_sequence

    task = stripes_task(class_count=3)
    tasks = [task, dataclasses.replace(task, task_id=2)]
    adapter = ColaNetAdapter(ColaNetConfig(class_count=3, microcolumns=2, seed=1))
    profile = run_sequence(adapter, tasks, state_dir=str(tmp_path))
    lower = np.tril_indices(2)
    assert (profile.a[lower] == 1.0).all()


def test_adapter_races_every_checkpoint_on_one_draw_per_task(tmp_path, synthetic_mnist_dir):
    """Task-major evaluation from one held draw per task scores every profile
    cell as ``evaluate_task`` does on the reloaded checkpoint, and the
    adapter lets go of a task's draw when it draws the next."""
    from colanet_cl.clbench import run_sequence
    from colanet_cl.dataset import make_permuted_stream

    tasks = make_permuted_stream(3, 5, synthetic_mnist_dir)
    adapter = ColaNetAdapter(ColaNetConfig(microcolumns=3, seed=2))
    profile = run_sequence(adapter, tasks, state_dir=str(tmp_path))
    for k in range(1, 4):
        net = load_state(str(tmp_path / f"state_{k:03d}.bin"))
        for j in range(1, k + 1):
            assert profile.a[k - 1, j - 1] == evaluate_task(net, tasks[j - 1])

    adapter = ColaNetAdapter(ColaNetConfig(microcolumns=3, seed=2))
    adapter.evaluate_task(tasks[0])
    first = weakref.ref(adapter.drawn[0][0])
    adapter.evaluate_task(tasks[1])
    held = adapter.drawn
    adapter.evaluate_task(tasks[1])
    assert adapter.drawn is held
    assert first() is None
    assert adapter.drawn_for[0] is tasks[1]
    expected = race_input(adapter.net, tasks[1])
    assert len(held) == len(expected)
    for got, want in zip(held, expected):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "change", [{"seed": 2}, {"steps_active": 12}], ids=["seed", "steps_active"]
)
def test_adapter_draws_again_for_another_seed_or_window(tmp_path, change):
    """A checkpoint whose ``seed`` or ``steps_active`` differs from the held
    draw's gets a new draw of the same task, and the adapter scores it as
    ``evaluate_task`` scores the checkpoint."""
    rng = np.random.default_rng(5)
    cfg = ColaNetConfig(class_count=4, microcolumns=3, alpha=0.05, seed=1)
    weights = rng.uniform(-0.05, 0.08, (cfg.neuron_count, 784))
    images = rng.integers(0, 256, size=(100, 784), dtype=np.uint8)
    images[rng.random(images.shape) < 0.8] = 0
    test = LabeledDataset(images, rng.integers(0, 4, size=100).astype(np.int64))
    task = TaskSpec(task_id=1, train=test, test=test)
    paths = [str(tmp_path / name) for name in ("held.bin", "other.bin")]
    save_state(Network(cfg, weights=weights), paths[0])
    save_state(Network(dataclasses.replace(cfg, **change), weights=weights), paths[1])

    adapter = ColaNetAdapter(cfg)
    adapter.load(paths[0])
    adapter.evaluate_task(task)
    held = adapter.drawn
    adapter.load(paths[1])
    assert adapter.evaluate_task(task) == evaluate_task(load_state(paths[1]), task)
    assert adapter.drawn is not held
