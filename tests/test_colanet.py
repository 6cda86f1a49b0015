"""Tests for the columnar spiking network."""

from __future__ import annotations

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colanet_cl.colanet import (
    _CONFIG_FIELDS as CONFIG_FIELDS,
    _CONFIG_PACK as CONFIG_PACK,
    ColaNetAdapter,
    ColaNetConfig,
    Network,
    StateFormatError,
    evaluate_task,
    export_heatmaps,
    load_state,
    save_state,
    train_sample,
    train_task,
)
from colanet_cl.dataset import LabeledDataset, TaskSpec
from colanet_cl.encoder import encode_active_batch
from colanet_cl.seeding import generator_from

import neuron_reference as ref
from conftest import bit_flips, flip, saved_bytes, truncation_cuts

NO_FIRE = np.iinfo(np.int64).max


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
        return LabeledDataset(templates[labels].copy(), labels, class_count)

    return TaskSpec(
        task_id=1, source="stripes", train=split(per_class_train), test=split(2)
    )


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
    dict(steps_silent=-3),
    # The race's weight grid would be coarser than 2^-30.
    dict(steps_active=5350),  # 5350 * 784 * 1 > 2**22
    dict(w_min=-600.0),
    dict(init_high=600.0),
]


def test_config_validation():
    for overrides in INVALID_CONFIGS:
        with pytest.raises(ValueError):
            ColaNetConfig(**overrides)


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
    assert cfg.steps_silent == 10
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
    for flat in range(net.config.neuron_count):
        net._refresh_neuron(flat)
    expected = [
        ref.adaptive_threshold(
            ref.ReceptiveField(weights=net.weights[flat].copy()),
            ref.NeuronState(u_const=1.5, alpha=0.4),
        )
        for flat in range(net.config.neuron_count)
    ]
    assert net.thresholds() == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1, 4]),
)
def test_race_matches_per_neuron_simulation(seed, alpha, leak, batch):
    """The batched race picks, per presentation, the neuron the sequential
    per-neuron dynamics would: earliest first spike, flat order breaking
    ties, and -1 when nothing fires."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=alpha, leak=leak)
    net = Network(cfg, weights=rng.uniform(-0.3, 0.6, (cfg.neuron_count, 784)))
    # Per-presentation input density; 0 makes a silent presentation, so a
    # batch can mix silent and firing rows.
    density = rng.choice([0.0, 0.02, 0.15], size=(batch, 1, 1))
    spikes = rng.random((batch, cfg.steps_active, 784)) < density

    winners = net.race(spikes)
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


def snapped(weights: np.ndarray, cfg: ColaNetConfig) -> np.ndarray:
    """Weights rounded to the race's grid, computed apart from the network."""
    k = cfg.race_grid_bits
    return np.rint(weights * 2.0**k) / 2.0**k


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1, 5]),
)
def test_race_is_exact_on_its_weight_grid(seed, leak, batch):
    """Potentials equal a dense float64 product over the rounded weights,
    bit for bit; permuting pixels or racing rows alone changes no winner."""
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=rng.uniform(0.0, 0.5), leak=leak)
    weights = rng.uniform(-0.3, 0.6, (cfg.neuron_count, 784))
    net = Network(cfg, weights=weights)
    density = rng.choice([0.0, 0.02, 0.15], size=(batch, 1, 1))
    spikes = rng.random((batch, cfg.steps_active, 784)) < density

    grid = snapped(weights, cfg)
    assert np.abs(grid - weights).max() <= 2.0 ** -(cfg.race_grid_bits + 1)
    drive = spikes.astype(np.float64) @ grid.T
    expected = np.empty_like(drive)
    u = np.zeros_like(drive[:, 0, :])
    for t in range(cfg.steps_active):
        u = (1.0 - leak) * u + drive[:, t, :]
        expected[:, t, :] = u
    assert np.array_equal(net._potentials(spikes), expected)

    winners = net.race(spikes)
    perm = rng.permutation(784)
    shuffled = Network(cfg, weights=weights[:, perm])
    assert np.array_equal(shuffled._potentials(spikes[:, :, perm]), expected)
    assert np.array_equal(shuffled.race(spikes[:, :, perm]), winners)
    for b in range(batch):
        assert np.array_equal(net.race(spikes[b : b + 1]), winners[b : b + 1])


def test_simultaneous_crossing_breaks_toward_lowest_flat_index():
    cfg = ColaNetConfig(class_count=2, microcolumns=1, alpha=0.0, seed=0)
    # Both neurons cross on the first step; the second even has more drive.
    weights = np.stack([np.full(784, 0.01), np.full(784, 0.02)])
    net = Network(cfg, weights=weights)
    img = np.full((1, 784), 255, dtype=np.uint8)
    spikes = encode_active_batch(img, cfg.steps_active, np.random.default_rng(0))
    assert net.race(spikes).tolist() == [0]


# ------------------------------------------------------------- teacher forcing


def fixed_net() -> Network:
    """2x2 network with one strong neuron (0,0) tuned to pixels 0..9."""
    cfg = ColaNetConfig(class_count=2, microcolumns=2, alpha=0.0, seed=0)
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
    outcome = train_sample(net, probe_img(), label=0)
    assert outcome.raw_winner == (0, 0)
    assert outcome.effective_winner == (0, 0)
    assert (net.weights[0, :10] > before[0, :10]).all()
    assert np.array_equal(net.weights[1:], before[1:])


def test_wrong_winner_depressed_and_designated_potentiated():
    net = fixed_net()
    before = net.weights.copy()
    outcome = train_sample(net, probe_img(), label=1)
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
    outcome = train_sample(net, probe_img(), label=1)
    assert outcome.raw_winner is None
    assert outcome.effective_winner == (1, 0)
    assert (net.weights[2, :10] > before[2, :10]).all()
    changed = [i for i in range(4) if not np.array_equal(net.weights[i], before[i])]
    assert changed == [2]


def test_train_sample_rejects_bad_label():
    net = fixed_net()
    with pytest.raises(ValueError):
        train_sample(net, probe_img(), label=2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_plasticity_touches_at_most_two_neurons(seed):
    rng = np.random.default_rng(seed)
    cfg = small_config(alpha=0.02)
    net = Network(cfg, weights=rng.uniform(-0.2, 0.4, (cfg.neuron_count, 784)))
    img = rng.integers(0, 256, 784, dtype=np.uint8)
    before = net.weights.copy()
    train_sample(net, img, label=int(rng.integers(0, cfg.class_count)))
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
    train_sample(net, probe_img(), label=1)
    assert not np.array_equal(net.weights[1], Network(cfg).weights[1])
    assert net.weights[1].sum() == pytest.approx(before, rel=1e-9)


def test_cached_positive_sums_stay_consistent(tmp_path):
    net = fixed_net()
    img = probe_img()
    for label in (0, 1, 0, 1):
        train_sample(net, img, label)
    expected = np.maximum(net.weights, 0.0).sum(axis=1)
    assert net._pos_sum == pytest.approx(expected, rel=1e-12, abs=1e-12)
    # The race view follows every update, and is rebuilt on load.
    assert np.array_equal(net._drive_w, snapped(net.weights, net.config).T)
    path = str(tmp_path / "net.bin")
    save_state(net, path)
    loaded = load_state(path)
    assert np.array_equal(loaded._drive_w, snapped(net.weights, net.config).T)


# ------------------------------------------------------------------ inference


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
    train_sample(net, img, label)
    train_sample(net, img, label)
    only = LabeledDataset(img[None].copy(), np.array([label]), task.test.class_count)
    assert evaluate_task(net, dataclasses.replace(task, test=only), seed=1) == 1.0


def test_evaluate_task_deterministic_and_pure():
    task = stripes_task(class_count=4)
    cfg = ColaNetConfig(class_count=4, microcolumns=2, seed=3)
    net = Network(cfg)
    train_task(net, task)
    weights_before = net.weights.copy()
    rng_before = net.rng.bit_generator.state
    a = evaluate_task(net, task, seed=11)
    b = evaluate_task(net, task, seed=11)
    c = evaluate_task(net, task, seed=12)
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
        source="synthetic",
        train=LabeledDataset(images[:1], labels[:1], 4),
        test=LabeledDataset(images, labels, 4),
    )

    got = evaluate_task(net, task, seed=77)

    eval_rng = generator_from(77, "eval", task.task_id)
    spikes = encode_active_batch(images, cfg.steps_active, eval_rng)
    thresholds = net.thresholds()
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


def test_evaluate_task_does_not_depend_on_batch_size():
    rng = np.random.default_rng(8)
    cfg = ColaNetConfig(class_count=4, microcolumns=3, alpha=0.05, seed=2)
    net = Network(cfg, weights=rng.uniform(-0.05, 0.08, (cfg.neuron_count, 784)))
    images = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
    images[rng.random(images.shape) < 0.8] = 0  # sparse, like glyphs
    labels = rng.integers(0, 4, size=300).astype(np.int64)
    test = LabeledDataset(images, labels, 4)
    task = TaskSpec(task_id=3, source="synthetic", train=test, test=test)
    results = set()
    for batch_size in (1, 7, 64, 256):
        diagnostics = {}
        accuracy = evaluate_task(net, task, batch_size=batch_size, diagnostics=diagnostics)
        results.add((accuracy, diagnostics["silent"]))
    assert len(results) == 1
    (accuracy, silent), = results
    assert 0.0 < accuracy < 1.0 and silent < len(labels)


def test_evaluate_task_counts_silent_presentations():
    cfg = ColaNetConfig(class_count=2, microcolumns=1, u_const=1e9)
    net = Network(cfg, weights=np.zeros((2, 784)))
    task = stripes_task(class_count=2)
    diagnostics = {}
    acc = evaluate_task(net, task, diagnostics=diagnostics)
    assert diagnostics["silent"] == len(task.test)
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
    spikes = np.concatenate([
        encode_active_batch(img[None], 10, generator_from(1, "probe", i))
        for i, img in enumerate(probes)
    ])
    assert np.array_equal(net.race(spikes), loaded.race(spikes))


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
        train_sample(net, img, label)
        train_sample(loaded, img, label)
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


def _trained_2x1() -> Network:
    net = Network(ColaNetConfig(class_count=2, microcolumns=1, ns=0, seed=3))
    for label in (0, 1, 1):
        train_sample(net, np.full(784, 200, dtype=np.uint8), label)
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


# ------------------------------------------------------------------- adapter


def test_adapter_wires_network_into_sequences(tmp_path):
    from colanet_cl.clbench import run_sequence

    task = stripes_task(class_count=3)
    tasks = [task, dataclasses.replace(task, task_id=2)]
    adapter = ColaNetAdapter(ColaNetConfig(class_count=3, microcolumns=2, seed=1))
    profile = run_sequence(adapter, tasks, state_dir=str(tmp_path))
    lower = np.tril_indices(2)
    assert (profile.a[lower] == 1.0).all()
