"""Tests for the fully connected reference network."""

from __future__ import annotations

import copy
import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from colanet_cl.baseline import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    MlpAdapter,
    MlpParams,
    StateFormatError,
    adadelta_step,
    mlp_evaluate,
    mlp_forward,
    mlp_init,
    mlp_load,
    mlp_loss_and_grads,
    mlp_save,
    mlp_train_epoch,
)
from colanet_cl.clbench import run_sequence
from colanet_cl.dataset import LabeledDataset, TaskSpec, gen_permutation

from conftest import bit_flips, flip, saved_bytes, tiny_task, truncation_cuts
from mlp_reference import (
    PARAM_NAMES,
    reference_adadelta_step,
    reference_train_epoch,
)

MiB = 1 << 20


def template_task(seed: int = 0, n_per_class: int = 30) -> TaskSpec:
    """Linearly separable synthetic task: one noisy template per class."""
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, 256, size=(10, 784), dtype=np.int64)

    def split(n: int) -> LabeledDataset:
        labels = np.tile(np.arange(10), n)
        noise = rng.integers(-20, 21, size=(len(labels), 784))
        images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
        return LabeledDataset(images, labels.astype(np.int64), 10)

    return TaskSpec(
        task_id=1, source="templates", train=split(n_per_class), test=split(5)
    )


def test_init_shapes_and_determinism():
    p = mlp_init(3)
    assert p.W1.shape == (784, 512)
    assert p.b1.shape == (512,)
    assert p.W2.shape == (512, 10)
    assert p.b2.shape == (10,)
    assert not p.b1.any() and not p.b2.any()
    q = mlp_init(3)
    assert np.array_equal(p.W1, q.W1) and np.array_equal(p.W2, q.W2)
    r = mlp_init(4)
    assert not np.array_equal(p.W1, r.W1)


def test_forward_rows_are_probabilities():
    p = mlp_init(0)
    x = np.random.default_rng(0).random((6, 784))
    probs = mlp_forward(p, x)
    assert probs.shape == (6, 10)
    assert np.all(probs >= 0)
    assert probs.sum(axis=1) == pytest.approx(np.ones(6))


def test_forward_single_input_squeezes():
    p = mlp_init(0)
    probs = mlp_forward(p, np.zeros(784))
    assert probs.shape == (10,)
    assert probs.sum() == pytest.approx(1.0)


def test_gradients_match_finite_differences():
    """Spot-check analytic gradients against central differences."""
    p = mlp_init(1)
    rng = np.random.default_rng(2)
    x = rng.random((4, 784))
    y = rng.integers(0, 10, size=4)
    _, grads = mlp_loss_and_grads(p, x, y)
    eps = 1e-6
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(p, name)
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=8, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = mlp_loss_and_grads(p, x, y)
            flat[idx] = orig - eps
            down, _ = mlp_loss_and_grads(p, x, y)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name].reshape(-1)[idx]
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7), (
                f"{name}[{idx}]"
            )


def test_loss_decreases_on_repeated_steps():
    p = mlp_init(5)
    rng = np.random.default_rng(5)
    x = rng.random((32, 784))
    y = rng.integers(0, 10, size=32)
    first, grads = mlp_loss_and_grads(p, x, y)
    for _ in range(50):
        adadelta_step(p, grads)
        loss, grads = mlp_loss_and_grads(p, x, y)
    assert loss < first


def test_adadelta_constants():
    assert ADADELTA_RHO == 0.95
    assert ADADELTA_EPS == 1e-6


def test_adadelta_step_matches_reference_formula():
    p = mlp_init(0)
    grads = {
        name: np.full_like(getattr(p, name), 0.5)
        for name in ("W1", "b1", "W2", "b2")
    }
    before = p.b2.copy()
    adadelta_step(p, grads)
    # From zero accumulators: eg = 0.05*0.25, step = -sqrt(eps/(eg+eps))*g.
    eg = 0.05 * 0.25
    expected_step = -np.sqrt(ADADELTA_EPS / (eg + ADADELTA_EPS)) * 0.5
    assert p.b2 == pytest.approx(before + expected_step)
    assert p.update_sq["b2"] == pytest.approx(
        np.full_like(before, 0.05 * expected_step**2)
    )


def assert_params_bytes_equal(p: MlpParams, q: MlpParams) -> None:
    for name in PARAM_NAMES:
        assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name
        assert p.grad_sq[name].tobytes() == q.grad_sq[name].tobytes(), name
        assert p.update_sq[name].tobytes() == q.update_sq[name].tobytes(), name


def random_grads(p: MlpParams, rng: np.random.Generator) -> dict:
    """Gradients of every scale, with the W1 rows of dark pixels all zero."""
    grads = {
        name: rng.standard_normal(getattr(p, name).shape)
        * 10.0 ** rng.uniform(-6, 0, getattr(p, name).shape)
        for name in PARAM_NAMES
    }
    grads["W1"][rng.random(len(grads["W1"])) < 0.5] = 0.0
    return grads


def test_adadelta_step_matches_reference_bytes():
    """The chunked in-place update rounds exactly like the plain formula."""
    rng = np.random.default_rng(11)
    p = mlp_init(4)
    q = copy.deepcopy(p)
    for _ in range(24):
        grads = random_grads(p, rng)
        adadelta_step(p, grads)
        reference_adadelta_step(q, grads)
    assert_params_bytes_equal(p, q)


@pytest.mark.parametrize("batch_size", [32, 7])
def test_train_epoch_matches_reference_epoch(batch_size):
    """Per-batch conversion gives the bytes of whole-split conversion; 203
    images leave a short last batch at both sizes."""
    task = tiny_task(seed=3, n_train=203)
    task = dataclasses.replace(
        task,
        train=dataclasses.replace(task.train, permutation=gen_permutation(5)),
    )
    p = mlp_init(6)
    q = copy.deepcopy(p)
    for _ in range(2):
        mlp_train_epoch(p, task, batch_size)
        reference_train_epoch(q, task, batch_size)
    assert_params_bytes_equal(p, q)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_train_epoch_rejects_non_positive_batch_size(batch_size):
    p = mlp_init(0)
    before = p.W1.copy()
    with pytest.raises(ValueError, match="batch_size"):
        mlp_train_epoch(p, tiny_task(), batch_size)
    assert np.array_equal(p.W1, before)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adadelta_step_allocates_nothing_parameter_sized():
    p = mlp_init(0)
    grads = random_grads(p, np.random.default_rng(0))
    # The plain formula peaks at ~9.2 MiB, several copies of W1.
    assert traced_peak(adadelta_step, p, grads) < 1 * MiB


def test_train_epoch_peak_does_not_grow_with_split_size():
    peaks = []
    for n_train in (500, 2000):
        task = tiny_task(seed=1, n_train=n_train)
        peaks.append(traced_peak(mlp_train_epoch, mlp_init(0), task))
    # Converting the whole split would add 9.4 MiB between 500 and 2000
    # images (two float64 copies of 1500 more images).
    assert peaks[1] - peaks[0] < 0.5 * MiB


def test_epoch_learns_separable_task():
    task = template_task()
    p = mlp_init(0)
    before = mlp_evaluate(p, task)
    mlp_train_epoch(p, task)
    after = mlp_evaluate(p, task)
    assert after > before
    assert after > 0.9


def test_training_is_deterministic():
    task = template_task()
    accs = []
    for _ in range(2):
        p = mlp_init(7)
        mlp_train_epoch(p, task)
        accs.append(mlp_evaluate(p, task))
    assert accs[0] == accs[1]


def test_evaluate_empty_test_split_is_zero():
    task = tiny_task(n_test=0)
    assert mlp_evaluate(mlp_init(0), task) == 0.0


def test_save_load_roundtrip_bit_exact(tmp_path):
    task = template_task()
    p = mlp_init(9)
    mlp_train_epoch(p, task)
    path = str(tmp_path / "mlp.bin")
    mlp_save(p, path)
    q = mlp_load(path)
    x = np.random.default_rng(0).random((16, 784))
    assert np.array_equal(mlp_forward(p, x), mlp_forward(q, x))
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(p, name), getattr(q, name))
        assert np.array_equal(p.grad_sq[name], q.grad_sq[name])
        assert np.array_equal(p.update_sq[name], q.update_sq[name])


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(StateFormatError, match="magic"):
        mlp_load(str(path))


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "ver.bin"
    path.write_bytes(b"MLPB" + struct.pack("<I", 99) + b"\x00" * 12)
    with pytest.raises(StateFormatError, match="version"):
        mlp_load(str(path))


def test_load_rejects_truncation(tmp_path):
    p = mlp_init(0)
    path = str(tmp_path / "mlp.bin")
    mlp_save(p, path)
    with open(path, "rb") as fh:
        data = fh.read()
    short = tmp_path / "short.bin"
    short.write_bytes(data[:-100])
    with pytest.raises(StateFormatError, match="truncated"):
        mlp_load(str(short))
    # Every cut inside the 20-byte header (magic, version, layer sizes) and
    # a sample through the arrays fails with the typed error only.
    for cut in truncation_cuts(len(data), header_len=20):
        short.write_bytes(data[:cut])
        with pytest.raises(StateFormatError):
            mlp_load(str(short))


def test_load_rejects_trailing_bytes(tmp_path):
    p = mlp_init(0)
    path = str(tmp_path / "mlp.bin")
    mlp_save(p, path)
    with open(path, "ab") as fh:
        fh.write(b"x")
    with pytest.raises(StateFormatError, match="trailing"):
        mlp_load(str(path))


def test_load_rejects_non_finite_weight(tmp_path):
    path = str(tmp_path / "mlp.bin")
    mlp_save(mlp_init(0), path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    struct.pack_into("<d", data, 20 + 8 * 1000, np.nan)
    bad = tmp_path / "nan.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(StateFormatError, match="non-finite value in W1"):
        mlp_load(str(bad))


def _trained_mlp() -> MlpParams:
    p = mlp_init(4)
    mlp_train_epoch(p, tiny_task(n_train=8))
    return p


MLP_BYTES = saved_bytes(mlp_save, _trained_mlp())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bit_flips(len(MLP_BYTES), header_len=20))
def test_mlp_load_bit_flips_load_cleanly_or_fail_typed(tmp_path_factory, bits):
    path = tmp_path_factory.getbasetemp() / "flipped_mlp.bin"
    path.write_bytes(flip(MLP_BYTES, bits))
    try:
        mlp_load(str(path))
    except StateFormatError:
        pass


def test_adapter_runs_a_sequence_deterministically(tmp_path):
    tasks = [
        dataclasses.replace(template_task(seed=1), task_id=1),
        dataclasses.replace(template_task(seed=2), task_id=2),
    ]
    a = run_sequence(MlpAdapter(seed=0), tasks, state_dir=str(tmp_path / "a")).a
    b = run_sequence(MlpAdapter(seed=0), tasks, state_dir=str(tmp_path / "b")).a
    lower = np.tril_indices(2)
    assert np.array_equal(a[lower], b[lower])
