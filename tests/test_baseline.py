"""Tests for the fully connected reference network."""

from __future__ import annotations

import copy
import dataclasses
import glob
import json
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from colanet_cl import baseline
from colanet_cl.baseline import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    MlpAdapter,
    MlpParams,
    adadelta_step,
    mlp_evaluate,
    mlp_forward,
    mlp_grads,
    mlp_init,
    mlp_load,
    mlp_save,
    mlp_train_epoch,
)
from colanet_cl.clbench import run_sequence
from colanet_cl.dataset import LabeledDataset, TaskSpec, gen_permutation
from colanet_cl.statefile import StateFormatError

from conftest import (
    bit_flips,
    flip,
    python_env,
    saved_bytes,
    tiny_task,
    traced_peak,
    truncation_cuts,
)
from mlp_reference import (
    PARAM_NAMES,
    mlp_loss,
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
        return LabeledDataset(images, labels.astype(np.int64))

    return TaskSpec(task_id=1, train=split(n_per_class), test=split(5))


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
    hidden, probs = mlp_forward(p, x)
    assert hidden.shape == (6, 512) and np.all(hidden >= 0)
    assert probs.shape == (6, 10)
    assert np.all(probs >= 0)
    assert probs.sum(axis=1) == pytest.approx(np.ones(6))


def test_gradients_match_finite_differences():
    """Spot-check analytic gradients against central differences."""
    p = mlp_init(1)
    rng = np.random.default_rng(2)
    x = rng.random((4, 784))
    y = rng.integers(0, 10, size=4)
    grads = mlp_grads(p, x, y)
    eps = 1e-6
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(p, name)
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=8, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = mlp_loss(p, x, y)
            flat[idx] = orig - eps
            down = mlp_loss(p, x, y)
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
    first = mlp_loss(p, x, y)
    for _ in range(50):
        adadelta_step(p, mlp_grads(p, x, y))
    assert mlp_loss(p, x, y) < first


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


def test_evaluate_peak_is_one_batch_not_the_split():
    """Evaluation converts one 1024-image batch at a time: one float64 batch
    (6.1 MiB) and its hidden layer (4 MiB). A float copy of the whole
    4096-image split would alone take 24.5 MiB."""
    task = tiny_task(seed=2, n_train=1, n_test=4096)
    p = mlp_init(0)
    mlp_evaluate(p, task)
    assert traced_peak(mlp_evaluate, p, task) < 12 * MiB


def test_evaluate_permutes_one_batch_not_the_split():
    """A permuted split is permuted one 1024-image batch at a time: it costs
    about one uint8 batch (0.77 MiB) over the same split unpermuted, not a
    permuted copy of all 10000 images (7.5 MiB)."""
    plain = tiny_task(seed=2, n_train=1, n_test=10000)
    split = plain.test
    permuted = TaskSpec(
        2, split, LabeledDataset(split.pixels, split.labels, gen_permutation(7))
    )
    p = mlp_init(0)
    extra = traced_peak(mlp_evaluate, p, permuted) - traced_peak(mlp_evaluate, p, plain)
    assert extra < 2 * 1024 * 784


def test_evaluate_matches_one_whole_split_forward():
    """Batching (two full batches and a partial one) changes no prediction."""
    task = tiny_task(seed=3, n_train=1, n_test=2500)
    p = mlp_init(4)
    _, probs = mlp_forward(p, task.test.images.astype(np.float64) / 255.0)
    expected = float((probs.argmax(axis=1) == task.test.labels).mean())
    assert mlp_evaluate(p, task) == expected


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
    assert np.array_equal(mlp_forward(p, x)[1], mlp_forward(q, x)[1])
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
    for value in (np.nan, np.inf, -np.inf):
        struct.pack_into("<d", data, 20 + 8 * 1000, value)
        bad = tmp_path / "nan.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(StateFormatError, match="non-finite value in W1"):
            mlp_load(str(bad))


def test_load_peak_is_the_payload(tmp_path):
    """Each array is read straight into the array returned, and no zeros are
    made for averages the file supplies: the peak was 1.33x the payload, a
    bytes copy and a zero array the size of W1."""
    path = str(tmp_path / "mlp.bin")
    mlp_save(mlp_init(0), path)
    payload = os.path.getsize(path) - 20
    assert traced_peak(mlp_load, path) <= 1.05 * payload


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


def test_without_bundled_openblas_nothing_is_pinned_and_no_thread_starts(monkeypatch):
    """Where the OpenBLAS lookup finds nothing, an epoch and an evaluation
    run on the caller alone and still match the reference bytes."""
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    unpinned = baseline._pinned_worker.__wrapped__
    assert unpinned() is None
    monkeypatch.setattr(baseline, "_pinned_worker", unpinned)
    task = tiny_task(seed=8, n_train=203, n_test=2500)
    p = mlp_init(9)
    q = copy.deepcopy(p)
    threads = threading.active_count()
    mlp_train_epoch(p, task)
    accuracy = mlp_evaluate(p, task)
    assert threading.active_count() == threads
    reference_train_epoch(q, task)
    assert_params_bytes_equal(p, q)
    _, probs = mlp_forward(q, task.test.images.astype(np.float64) / 255.0)
    assert accuracy == float((probs.argmax(axis=1) == task.test.labels).mean())


def test_worker_exception_reraises_in_the_caller():
    if baseline._pinned_worker() is None:
        pytest.skip("no bundled OpenBLAS, so no worker thread")

    def drain(jobs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("raised in the worker")
        for _ in jobs:
            pass

    with pytest.raises(RuntimeError, match="raised in the worker"):
        baseline._shared(drain, [1, 2, 3])


def test_shared_jobs_run_exactly_once_under_frequent_thread_switches():
    """Caller and worker pull from one iterator: no job is lost or run
    twice, even when the interpreter switches threads every microsecond."""
    done, jobs = [], list(range(20000))

    def drain(jobs):
        for job in jobs:
            done.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            done.clear()
            baseline._shared(drain, jobs)
            assert sorted(done) == jobs
    finally:
        sys.setswitchinterval(interval)


#: Runs ``colanet-cl`` with the arguments given, then prints, as one JSON
#: line: its exit code, (live threads, OpenBLAS thread count or None) before
#: and after, and whether ``concurrent.futures`` was imported.
RUN_IN_CHILD = """
import ctypes, glob, json, os, sys, threading
import numpy as np
from colanet_cl.cli import main

libs = glob.glob(os.path.dirname(np.__file__) + "/../numpy.libs/*openblas*")
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
getters = [getattr(c, s) for c in map(ctypes.CDLL, libs) for s in names if hasattr(c, s)]

def state():
    return threading.active_count(), getters[0]() if getters else None

before = state()
code = main(sys.argv[1:])
print(json.dumps([code, before, state(), "concurrent.futures" in sys.modules]))
"""


@pytest.mark.parametrize("model", ["colanet", "mlp"])
def test_only_the_mlp_pins_blas_and_starts_a_thread(model, tmp_path, synthetic_mnist_dir):
    """A colanet run starts no thread, imports no executor and leaves the
    BLAS thread count as it found it; an MLP run, the control, pins it to
    one and starts one worker. One child process at a time, each started
    at two OpenBLAS threads."""
    columns = "microcolumns = 3\n" if model == "colanet" else ""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"model = {model}\n{columns}n_tasks = 2\ntrain_count = 100\n"
        f"seeds = 1\ndata_dir = {synthetic_mnist_dir}\n"
    )
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", RUN_IN_CHILD, *argv],
        env={**python_env(), "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True,
        text=True,
        check=True,
    )
    code, (threads, blas), after, futures = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    if model == "colanet":
        assert after == [threads, blas] and not futures
    elif blas is not None:
        assert after == [threads + 1, 1] and futures
