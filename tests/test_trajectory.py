"""Trajectory guards: training and evaluation winners and a whole run's
output bytes are pinned.

A change that claims to keep training bit-identical (a faster race, a
different GEMM layout, a new encoder path) must reproduce these digests. A
change that moves the trajectory on purpose declares it and updates the
digests in the same change. The winner digest pins winners rather than
weight bytes, because NumPy's SIMD reductions may sum a weight row
differently on another CPU, while the winners on the race's weight grid do
not depend on it. The run digest does pin weight bytes, so its run leaves
renormalization off: plasticity is then elementwise, with no row sum.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from unittest import mock

import numpy as np

from colanet_cl import colanet
from colanet_cl.cli import EXIT_OK, main
from colanet_cl.colanet import ColaNetConfig, Network, evaluate_task, train_task
from colanet_cl.dataset import LabeledDataset, TaskSpec

from conftest import python_env

#: SHA-256 of the raw winners (flat index, -1 when silent) as little-endian
#: int64, from ``stable_setting_pass()``. Taken when the encoder began
#: drawing uniforms for nonzero pixels only, which moved the stream-to-pixel
#: map; the race's weight grid and its start bound each left every winner
#: unchanged.
WINNERS_SHA256 = "284bd7e392d8624089f5dd558565be9b8072e621448c24f234f8e9541c17091e"

#: SHA-256 of the raw winners, as for ``WINNERS_SHA256``, from
#: ``stable_setting_pass(leak=0.1)``: the race's leak branch, whose
#: potentials decay step by step and which shares the first-crossing
#: readout. Taken before the readout became one argmax over each row's
#: flattened crossings and before plasticity ran through a scratch row.
LEAK_WINNERS_SHA256 = "2191291e7e8e09e98dcd29e281eec337570aa2f54a2a543827d599db7b34c513"

#: SHA-256 of the ``Network.race`` winners (flat index, -1 when silent) as
#: little-endian int64, over ``evaluate_task``'s 64-image batches of
#: ``sparse_glyph_stream()`` on the network ``stable_setting_pass()`` leaves.
#: It pins evaluation's batched draw and race, which the other digests do
#: not reach. Taken before the batched draw stopped masking a repeated raster.
EVAL_WINNERS_SHA256 = "17f7449afb639b1a940a508f749533fac1959a58baab6adcf11013c9bd692ef7"

#: SHA-256 over ``RUN_FILES`` of ``colanet-cl run`` on the synthetic IDX
#: corpus (each file as its name, a NUL, its length as little-endian uint64
#: and its bytes), taken when that corpus became 300/100 ``perfbench``
#: glyphs at seed 20, from code that gave the previous digest on the old one.
RUN_SHA256 = "de521a621c700863500623cc23852eaddd1fb77263f1944141dbdddbf0c18ac2"
RUN_FILES = (
    "profile_seed1.csv",
    "metrics_seed1.csv",
    "summary_seed1.txt",
    "states_seed1/state_003.bin",
)

#: SHA-256 over ``RUN_FILES``, hashed as for ``RUN_SHA256``, of a 3-task
#: ``colanet-cl run`` of the MLP on the same corpus. Taken when the MLP began
#: running its products at one OpenBLAS thread: it equals the earlier code's
#: output under ``OPENBLAS_NUM_THREADS=1``, whose checkpoints differed from
#: those it wrote at the two threads it used by default.
MLP_RUN_SHA256 = "4fe99e1930134cc70337375a536b37531532329d2f60f3843d69b0e997a3720f"


def sparse_glyph_stream(count: int = 300, seed: int = 2024):
    """Seeded sparse stroke images of 10 classes, ~130 lit pixels of 784 each.

    Each class has two styles of ten random straight strokes (a bright core
    row and a dimmer row below it); a sample is one style rolled by up to 3
    pixels each way and dimmed by a random gain, so classes overlap and the
    race both recruits and confuses microcolumns.
    """
    rng = np.random.default_rng(seed)
    styles = np.zeros((10, 2, 28, 28))
    for glyph in styles.reshape(20, 28, 28):
        for _ in range(10):
            r0, c0, r1, c1 = rng.integers(5, 23, size=4)
            rows = np.rint(np.linspace(r0, r1, 30)).astype(int)
            cols = np.rint(np.linspace(c0, c1, 30)).astype(int)
            below = np.minimum(rows + 1, 27)
            glyph[rows, cols] = 255
            glyph[below, cols] = np.maximum(glyph[below, cols], 140)
    labels = rng.integers(0, 10, size=count)
    style = rng.integers(0, 2, size=count)
    dy, dx = rng.integers(-3, 4, size=(2, count))
    images = np.stack(
        [
            np.roll(styles[labels[i], style[i]], (dy[i], dx[i]), axis=(0, 1))
            for i in range(count)
        ]
    ).reshape(count, 784)
    images *= rng.uniform(0.6, 1.0, size=(count, 1))
    return np.rint(images).astype(np.uint8), labels.astype(np.int64)


def stable_setting_pass(leak: float = 0.0) -> tuple[Network, np.ndarray]:
    """The network after one online pass at M=45, alpha=2.5, ns=0 and
    ``leak``, trained by ``train_task``, and the raw winners of that pass."""
    net = Network(ColaNetConfig(microcolumns=45, alpha=2.5, ns=0, seed=7, leak=leak))
    split = LabeledDataset(*sparse_glyph_stream())
    train_sample, winners = colanet.train_sample, []

    def recording_train_sample(net, drawn, label):
        outcome = train_sample(net, drawn, label)
        raw = outcome.raw_winner
        winners.append(-1 if raw is None else net._flat(*raw))
        return outcome

    with mock.patch.object(colanet, "train_sample", recording_train_sample):
        train_task(net, TaskSpec(task_id=1, train=split, test=split))
    return net, np.array(winners, dtype="<i8")


def test_stream_is_sparse_and_covers_every_class():
    images, labels = sparse_glyph_stream()
    lit = (images > 0).sum(axis=1)
    assert 100 < lit.mean() < 180
    assert set(labels.tolist()) == set(range(10))


def test_training_winner_trajectory_is_pinned():
    _, winners = stable_setting_pass()
    # Guard against a degenerate digest: many neurons win, some races miss.
    assert len(set(winners.tolist())) > 100
    assert (winners < 0).any()
    digest = hashlib.sha256(winners.tobytes()).hexdigest()
    assert digest == WINNERS_SHA256


def test_leak_winner_trajectory_is_pinned():
    _, winners = stable_setting_pass(leak=0.1)
    assert len(set(winners.tolist())) > 100
    assert (winners < 0).any()
    digest = hashlib.sha256(winners.tobytes()).hexdigest()
    assert digest == LEAK_WINNERS_SHA256


def test_evaluation_winners_are_pinned():
    net, _ = stable_setting_pass()
    images, labels = sparse_glyph_stream()
    test = LabeledDataset(images, labels)
    race, batches = net.race, []

    def recording_race(spikes, pixels):
        batches.append(race(spikes, pixels))
        return batches[-1]

    net.race = recording_race
    accuracy = evaluate_task(net, TaskSpec(task_id=1, train=test, test=test))
    winners = np.concatenate(batches).astype("<i8")
    assert [len(b) for b in batches] == [64, 64, 64, 64, 44]
    # Guard against a degenerate digest: many neurons win, some races miss.
    assert len(set(winners.tolist())) > 30
    assert (winners < 0).any()
    assert 0.1 < accuracy < 1.0
    digest = hashlib.sha256(winners.tobytes()).hexdigest()
    assert digest == EVAL_WINNERS_SHA256


def test_run_output_bytes_are_pinned(tmp_path, synthetic_mnist_dir, capsys):
    """A 3-task colanet run writes the same profile, metrics, summary and
    last checkpoint bytes."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = colanet\nn_tasks = 3\nmicrocolumns = 3\ntrain_count = 150\n"
        f"seeds = 1\ndata_dir = {synthetic_mnist_dir}\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256()
    for name in RUN_FILES:
        data = (out / name).read_bytes()
        digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    assert digest.hexdigest() == RUN_SHA256


def test_mlp_run_output_bytes_are_pinned_at_any_blas_thread_count(
    tmp_path, synthetic_mnist_dir
):
    """A 3-task MLP run writes the same profile, metrics, summary and last
    checkpoint bytes under ``OPENBLAS_NUM_THREADS=1`` and ``=2``, each in
    its own child process, one after the other."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = mlp\nn_tasks = 3\ntrain_count = 150\n"
        f"seeds = 1\ndata_dir = {synthetic_mnist_dir}\n"
    )
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run(
            [sys.executable, "-m", "colanet_cl.cli", "run"]
            + ["--config", str(cfg), "--out", str(out)],
            env={**python_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        )
        digest = hashlib.sha256()
        for name in RUN_FILES:
            data = (out / name).read_bytes()
            digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        assert digest.hexdigest() == MLP_RUN_SHA256, f"OPENBLAS_NUM_THREADS={threads}"
