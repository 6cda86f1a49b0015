"""Trajectory guards: training winners and a whole run's output bytes are pinned.

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

import numpy as np

from colanet_cl.cli import EXIT_OK, main
from colanet_cl.colanet import ColaNetConfig, Network, train_sample

#: SHA-256 of the raw winners (flat index, -1 when silent) as little-endian
#: int64, from ``stable_setting_winners()``, taken before the race moved to
#: its weight grid (the move left every winner unchanged).
WINNERS_SHA256 = "9542e5ef35774ac530322218bc5c66ccdea3f3fd9cbcb107fbb1da9a85b6317b"

#: SHA-256 over ``RUN_FILES`` of ``colanet-cl run`` on the synthetic IDX
#: corpus (each file as its name, a NUL, its length as little-endian uint64
#: and its bytes), taken before the single-image inference path was deleted.
RUN_SHA256 = "2d51cf3b7319ac85beece3b2b2dc6d9fc1bdb5c95d0f2140134dcad8119a56be"
RUN_FILES = (
    "profile_seed1.csv",
    "metrics_seed1.csv",
    "summary_seed1.txt",
    "states_seed1/state_003.bin",
)


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


def stable_setting_winners() -> np.ndarray:
    """Raw winners of one online pass at M=45, alpha=2.5, ns=0."""
    net = Network(ColaNetConfig(microcolumns=45, alpha=2.5, ns=0, seed=7))
    images, labels = sparse_glyph_stream()
    winners = []
    for img, label in zip(images, labels):
        raw = train_sample(net, img, int(label)).raw_winner
        winners.append(-1 if raw is None else net._flat(*raw))
    return np.array(winners, dtype="<i8")


def test_stream_is_sparse_and_covers_every_class():
    images, labels = sparse_glyph_stream()
    lit = (images > 0).sum(axis=1)
    assert 100 < lit.mean() < 180
    assert set(labels.tolist()) == set(range(10))


def test_training_winner_trajectory_is_pinned():
    winners = stable_setting_winners()
    # Guard against a degenerate digest: many neurons win, some races miss.
    assert len(set(winners.tolist())) > 100
    assert (winners < 0).any()
    digest = hashlib.sha256(winners.tobytes()).hexdigest()
    assert digest == WINNERS_SHA256


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
