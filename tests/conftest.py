"""Shared fixtures: real-data discovery and synthetic IDX corpora.

MNIST-backed tests resolve the data directory from ``$COLANET_DATA_DIR``
(falling back to ``/root/data/mnist``) and skip with a clear message when
the IDX files are absent, so the unit suite stays runnable on a bare
checkout. EMNIST Balanced files are large and rarely installed, so tests
that need them build a small synthetic corpus in the same IDX format
instead; the fixture returns the ground-truth arrays alongside the
directory so ingest can be checked byte-for-byte.
"""

from __future__ import annotations

import importlib.util
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest

from colanet_cl.colanet import presentations
from colanet_cl.dataset import EMNIST_FILES, MNIST_FILES, load_mnist
from colanet_cl.encoder import encode_active_batch

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python_env() -> dict[str, str]:
    """The environment for a child Python process that imports this
    checkout's ``colanet_cl``: ``src`` first on its ``PYTHONPATH``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC_DIR + (os.pathsep + path if path else "")}

# One line per acceptance criterion, recorded as its test runs and echoed
# in a dedicated section at the end of the pytest run (so the verdicts are
# visible without -s even when every test passes).
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def mnist_data_dir() -> str | None:
    """Return the MNIST directory, or None when any file is missing."""
    data_dir = os.environ.get("COLANET_DATA_DIR", "/root/data/mnist")
    for name in MNIST_FILES.values():
        if not (
            os.path.exists(os.path.join(data_dir, name))
            or os.path.exists(os.path.join(data_dir, name + ".gz"))
        ):
            return None
    return data_dir


requires_mnist = pytest.mark.skipif(
    mnist_data_dir() is None,
    reason="MNIST IDX files not found; set COLANET_DATA_DIR or place them "
    "in /root/data/mnist",
)


@pytest.fixture(scope="session")
def mnist_dir() -> str:
    data_dir = mnist_data_dir()
    if data_dir is None:
        pytest.skip(
            "MNIST IDX files not found; set COLANET_DATA_DIR or place them "
            "in /root/data/mnist"
        )
    return data_dir


@pytest.fixture(scope="session")
def mnist_arrays(mnist_dir):
    """Full MNIST splits, loaded once per session."""
    return load_mnist(mnist_dir)


def write_idx(path: str, array: np.ndarray) -> None:
    """Write an array as a big-endian IDX file (uint8 payload).

    A 1-D array gets the label magic, a 3-D array the image magic — the
    only two layouts the loader accepts.
    """
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = {1: 0x00000801, 3: 0x00000803}[array.ndim]
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        for dim in array.shape:
            fh.write(struct.pack(">I", dim))
        fh.write(array.tobytes())


def _load_glyphs():
    """``perfbench/glyphs.py``, loaded from its path so that no other module
    of ``perfbench`` (its ``run``, say) becomes importable by name."""
    path = os.path.join(os.path.dirname(SRC_DIR), "perfbench", "glyphs.py")
    spec = importlib.util.spec_from_file_location("perfbench_glyphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def synthetic_mnist_dir(tmp_path_factory) -> str:
    """A small directory of the four MNIST IDX files, always available:
    300 training and 100 test glyphs from the benchmark's generator."""
    data_dir = str(tmp_path_factory.mktemp("synthetic-mnist"))
    _load_glyphs().write_mnist_dir(data_dir, 300, 100, seed=20)
    return data_dir


def letter_glyph(balanced_id: int) -> np.ndarray:
    """Deterministic fake 28x28 glyph for one EMNIST Balanced class.

    Deliberately asymmetric (a bright horizontal band whose row index
    encodes the class) so a missed transpose shows up as a wrong image,
    not merely a mirrored one.
    """
    img = np.zeros((28, 28), dtype=np.uint8)
    img[2 + (balanced_id % 24), :] = 100 + balanced_id
    img[0, 0] = 255
    return img


@pytest.fixture(scope="session")
def emnist_corpus(tmp_path_factory):
    """Synthetic EMNIST-Balanced-style corpus on disk.

    Covers all 26 uppercase letter classes (Balanced ids 10..35) plus a few
    digit and lowercase rows that ingestion must filter out. Images are
    stored transposed, as the real files are. Returns a dict with the
    directory and the ground-truth (upright) glyph per Balanced id.
    """
    data_dir = tmp_path_factory.mktemp("emnist")
    rows_per_class_train = 3
    rows_per_class_test = 2
    # Letter classes interleaved with to-be-filtered digit (3) and
    # lowercase (40) rows.
    class_cycle = list(range(10, 36)) + [3, 40]

    def build(rows_per_class: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.repeat(class_cycle, rows_per_class).astype(np.uint8)
        images = np.stack([letter_glyph(int(c)).T for c in labels])
        return images, labels

    train_images, train_labels = build(rows_per_class_train)
    test_images, test_labels = build(rows_per_class_test)
    write_idx(str(data_dir / EMNIST_FILES["train_images"]), train_images)
    write_idx(str(data_dir / EMNIST_FILES["train_labels"]), train_labels)
    write_idx(str(data_dir / EMNIST_FILES["test_images"]), test_images)
    write_idx(str(data_dir / EMNIST_FILES["test_labels"]), test_labels)
    return {
        "dir": str(data_dir),
        "glyphs": {c: letter_glyph(c) for c in range(10, 36)},
        "train_rows_per_class": rows_per_class_train,
        "test_rows_per_class": rows_per_class_test,
    }


def tiny_task(seed: int = 0, n_train: int = 40, n_test: int = 20, classes: int = 10):
    """A miniature random TaskSpec for plumbing tests (no real data)."""
    from colanet_cl.dataset import LabeledDataset, TaskSpec

    rng = np.random.default_rng(seed)

    def split(n: int) -> LabeledDataset:
        return LabeledDataset(
            pixels=rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
            labels=rng.integers(0, classes, size=n).astype(np.int64),
        )

    return TaskSpec(task_id=1, train=split(n_train), test=split(n_test))


def encode_raster(images: np.ndarray, steps_active: int, rng) -> np.ndarray:
    """``encode_active_batch``'s step-major spikes placed in the (B, T, U)
    raster of the images they were drawn for."""
    spikes = encode_active_batch(images, steps_active, rng)
    raster = np.zeros((steps_active, *images.shape), dtype=bool)
    raster.reshape(steps_active, images.size)[:, np.flatnonzero(images)] = spikes
    return raster.transpose(1, 0, 2)


def race_counts(spikes: np.ndarray) -> np.ndarray:
    """A (B, T, U) bool raster as ``Network.race`` takes it: (T, B, U)
    float32 spike counts cumulated from step 0."""
    counts = np.cumsum(spikes.transpose(1, 0, 2), axis=0, dtype=np.float32)
    return np.ascontiguousarray(counts)


def presentation(net, img: np.ndarray):
    """The presentation ``train_task`` makes of one image: drawn from the
    network's training stream, as the next image of a block."""
    return next(presentations(img[None], net.config.steps_active, net.rng))


def traced_peak(fn, *args) -> int:
    """Peak bytes ``tracemalloc`` sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def truncation_cuts(size: int, header_len: int, payload_samples: int = 16) -> list[int]:
    """Lengths to cut a ``size``-byte state file to: every length inside the
    header, plus evenly spaced lengths through the payload (all < size)."""
    payload = np.linspace(header_len + 1, size - 1, payload_samples).astype(int)
    return sorted(set(range(header_len + 1)) | set(payload.tolist()))


def bit_flips(size: int, header_len: int, tail_len: int = 0):
    """Hypothesis strategy: 1-3 bit positions in a ``size``-byte file.

    Positions come as often from the header (the first ``header_len`` bytes)
    and the tail (the last ``tail_len``) as from the whole file, so the few
    structural bytes get flipped as well as the bulk payload.
    """
    from hypothesis import strategies as st

    regions = [st.integers(0, header_len * 8 - 1), st.integers(0, size * 8 - 1)]
    if tail_len:
        regions.append(st.integers((size - tail_len) * 8, size * 8 - 1))
    return st.lists(st.one_of(regions), min_size=1, max_size=3)


def saved_bytes(save, obj) -> bytes:
    """The bytes ``save(obj, path)`` writes, read back from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved")
        save(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


def flip(data: bytes, bits: list[int]) -> bytes:
    """``data`` with each listed bit inverted."""
    out = bytearray(data)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
