"""MNIST/EMNIST ingestion and continual-learning task-stream construction.

Reads the IDX binary container format (plain or gzip-compressed), builds the
truncated-MNIST and EMNIST-letter ten-class tasks, and generates streams of
pixel-permuted MNIST tasks. All images are 28x28 grayscale flattened to
784-length rows of uint8 intensities in [0, 255].

Pixel permutations are produced by a Fisher-Yates shuffle driven by the
documented splitmix64 generator (see ``seeding``), so a permutation is a pure
function of its integer seed and can be reproduced bit-for-bit anywhere.
Seed 0 is reserved for the identity permutation: task 1 of every permuted
stream is plain, unpermuted MNIST.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .seeding import SplitMix64, derive_seed

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803

#: The ten EMNIST Balanced letter classes used for the letters task, in
#: relabeling order (first letter becomes class 0, second class 1, ...).
EMNIST_LETTER_CLASSES = ("A", "B", "D", "E", "G", "H", "N", "Q", "R", "S")

#: (train, test) images the truncated-MNIST task keeps, balancing the letters.
MNIST_TRUNCATED_COUNTS = (24000, 4000)

#: EMNIST Balanced label layout: classes 0-9 are digits, classes 10-35 are
#: the uppercase letters A-Z in alphabetical order (the remaining classes
#: 36-46 are the unmerged lowercase forms, unused here).
_BALANCED_UPPER_BASE = 10

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

EMNIST_FILES = {
    "train_images": "emnist-balanced-train-images-idx3-ubyte",
    "train_labels": "emnist-balanced-train-labels-idx1-ubyte",
    "test_images": "emnist-balanced-test-images-idx3-ubyte",
    "test_labels": "emnist-balanced-test-labels-idx1-ubyte",
}


class IdxFormatError(Exception):
    """Raised when an IDX file fails a structural check."""


class DataError(Exception):
    """Raised when source data cannot satisfy a dataset request."""


@dataclass(frozen=True)
class PixelPermutation:
    """A bijection on pixel indices {0, ..., 783}.

    Attributes:
        mapping: int64 array of length 784; output pixel ``i`` takes its
            value from input pixel ``mapping[i]``.
    """

    mapping: np.ndarray

    def __post_init__(self):
        mapping = np.asarray(self.mapping, dtype=np.int64)
        if mapping.shape != (784,):
            raise ValueError("permutation mapping must have length 784")
        if not np.array_equal(np.sort(mapping), np.arange(784)):
            raise ValueError("permutation mapping must be a bijection on 0..783")
        object.__setattr__(self, "mapping", mapping)


@dataclass(frozen=True)
class LabeledDataset:
    """Images with class labels.

    A split holds its images as given, or holds an unpermuted base (which
    other splits may share) together with a pixel permutation. Readers take
    the split one batch at a time through ``batches``, which permutes only
    that batch, so a permuted split never holds a permuted copy of itself.

    Attributes:
        pixels: uint8 array of shape (N, 784), row-major 28x28 intensities:
            the images themselves, or the base when ``permutation`` is set.
        labels: int64 array of shape (N,), the class of each image; the
            loaders that build splits check the label range.
        permutation: The PixelPermutation applied on reading, or None.
    """

    pixels: np.ndarray
    labels: np.ndarray
    permutation: PixelPermutation | None = None

    def __post_init__(self):
        if len(self.pixels) != len(self.labels):
            raise ValueError("images and labels must have equal length")

    @property
    def images(self) -> np.ndarray:
        """uint8 array of shape (N, 784): ``pixels`` with ``permutation`` applied."""
        if self.permutation is None:
            return self.pixels
        return apply_permutation(self.pixels, self.permutation)

    def batches(self, size: int):
        """Yield ``(images, labels)`` for consecutive ``size``-image batches
        (the last may be smaller), permuting only the batch yielded."""
        for start in range(0, len(self), size):
            images = self.pixels[start : start + size]
            if self.permutation is not None:
                images = apply_permutation(images, self.permutation)
            yield images, self.labels[start : start + size]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TaskSpec:
    """One task of a continual-learning stream.

    Attributes:
        task_id: 1-based position in the stream.
        train: Training split.
        test: Test split.
    """

    task_id: int
    train: LabeledDataset
    test: LabeledDataset


def _open_maybe_gzip(path: str):
    """Open a file, transparently decompressing if it is gzip."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    # Unbuffered, so that reading the rest of the file allocates it once.
    return open(path, "rb", buffering=0)


def load_idx(path: str) -> np.ndarray:
    """Load one IDX file (plain or .gz) into a numpy array.

    The IDX container stores a big-endian magic number (0x00000801 for label
    vectors, 0x00000803 for image tensors), the dimension sizes as big-endian
    uint32, then the raw uint8 payload.

    Args:
        path: Path to the IDX file.

    Returns:
        uint8 array shaped per the header: (N,) for labels, (N, rows, cols)
        for images.

    Raises:
        FileNotFoundError: The path does not exist.
        IdxFormatError: Bad magic number, truncated payload, dimension
            mismatch, or a damaged gzip stream.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"IDX file not found: {path}")
    try:
        with _open_maybe_gzip(path) as f:
            header = f.read(4)
            if len(header) < 4:
                raise IdxFormatError(f"{path}: truncated header")
            (magic,) = struct.unpack(">I", header)
            if magic == IDX_LABEL_MAGIC:
                ndim = 1
            elif magic == IDX_IMAGE_MAGIC:
                ndim = 3
            else:
                raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}")
            dim_bytes = f.read(4 * ndim)
            if len(dim_bytes) < 4 * ndim:
                raise IdxFormatError(f"{path}: truncated dimension header")
            dims = struct.unpack(f">{ndim}I", dim_bytes)
            expected = math.prod(dims)
            # Read what the file holds, not what the header declares: a corrupt
            # dimension can declare terabytes. A plain file's size bounds one
            # read; a gzip stream is read in 1 MiB chunks, up to one byte past
            # the payload.
            if isinstance(f, gzip.GzipFile):
                chunks, left = [], expected + 1
                while left and (chunk := f.read(min(left, 1 << 20))):
                    chunks.append(chunk)
                    left -= len(chunk)
                payload = b"".join(chunks)
            else:
                payload = f.read()
            if len(payload) < expected:
                raise IdxFormatError(
                    f"{path}: truncated payload, expected {expected} bytes, "
                    f"got {len(payload)}"
                )
            if len(payload) > expected:
                raise IdxFormatError(
                    f"{path}: dimension mismatch, payload exceeds "
                    f"{expected} bytes declared by header"
                )
            return np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: damaged gzip stream: {exc}") from None


def _load_pair(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load an images/labels IDX pair and flatten the 28x28 images to 784 rows.

    Raises IdxFormatError unless the pair is N >= 1 28x28 images and N labels.
    """
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise IdxFormatError(f"{images_path}: expected an image tensor")
    if images.shape[1:] != (28, 28):
        rows, cols = images.shape[1:]
        raise IdxFormatError(f"{images_path}: images are {rows}x{cols}, expected 28x28")
    if not len(images):
        raise IdxFormatError(f"{images_path}: no images")
    if labels.ndim != 1:
        raise IdxFormatError(f"{labels_path}: expected a label vector")
    if len(images) != len(labels):
        raise IdxFormatError(
            f"dimension mismatch: {len(images)} images vs {len(labels)} labels"
        )
    return images.reshape(len(images), -1), labels.astype(np.int64)


def _resolve(data_dir: str, filename: str) -> str:
    """Find a data file, accepting a .gz variant."""
    plain = os.path.join(data_dir, filename)
    if os.path.exists(plain):
        return plain
    gz = plain + ".gz"
    if os.path.exists(gz):
        return gz
    raise FileNotFoundError(
        f"missing data file: {plain} (also tried {gz})"
    )


def load_mnist(data_dir: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load the four standard MNIST files from a directory.

    Args:
        data_dir: Directory holding train-images-idx3-ubyte,
            train-labels-idx1-ubyte, t10k-images-idx3-ubyte and
            t10k-labels-idx1-ubyte (plain or gzipped).

    Returns:
        Tuple (train_images, train_labels, test_images, test_labels) with
        images flattened to (N, 784) uint8.

    Raises:
        IdxFormatError: A file fails ``_load_pair``'s checks, or a label is
            not a digit 0-9.
    """
    arrays = []
    for split in ("train", "test"):
        images_path = _resolve(data_dir, MNIST_FILES[f"{split}_images"])
        labels_path = _resolve(data_dir, MNIST_FILES[f"{split}_labels"])
        images, labels = _load_pair(images_path, labels_path)
        if labels.max(initial=0) > 9:
            raise IdxFormatError(
                f"{labels_path}: label {labels.max()} is not a digit 0-9"
            )
        arrays += [images, labels]
    return tuple(arrays)


def make_mnist_truncated(data_dir: str) -> TaskSpec:
    """Build the truncated-MNIST task: the first images in file order.

    The ten-class digit task balanced against the EMNIST letters task: the
    first 24000 training and 4000 test images (``MNIST_TRUNCATED_COUNTS``),
    in original file order, unshuffled.

    Args:
        data_dir: Directory with the MNIST IDX files.

    Returns:
        The TaskSpec, labels 0-9.

    Raises:
        DataError: Source has fewer images than the task keeps.
    """
    train_count, test_count = MNIST_TRUNCATED_COUNTS
    train_images, train_labels, test_images, test_labels = load_mnist(data_dir)
    if train_count > len(train_images) or test_count > len(test_images):
        raise DataError(
            f"insufficient source data: requested {train_count}/{test_count}, "
            f"available {len(train_images)}/{len(test_images)}"
        )
    return TaskSpec(
        task_id=1,
        # Copies, so the split does not keep the whole file's payload alive.
        train=LabeledDataset(
            train_images[:train_count].copy(), train_labels[:train_count].copy()
        ),
        test=LabeledDataset(
            test_images[:test_count].copy(), test_labels[:test_count].copy()
        ),
    )


def make_emnist_letters(data_dir: str) -> TaskSpec:
    """Build the ten-class EMNIST letters task from the Balanced split.

    Keeps only the ``EMNIST_LETTER_CLASSES`` and relabels them 0..9 in that
    order ('A' becomes 0 and 'S' becomes 9).
    Sample order within the retained subset follows the source file order.
    EMNIST IDX files store images transposed relative to the MNIST
    orientation; they are transposed back at ingest so strokes render
    upright, which is documented here because it affects only visualization
    (every downstream consumer is orientation-agnostic).

    Args:
        data_dir: Directory with the four emnist-balanced-* IDX files.

    Returns:
        The TaskSpec, letters relabeled 0-9.

    Raises:
        DataError: A letter class has no samples in the source.
    """
    pairs = [
        _load_pair(
            _resolve(data_dir, EMNIST_FILES[f"{split}_images"]),
            _resolve(data_dir, EMNIST_FILES[f"{split}_labels"]),
        )
        for split in ("train", "test")
    ]
    source_ids = [
        _BALANCED_UPPER_BASE + ord(c) - ord("A") for c in EMNIST_LETTER_CLASSES
    ]
    splits = []
    for images, labels in pairs:
        relabel = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
        for new, old in enumerate(source_ids):
            if not np.any(labels == old):
                letter = EMNIST_LETTER_CLASSES[new]
                raise DataError(f"class {letter!r} absent from source data")
            relabel[old] = new
        keep = np.isin(labels, source_ids)
        # Undo the stored transpose: each row is a 28x28 image saved column-major.
        kept = images[keep].reshape(-1, 28, 28).transpose(0, 2, 1).reshape(-1, 784)
        splits.append(LabeledDataset(kept, relabel[labels[keep]]))
    train, test = splits
    return TaskSpec(task_id=1, train=train, test=test)


def gen_permutation(seed: int) -> PixelPermutation:
    """Generate a deterministic pixel permutation from an integer seed.

    Seed 0 is reserved for the identity permutation. Any other seed drives a
    Fisher-Yates shuffle over a splitmix64 stream, so the mapping depends
    only on the seed value.

    Args:
        seed: Permutation seed; 0 means identity.

    Returns:
        The PixelPermutation.
    """
    mapping = np.arange(784, dtype=np.int64)
    if seed != 0:
        rng = SplitMix64(seed)
        for i in range(783, 0, -1):
            j = rng.randbelow(i + 1)
            mapping[i], mapping[j] = mapping[j], mapping[i]
    return PixelPermutation(mapping)


def apply_permutation(img: np.ndarray, p: PixelPermutation) -> np.ndarray:
    """Apply a pixel permutation to one image or a batch of images.

    Output pixel ``i`` takes the value of input pixel ``p.mapping[i]``, so
    the multiset of intensities is preserved exactly.

    Args:
        img: uint8 array of shape (784,) or (N, 784).
        p: The permutation to apply.

    Returns:
        Array of the same shape with pixels rearranged.
    """
    return np.take(img, p.mapping, axis=-1)


def make_permuted_stream(
    n_tasks: int, base_seed: int, data_dir: str, train_count: int | None = None
) -> list[TaskSpec]:
    """Build a stream of pixel-permuted MNIST tasks.

    Task 1 is plain MNIST (identity permutation). Tasks 2..n apply distinct
    permutations, each derived from ``base_seed`` and the task index and
    applied consistently to the full train and test splits.

    Every split keeps the shared unpermuted base, the shared labels and its
    task's permutation, which is applied one batch at a time as the split is
    read, so the stream holds no per-task copy of any image.

    Args:
        n_tasks: Number of tasks, at least 1.
        base_seed: Root seed the per-task permutation seeds derive from.
        data_dir: Directory with the MNIST IDX files.
        train_count: Optional cap on training images per task (file order),
            for reduced-scale runs; None keeps all 60000.

    Returns:
        List of ``n_tasks`` TaskSpecs.
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    train_images, train_labels, test_images, test_labels = load_mnist(data_dir)
    if train_count is not None:
        # Copies, so the stream does not keep the whole file's payload alive.
        train_images = train_images[:train_count].copy()
        train_labels = train_labels[:train_count].copy()
    tasks = []
    for t in range(1, n_tasks + 1):
        # Task 1 is plain; a derived seed of 0, the identity, is replaced by 1.
        seed = 0 if t == 1 else derive_seed(base_seed, "permutation", t) or 1
        perm = gen_permutation(seed)
        tasks.append(
            TaskSpec(
                task_id=t,
                train=LabeledDataset(train_images, train_labels, perm),
                test=LabeledDataset(test_images, test_labels, perm),
            )
        )
    return tasks
