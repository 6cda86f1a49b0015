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
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .seeding import SplitMix64, derive_seed

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803

#: The ten EMNIST Balanced letter classes used for the letters task, in
#: relabeling order (first letter becomes class 0, second class 1, ...).
EMNIST_LETTER_CLASSES = ("A", "B", "D", "E", "G", "H", "N", "Q", "R", "S")

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
        seed: The integer seed the mapping was generated from.
    """

    mapping: np.ndarray
    seed: int = 0

    def __post_init__(self):
        mapping = np.asarray(self.mapping, dtype=np.int64)
        if mapping.shape != (784,):
            raise ValueError("permutation mapping must have length 784")
        if not np.array_equal(np.sort(mapping), np.arange(784)):
            raise ValueError("permutation mapping must be a bijection on 0..783")
        object.__setattr__(self, "mapping", mapping)

    def inverse(self) -> "PixelPermutation":
        """Return the inverse permutation."""
        inv = np.empty(784, dtype=np.int64)
        inv[self.mapping] = np.arange(784)
        return PixelPermutation(inv, seed=self.seed)


@dataclass(frozen=True)
class LabeledDataset:
    """Images with class labels.

    A split holds its images as given, or holds an unpermuted base (which
    other splits may share) together with a pixel permutation; the permuted
    copy is then made each time ``images`` is read and lives only as long
    as the caller keeps it.

    Attributes:
        pixels: uint8 array of shape (N, 784), row-major 28x28 intensities:
            the images themselves, or the base when ``permutation`` is set.
        labels: int64 array of shape (N,), each in [0, class_count).
        class_count: Size of the label space.
        permutation: The PixelPermutation ``images`` applies, or None.
    """

    pixels: np.ndarray
    labels: np.ndarray
    class_count: int
    permutation: PixelPermutation | None = None

    def __post_init__(self):
        if len(self.pixels) != len(self.labels):
            raise ValueError("images and labels must have equal length")
        if len(self.labels) and int(self.labels.max(initial=0)) >= self.class_count:
            raise ValueError("labels must be < class_count")

    @property
    def images(self) -> np.ndarray:
        """uint8 array of shape (N, 784): ``pixels`` with ``permutation`` applied."""
        if self.permutation is None:
            return self.pixels
        return apply_permutation(self.pixels, self.permutation)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TaskSpec:
    """One task of a continual-learning stream.

    Attributes:
        task_id: 1-based position in the stream.
        source: Human-readable provenance string, e.g. ``"mnist-truncated"``
            or ``"permuted-mnist(seed=...)"``.
        train: Training split.
        test: Test split.
    """

    task_id: int
    source: str
    train: LabeledDataset
    test: LabeledDataset

    def __post_init__(self):
        if self.train.class_count != self.test.class_count:
            raise ValueError("train and test must share class_count")

    @property
    def class_count(self) -> int:
        return self.train.class_count


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
        IdxFormatError: Bad magic number, truncated payload, or dimension
            mismatch.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"IDX file not found: {path}")
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
        expected = 1
        for d in dims:
            expected *= d
        # Read what the file holds, not what the header declares: a corrupt
        # dimension can declare terabytes.
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


def _load_pair(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load an images/labels IDX pair and flatten images to 784 rows."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise IdxFormatError(f"{images_path}: expected an image tensor")
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
    """
    train_images, train_labels = _load_pair(
        _resolve(data_dir, MNIST_FILES["train_images"]),
        _resolve(data_dir, MNIST_FILES["train_labels"]),
    )
    test_images, test_labels = _load_pair(
        _resolve(data_dir, MNIST_FILES["test_images"]),
        _resolve(data_dir, MNIST_FILES["test_labels"]),
    )
    return train_images, train_labels, test_images, test_labels


def make_mnist_truncated(
    data_dir: str, train_count: int = 24000, test_count: int = 4000
) -> TaskSpec:
    """Build the truncated-MNIST task: the first images in file order.

    The ten-class digit task balanced against the EMNIST letters task: the
    first ``train_count`` training images and first ``test_count`` test
    images, in original file order, unshuffled.

    Args:
        data_dir: Directory with the MNIST IDX files.
        train_count: Number of training images to keep (default 24000).
        test_count: Number of test images to keep (default 4000).

    Returns:
        TaskSpec with class_count 10.

    Raises:
        DataError: Source has fewer images than requested.
    """
    train_images, train_labels, test_images, test_labels = load_mnist(data_dir)
    if train_count > len(train_images) or test_count > len(test_images):
        raise DataError(
            f"insufficient source data: requested {train_count}/{test_count}, "
            f"available {len(train_images)}/{len(test_images)}"
        )
    if train_count == 0 or test_count == 0:
        warnings.warn("building a task with an empty split", stacklevel=2)
    return TaskSpec(
        task_id=1,
        source="mnist-truncated",
        train=LabeledDataset(
            train_images[:train_count], train_labels[:train_count], 10
        ),
        test=LabeledDataset(test_images[:test_count], test_labels[:test_count], 10),
    )


def make_emnist_letters(
    data_dir: str, classes: tuple[str, ...] = EMNIST_LETTER_CLASSES
) -> TaskSpec:
    """Build the ten-class EMNIST letters task from the Balanced split.

    Keeps only the requested letter classes and relabels them 0..9 in the
    listed order (so with the default list, 'A' becomes 0 and 'S' becomes 9).
    Sample order within the retained subset follows the source file order.
    EMNIST IDX files store images transposed relative to the MNIST
    orientation; they are transposed back at ingest so strokes render
    upright, which is documented here because it affects only visualization
    (every downstream consumer is orientation-agnostic).

    Args:
        data_dir: Directory with the four emnist-balanced-* IDX files.
        classes: Uppercase letters to keep, in relabeling order.

    Returns:
        TaskSpec with class_count equal to ``len(classes)``.

    Raises:
        DataError: A requested class is not an uppercase letter or has no
            samples in the source.
    """
    train_images, train_labels = _load_pair(
        _resolve(data_dir, EMNIST_FILES["train_images"]),
        _resolve(data_dir, EMNIST_FILES["train_labels"]),
    )
    test_images, test_labels = _load_pair(
        _resolve(data_dir, EMNIST_FILES["test_images"]),
        _resolve(data_dir, EMNIST_FILES["test_labels"]),
    )
    # Undo the stored transpose: each row is a 28x28 image saved column-major.
    train_images = (
        train_images.reshape(-1, 28, 28).transpose(0, 2, 1).reshape(-1, 784)
    )
    test_images = test_images.reshape(-1, 28, 28).transpose(0, 2, 1).reshape(-1, 784)

    source_ids = []
    for letter in classes:
        if len(letter) != 1 or not "A" <= letter <= "Z":
            raise DataError(f"not an EMNIST Balanced letter class: {letter!r}")
        source_ids.append(_BALANCED_UPPER_BASE + ord(letter) - ord("A"))

    def select(images: np.ndarray, labels: np.ndarray) -> LabeledDataset:
        keep = np.isin(labels, source_ids)
        kept_labels = labels[keep]
        relabel = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
        for new, old in enumerate(source_ids):
            if not np.any(labels == old):
                raise DataError(f"class {classes[new]!r} absent from source data")
            relabel[old] = new
        return LabeledDataset(images[keep], relabel[kept_labels], len(classes))

    return TaskSpec(
        task_id=1,
        source="emnist-letters",
        train=select(train_images, train_labels),
        test=select(test_images, test_labels),
    )


def gen_permutation(seed: int) -> PixelPermutation:
    """Generate a deterministic pixel permutation from an integer seed.

    Seed 0 is reserved for the identity permutation. Any other seed drives a
    Fisher-Yates shuffle over a splitmix64 stream, so the mapping depends
    only on the seed value.

    Args:
        seed: Permutation seed; 0 means identity.

    Returns:
        PixelPermutation carrying the mapping and the seed.
    """
    mapping = np.arange(784, dtype=np.int64)
    if seed != 0:
        rng = SplitMix64(seed)
        for i in range(783, 0, -1):
            j = rng.randbelow(i + 1)
            mapping[i], mapping[j] = mapping[j], mapping[i]
    return PixelPermutation(mapping, seed=seed)


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

    All train splits share one unpermuted image array and one label array;
    each permutes it only when its ``images`` are read, once per training
    pass, so the stream holds no per-task training copy. Test splits are
    permuted here, because every task's test split is evaluated again after
    each later task.

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
        train_images = train_images[:train_count]
        train_labels = train_labels[:train_count]
    tasks = []
    for t in range(1, n_tasks + 1):
        if t == 1:
            seed = 0
        else:
            seed = derive_seed(base_seed, "permutation", t)
            if seed == 0:
                seed = 1
        perm = gen_permutation(seed)
        tasks.append(
            TaskSpec(
                task_id=t,
                source=f"permuted-mnist(seed={seed})",
                train=LabeledDataset(train_images, train_labels, 10, perm),
                test=LabeledDataset(
                    apply_permutation(test_images, perm), test_labels, 10
                ),
            )
        )
    return tasks
