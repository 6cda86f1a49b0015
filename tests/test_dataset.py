"""Tests for IDX loading, task construction, and pixel permutations."""

from __future__ import annotations

import gzip
import hashlib
import struct
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colanet_cl import dataset
from colanet_cl.dataset import (
    EMNIST_LETTER_CLASSES,
    DataError,
    IdxFormatError,
    LabeledDataset,
    PixelPermutation,
    apply_permutation,
    gen_permutation,
    load_idx,
    load_mnist,
    make_emnist_letters,
    make_mnist_truncated,
    make_permuted_stream,
)
from colanet_cl.seeding import derive_seed, splitmix64

import permutation_reference as ref
from conftest import bit_flips, flip, requires_mnist, saved_bytes, write_idx

MiB = 1 << 20

#: SHA-256 of ``gen_permutation``'s mapping bytes for these seeds in turn,
#: pinned so a change to the stream or the shuffle cannot pass unseen.
PERMUTATION_SEEDS = (1, 2, 7, 99, 12345, 2**63, 2**64 - 1)
PERMUTATION_SHA256 = "2ae20dc2431c161293dd4939081671af2497981f648baac4d4e5138ae7e46dec"


# ---------------------------------------------------------------- IDX files


def test_load_idx_label_roundtrip(tmp_path):
    labels = np.arange(10, dtype=np.uint8)
    path = str(tmp_path / "labels")
    write_idx(path, labels)
    assert np.array_equal(load_idx(path), labels)


def test_load_idx_image_roundtrip(tmp_path):
    images = np.arange(3 * 28 * 28, dtype=np.uint64).reshape(3, 28, 28) % 256
    path = str(tmp_path / "images")
    write_idx(path, images)
    loaded = load_idx(path)
    assert loaded.shape == (3, 28, 28)
    assert np.array_equal(loaded, images.astype(np.uint8))


def test_load_idx_gzip_variant(tmp_path):
    labels = np.array([1, 2, 3], dtype=np.uint8)
    plain = tmp_path / "labels"
    write_idx(str(plain), labels)
    gz = tmp_path / "labels.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(load_idx(str(gz)), labels)


def damage_gzip(data: bytes, damage: str) -> bytes:
    """A gzip stream cut 10 bytes short, or with one byte inverted: in the
    deflate block header (zlib.error) or later in the data (CRC mismatch)."""
    if damage == "truncated":
        return data[:-10]
    at = {"deflate": 11, "crc": 100}[damage]
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


@pytest.mark.parametrize("damage", ["truncated", "deflate", "crc"])
def test_load_idx_damaged_gzip_is_format_error(tmp_path, damage):
    plain = tmp_path / "labels"
    write_idx(str(plain), np.random.default_rng(3).integers(0, 10, 1000))
    gz = tmp_path / "labels.gz"
    gz.write_bytes(damage_gzip(gzip.compress(plain.read_bytes(), mtime=0), damage))
    with pytest.raises(IdxFormatError, match="damaged gzip stream"):
        load_idx(str(gz))


@pytest.mark.parametrize(
    "header, payload_mib, message",
    [
        # One label declared, 64 MiB of zeros held: read whole, it peaked at
        # 128 MiB before it was rejected.
        (struct.pack(">II", 0x00000801, 1), 64, "exceeds"),
        # Terabytes declared, 1 MiB held.
        (struct.pack(">IIII", 0x00000803, 2**32 - 1, 28, 28), 1, "truncated payload"),
    ],
)
def test_load_idx_gzip_reads_at_most_the_declared_payload(
    tmp_path, header, payload_mib, message
):
    path = tmp_path / "labels.gz"
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(header)
        for _ in range(payload_mib):
            fh.write(bytes(MiB))
    tracemalloc.start()
    try:
        with pytest.raises(IdxFormatError, match=message):
            load_idx(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MiB


def test_load_idx_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_idx(str(tmp_path / "absent"))


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">I", 0x00000999) + b"\x00" * 8)
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(str(path))


def test_load_idx_truncated_header(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(IdxFormatError, match="truncated header"):
        load_idx(str(path))


def test_load_idx_truncated_dimensions(tmp_path):
    path = tmp_path / "dims"
    path.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">I", 1))
    with pytest.raises(IdxFormatError, match="truncated dimension"):
        load_idx(str(path))


def test_load_idx_truncated_payload(tmp_path):
    path = tmp_path / "payload"
    path.write_bytes(struct.pack(">II", 0x00000801, 10) + b"\x00" * 9)
    with pytest.raises(IdxFormatError, match="truncated payload"):
        load_idx(str(path))


def test_load_idx_trailing_bytes(tmp_path):
    path = tmp_path / "long"
    path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError, match="exceeds"):
        load_idx(str(path))


IDX_BYTES = saved_bytes(
    lambda images, path: write_idx(path, images),
    np.random.default_rng(6).integers(0, 256, (4, 28, 28), dtype=np.uint8),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bit_flips(len(IDX_BYTES), header_len=16))
@example(bits=[4 * 8 + 7])  # the image count's top bit: 2**31 more images
def test_load_idx_bit_flips_load_cleanly_or_fail_typed(tmp_path_factory, bits):
    path = tmp_path_factory.getbasetemp() / "flipped_images"
    path.write_bytes(flip(IDX_BYTES, bits))
    try:
        load_idx(str(path))
    except IdxFormatError:
        pass


# ---------------------------------------------------------- permutations


def test_gen_permutation_seed_zero_is_identity():
    assert np.array_equal(gen_permutation(0).mapping, np.arange(784))


def test_gen_permutation_deterministic():
    assert np.array_equal(gen_permutation(99).mapping, gen_permutation(99).mapping)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=2**64 - 1))
@example(2**64 - 1)
def test_gen_permutation_is_bijection(seed):
    """Every seed in [1, 2**64) gives a bijection, the scalar reference's."""
    mapping = gen_permutation(seed).mapping
    assert mapping.dtype == np.int64
    assert np.array_equal(np.sort(mapping), np.arange(784))
    assert np.array_equal(mapping, ref.shuffle(ref.scalar_stream(seed)))


def test_gen_permutation_digest_is_pinned():
    digest = hashlib.sha256()
    for seed in PERMUTATION_SEEDS:
        digest.update(gen_permutation(seed).mapping.tobytes())
    assert digest.hexdigest() == PERMUTATION_SHA256


def test_gen_permutation_redraws_a_biased_draw(monkeypatch):
    """784 does not divide 2**64, so at i = 783 a draw is kept up to the last
    value below the largest multiple of 784 and redrawn past it. Streams that
    start at either side of that bound, or at 2**64 - 1, shuffle as the
    reference does on the same stream; a redrawn first value leaves the
    unsubstituted shuffle, a kept one does not."""
    seed = 12345
    last_kept = (1 << 64) // 784 * 784 - 1
    plain = gen_permutation(seed).mapping
    for first, kept in ((last_kept, True), (last_kept + 1, False), (2**64 - 1, False)):
        monkeypatch.setattr(dataset, "splitmix64",
                            lambda s, first=first: chain([first], splitmix64(s)))
        mapping = gen_permutation(seed).mapping
        assert np.array_equal(mapping, ref.shuffle(chain([first], ref.scalar_stream(seed))))
        assert np.array_equal(mapping, plain) != kept


def test_gen_permutation_distinct_seeds_differ():
    assert not np.array_equal(gen_permutation(1).mapping, gen_permutation(2).mapping)


def test_permutation_validation_rejects_short_mapping():
    with pytest.raises(ValueError):
        PixelPermutation(np.arange(10))


def test_permutation_validation_rejects_repeats():
    mapping = np.zeros(784, dtype=np.int64)
    with pytest.raises(ValueError):
        PixelPermutation(mapping)


def test_permutation_inverse_roundtrip():
    perm = gen_permutation(7)
    inverse = PixelPermutation(np.argsort(perm.mapping))
    img = np.arange(784, dtype=np.uint8)
    assert np.array_equal(
        apply_permutation(apply_permutation(img, perm), inverse), img
    )


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**31))
def test_apply_permutation_preserves_histogram(perm_seed, img_seed):
    perm = gen_permutation(perm_seed)
    img = np.random.default_rng(img_seed).integers(0, 256, size=784, dtype=np.uint8)
    out = apply_permutation(img, perm)
    assert np.array_equal(np.bincount(out, minlength=256), np.bincount(img, minlength=256))


def test_apply_permutation_batch_matches_single():
    perm = gen_permutation(11)
    batch = np.random.default_rng(0).integers(0, 256, size=(5, 784), dtype=np.uint8)
    out = apply_permutation(batch, perm)
    assert out.shape == (5, 784) and out.flags.c_contiguous
    assert np.array_equal(out, batch[:, perm.mapping])
    for i in range(5):
        assert np.array_equal(out[i], apply_permutation(batch[i], perm))


# ------------------------------------------------------------- MNIST tasks


@requires_mnist
def test_make_mnist_truncated_shapes(mnist_dir, mnist_arrays):
    task = make_mnist_truncated(mnist_dir)
    assert task.task_id == 1
    assert task.train.permutation is None and task.test.permutation is None
    assert len(task.train) == 24000
    assert len(task.test) == 4000
    # Truncation keeps the file-order prefix.
    train_images, train_labels, _, _ = mnist_arrays
    assert np.array_equal(task.train.images[0], train_images[0])
    assert np.array_equal(task.train.labels[:50], train_labels[:50])


@requires_mnist
def test_make_permuted_stream_structure(mnist_dir):
    tasks = make_permuted_stream(3, base_seed=5, data_dir=mnist_dir, train_count=100)
    assert [t.task_id for t in tasks] == [1, 2, 3]
    assert np.array_equal(tasks[0].train.permutation.mapping, np.arange(784))
    for task in tasks:
        assert len(task.train) == 100
        assert len(task.test) == 10000

    # Task 1 is plain MNIST; later tasks are pixel-shuffled copies of it.
    base = tasks[0].train.images
    for task in tasks[1:]:
        assert not np.array_equal(task.train.images, base)
        assert np.array_equal(
            np.sort(task.train.images[0]), np.sort(base[0])
        )
        assert np.array_equal(task.train.labels, tasks[0].train.labels)

    # Permutation seeds are derived, not positional: different base seeds
    # give different task-2 pixels, and the derivation path is documented.
    other = make_permuted_stream(2, base_seed=6, data_dir=mnist_dir, train_count=100)
    assert not np.array_equal(other[1].train.images, tasks[1].train.images)
    expected_seed = derive_seed(5, "permutation", 2)
    assert np.array_equal(
        tasks[1].train.permutation.mapping, gen_permutation(expected_seed).mapping
    )


def test_permuted_stream_splits_equal_eager_permuted_copies(synthetic_mnist_dir):
    train_images, train_labels, test_images, test_labels = load_mnist(
        synthetic_mnist_dir
    )
    tasks = make_permuted_stream(4, base_seed=3, data_dir=synthetic_mnist_dir,
                                 train_count=250)
    # Task 1 is the identity; a derived seed of 0 is replaced by 1.
    seeds = [0] + [derive_seed(3, "permutation", t) or 1 for t in range(2, 5)]
    for task, seed in zip(tasks, seeds, strict=True):
        mapping = gen_permutation(seed).mapping
        assert np.array_equal(task.train.permutation.mapping, mapping)
        assert task.train.images.tobytes() == train_images[:250][..., mapping].tobytes()
        assert task.test.images.tobytes() == test_images[..., mapping].tobytes()
        assert np.array_equal(task.train.labels, train_labels[:250])
        assert np.array_equal(task.test.labels, test_labels)


def test_permuted_stream_shares_one_train_base(synthetic_mnist_dir):
    """A 10-task stream holds one train base, one test base, their two label
    arrays and one permutation per task, shared by the task's two splits."""
    tasks = make_permuted_stream(10, base_seed=3, data_dir=synthetic_mnist_dir)
    assert tasks[0].train.pixels.shape == (300, 784)
    assert tasks[0].test.pixels.shape == (100, 784)

    def held(task):
        return (task.train.pixels, task.train.labels, task.test.pixels, task.test.labels)

    for task in tasks:
        assert all(a is b for a, b in zip(held(task), held(tasks[0]), strict=True))
        assert task.test.permutation is task.train.permutation
    assert len({id(task.train.permutation) for task in tasks}) == 10
    for split in (split for task in tasks for split in (task.train, task.test)):
        assert set(vars(split)) == {"pixels", "labels", "permutation"}


def test_permuted_stream_test_splits_permute_on_read(synthetic_mnist_dir):
    """A test split, like a train split, makes its permuted copy only when
    read, and keeps none."""
    tasks = make_permuted_stream(3, base_seed=3, data_dir=synthetic_mnist_dir)
    for task in tasks:
        first = task.test.images
        assert first is not task.test.images
        assert not np.shares_memory(first, task.test.pixels)
        assert first.flags.c_contiguous


def test_capped_split_owns_only_its_rows(synthetic_mnist_dir, monkeypatch):
    """A train_count cap, and the truncated-MNIST task, copy the kept rows,
    so the split does not keep the whole file's payload alive."""
    tasks = make_permuted_stream(2, base_seed=3, data_dir=synthetic_mnist_dir,
                                 train_count=100)
    monkeypatch.setattr(dataset, "MNIST_TRUNCATED_COUNTS", (100, 40))
    truncated = make_mnist_truncated(synthetic_mnist_dir)
    splits = (tasks[0].train, truncated.train, truncated.test)
    assert [len(split) for split in splits] == [100, 100, 40]
    for split in splits:
        assert split.pixels.base is None and split.labels.base is None


@pytest.mark.parametrize("kind", ["plain", "permuted"])
@pytest.mark.parametrize("size", [1, 7, 64, 100, 101])
def test_batches_concatenate_to_images(synthetic_mnist_dir, kind, size):
    """Batches of any size, the split's length (100) and one more included,
    put together give ``images`` and ``labels`` byte for byte."""
    test = make_permuted_stream(2, base_seed=3, data_dir=synthetic_mnist_dir)[1].test
    split = test if kind == "permuted" else LabeledDataset(test.pixels, test.labels)
    assert len(split) == 100
    batches = list(split.batches(size))
    assert [len(images) for images, _ in batches[:-1]] == [size] * (len(batches) - 1)
    images = np.concatenate([images for images, _ in batches])
    labels = np.concatenate([labels for _, labels in batches])
    assert images.dtype == np.uint8
    assert images.tobytes() == split.images.tobytes()
    assert labels.tobytes() == split.labels.tobytes()


def test_permuted_stream_task_one_is_identity(synthetic_mnist_dir):
    train_images, _, test_images, _ = load_mnist(synthetic_mnist_dir)
    (task,) = make_permuted_stream(1, base_seed=9, data_dir=synthetic_mnist_dir)
    assert np.array_equal(task.train.permutation.mapping, np.arange(784))
    assert np.array_equal(task.train.images, train_images)
    assert np.array_equal(task.test.images, test_images)


def test_make_permuted_stream_rejects_train_count_beyond_the_split(synthetic_mnist_dir):
    """The fixture holds 300 training images: a cap of 300 keeps them all,
    one more is a data error, not a silent run on 300 images."""
    (task,) = make_permuted_stream(1, 1, synthetic_mnist_dir, train_count=300)
    assert len(task.train) == 300
    with pytest.raises(DataError, match="insufficient source data: requested 301 .*300"):
        make_permuted_stream(1, 1, synthetic_mnist_dir, train_count=301)


def test_make_mnist_truncated_rejects_short_splits(synthetic_mnist_dir, monkeypatch):
    """The fixture holds 300/100 images, fewer than the 24000/4000 the task
    keeps: a data error naming the split that is short."""
    with pytest.raises(DataError, match="requested 24000 training images, available 300"):
        make_mnist_truncated(synthetic_mnist_dir)
    monkeypatch.setattr(dataset, "MNIST_TRUNCATED_COUNTS", (300, 101))
    with pytest.raises(DataError, match="requested 101 test images, available 100"):
        make_mnist_truncated(synthetic_mnist_dir)


def test_make_permuted_stream_rejects_zero_tasks(synthetic_mnist_dir):
    with pytest.raises(ValueError):
        make_permuted_stream(0, base_seed=1, data_dir=synthetic_mnist_dir)


# ------------------------------------------------------------ EMNIST task


def test_emnist_letters_relabeling(emnist_corpus):
    task = make_emnist_letters(emnist_corpus["dir"])
    assert task.train.permutation is None and task.test.permutation is None
    n = emnist_corpus["train_rows_per_class"]
    assert len(task.train) == n * len(EMNIST_LETTER_CLASSES)
    assert len(task.test) == emnist_corpus["test_rows_per_class"] * len(
        EMNIST_LETTER_CLASSES
    )
    # Every retained class appears exactly n times, relabeled 0..9 in the
    # declared letter order.
    counts = np.bincount(task.train.labels, minlength=10)
    assert counts.tolist() == [n] * 10


def test_emnist_letters_undoes_stored_transpose(emnist_corpus):
    task = make_emnist_letters(emnist_corpus["dir"])
    glyphs = emnist_corpus["glyphs"]
    for new_label, letter in enumerate(EMNIST_LETTER_CLASSES):
        balanced_id = 10 + ord(letter) - ord("A")
        rows = task.train.images[task.train.labels == new_label]
        expected = glyphs[balanced_id].reshape(784)
        for row in rows:
            assert np.array_equal(row, expected)


def test_emnist_letters_rejects_absent_class(tmp_path, emnist_corpus):
    # A corpus holding only class 'A' cannot serve the letters task's 'B'.
    from colanet_cl.dataset import EMNIST_FILES

    labels = np.full(4, 10, dtype=np.uint8)
    images = np.zeros((4, 28, 28), dtype=np.uint8)
    for key in ("train", "test"):
        write_idx(str(tmp_path / EMNIST_FILES[f"{key}_images"]), images)
        write_idx(str(tmp_path / EMNIST_FILES[f"{key}_labels"]), labels)
    with pytest.raises(DataError, match="absent"):
        make_emnist_letters(str(tmp_path))


def test_emnist_letters_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_emnist_letters(str(tmp_path))


# ------------------------------------------------------------- validation


def test_labeled_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        LabeledDataset(
            pixels=np.zeros((3, 784), dtype=np.uint8),
            labels=np.zeros(2, dtype=np.int64),
        )
