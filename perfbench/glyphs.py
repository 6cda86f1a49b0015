"""Procedural 28x28 digit-like glyphs, written as the four MNIST IDX files.

Each of the ten classes is a fixed set of strokes (line segments and
elliptic arcs) in a normalized frame. A class's strokes are turned once into
a distance field on a fine grid; every image then samples that field through
its own random affine map (rotation, scale, shear, shift) and draws the
stroke with its own thickness. Everything is pure NumPy and a function of the
seed, so the same seed gives byte-identical files.

The statistics are close to MNIST's (about 19% non-zero pixels, mean
intensity about 33); ``check_glyphs`` enforces a band around them so a broken
generator fails before any timing is taken.
"""

from __future__ import annotations

import functools
import os
import struct

import numpy as np

CLASSES = 10
SIDE = 28
PIXELS = SIDE * SIDE

#: MNIST file names the CLI's ``permuted`` scenario reads.
IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

#: Accepted band of the share of non-zero pixels (MNIST: ~0.19).
ACTIVE_BAND = (0.14, 0.24)
#: Accepted band of the mean pixel intensity (MNIST: ~33).
MEAN_BAND = (22.0, 45.0)

_GRID = 96  # distance-field resolution over the normalized frame
_EXTENT = 1.3  # the field covers [-_EXTENT, _EXTENT] on both axes
_PX = 12.0  # pixels per normalized unit: a glyph is ~18 px tall
_EDGE = 0.07  # width of the anti-aliased stroke edge, normalized units


class GlyphError(Exception):
    """Generated glyphs fall outside the accepted statistics."""


def _line(x0, y0, x1, y1):
    t = np.linspace(0.0, 1.0, 80)
    return np.stack([x0 + (x1 - x0) * t, y0 + (y1 - y0) * t], axis=1)


def _arc(cx, cy, rx, ry, deg0, deg1):
    """Elliptic arc; angles in degrees, y grows downward (screen frame)."""
    t = np.radians(np.linspace(deg0, deg1, 160))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _strokes() -> list[np.ndarray]:
    """Sampled stroke points of the ten classes, one (P, 2) array each."""
    classes = [
        [_arc(0.0, 0.0, 0.42, 0.7, 0, 360)],
        [_line(0.05, -0.75, 0.0, 0.75), _line(-0.22, -0.5, 0.05, -0.75)],
        [
            _arc(0.0, -0.38, 0.4, 0.35, 180, 380),
            _line(0.38, -0.26, -0.45, 0.75),
            _line(-0.45, 0.75, 0.5, 0.75),
        ],
        [
            _arc(0.0, -0.37, 0.38, 0.35, 200, 450),
            _arc(0.0, 0.36, 0.44, 0.39, 270, 520),
        ],
        [
            _line(0.25, -0.75, -0.45, 0.25),
            _line(-0.45, 0.25, 0.5, 0.25),
            _line(0.25, -0.75, 0.25, 0.75),
        ],
        [
            _line(0.45, -0.75, -0.3, -0.75),
            _line(-0.3, -0.75, -0.35, -0.1),
            _arc(0.0, 0.3, 0.45, 0.42, 225, 500),
        ],
        [_arc(0.0, 0.35, 0.4, 0.38, 0, 360), _arc(0.4, 0.35, 0.8, 1.05, 180, 250)],
        [_line(-0.45, -0.75, 0.45, -0.75), _line(0.45, -0.75, -0.1, 0.75)],
        [_arc(0.0, -0.38, 0.32, 0.33, 0, 360), _arc(0.0, 0.35, 0.42, 0.4, 0, 360)],
        [_arc(0.0, -0.35, 0.4, 0.38, 0, 360), _line(0.4, -0.35, 0.3, 0.75)],
    ]
    return [np.concatenate(parts) for parts in classes]


@functools.cache
def _distance_fields() -> np.ndarray:
    """(CLASSES, _GRID, _GRID) distance from each grid point to the strokes."""
    axis = np.linspace(-_EXTENT, _EXTENT, _GRID)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    fields = np.empty((CLASSES, _GRID * _GRID))
    for c, points in enumerate(_strokes()):
        # Row blocks keep the (grid, points) matrix to a few megabytes.
        for start in range(0, len(grid), 1024):
            block = grid[start : start + 1024]
            d2 = (
                (block**2).sum(axis=1)[:, None]
                + (points**2).sum(axis=1)[None, :]
                - 2.0 * block @ points.T
            )
            fields[c, start : start + 1024] = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    return fields.reshape(CLASSES, _GRID, _GRID)


def render(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Render one glyph per label as uint8 rows of shape (N, 784)."""
    n = len(labels)
    theta = rng.uniform(-0.15, 0.15, n)
    scale = rng.uniform(0.9, 1.1, n)
    shear = rng.uniform(-0.15, 0.15, n)
    shift = rng.uniform(-0.1, 0.1, (n, 2))
    radius = rng.uniform(0.06, 0.10, n)

    # Forward map A = R(theta) @ [[s, s*k], [0, s]]; pixels sample the
    # template at A^-1 (u - shift).
    cos, sin = np.cos(theta), np.sin(theta)
    forward = np.empty((n, 2, 2))
    forward[:, 0, 0] = scale * cos
    forward[:, 0, 1] = scale * (shear * cos - sin)
    forward[:, 1, 0] = scale * sin
    forward[:, 1, 1] = scale * (shear * sin + cos)
    inverse = np.linalg.inv(forward)

    centers = (np.arange(SIDE) - (SIDE - 1) / 2.0) / _PX
    ux, uy = np.meshgrid(centers, centers)
    u = np.stack([ux.ravel(), uy.ravel()], axis=0)  # (2, 784)
    src = inverse @ (u[None, :, :] - shift[:, :, None])  # (n, 2, 784)

    # Bilinear lookup of the class distance field; outside the field the
    # distance is large, so those pixels stay black.
    pos = (src + _EXTENT) / (2.0 * _EXTENT) * (_GRID - 1)
    inside = ((pos >= 0.0) & (pos <= _GRID - 1)).all(axis=1)
    pos = np.clip(pos, 0.0, _GRID - 1.000001)
    ix = pos[:, 0].astype(np.int64)
    iy = pos[:, 1].astype(np.int64)
    fx = pos[:, 0] - ix
    fy = pos[:, 1] - iy
    f = _distance_fields()
    c = np.asarray(labels, dtype=np.int64)[:, None]
    dist = (
        f[c, iy, ix] * (1 - fx) * (1 - fy)
        + f[c, iy, ix + 1] * fx * (1 - fy)
        + f[c, iy + 1, ix] * (1 - fx) * fy
        + f[c, iy + 1, ix + 1] * fx * fy
    )
    dist = np.where(inside, dist, np.inf)
    ink = np.clip((radius[:, None] + _EDGE - dist) / _EDGE, 0.0, 1.0)
    return np.round(255.0 * ink).astype(np.uint8)


def make_split(count: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """A class-balanced split of ``count`` glyphs in shuffled order.

    ``stream`` separates the train and test splits of one seed.
    """
    rng = np.random.default_rng([seed, stream])
    labels = rng.permutation(np.arange(count) % CLASSES).astype(np.uint8)
    images = np.empty((count, PIXELS), dtype=np.uint8)
    chunk = 256
    for start in range(0, count, chunk):
        images[start : start + chunk] = render(labels[start : start + chunk], rng)
    return images, labels


def check_glyphs(images: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Check sparsity, intensity and class balance; return the statistics.

    Raises:
        GlyphError: A statistic lies outside its accepted band, or a class
            share differs from 1/CLASSES by more than one image.
    """
    active = float((images > 0).mean())
    mean = float(images.mean())
    counts = np.bincount(labels, minlength=CLASSES)
    stats = {"active_fraction": active, "mean_intensity": mean}
    if not ACTIVE_BAND[0] <= active <= ACTIVE_BAND[1]:
        raise GlyphError(f"active pixel fraction {active:.3f} outside {ACTIVE_BAND}")
    if not MEAN_BAND[0] <= mean <= MEAN_BAND[1]:
        raise GlyphError(f"mean intensity {mean:.1f} outside {MEAN_BAND}")
    if len(counts) != CLASSES or counts.max() - counts.min() > 1:
        raise GlyphError(f"class counts not balanced: {counts.tolist()}")
    return stats


def _write_idx(path: str, array: np.ndarray) -> None:
    magic = 0x00000803 if array.ndim == 3 else 0x00000801
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_mnist_dir(
    data_dir: str, train_count: int, test_count: int, seed: int
) -> dict[str, float]:
    """Generate, check and write the four MNIST IDX files of one data set.

    Returns:
        The statistics of the training split, from ``check_glyphs``.
    """
    train_images, train_labels = make_split(train_count, seed, 0)
    test_images, test_labels = make_split(test_count, seed, 1)
    stats = check_glyphs(train_images, train_labels)
    check_glyphs(test_images, test_labels)
    os.makedirs(data_dir, exist_ok=True)
    for key, array in (
        ("train_images", train_images.reshape(-1, SIDE, SIDE)),
        ("train_labels", train_labels),
        ("test_images", test_images.reshape(-1, SIDE, SIDE)),
        ("test_labels", test_labels),
    ):
        _write_idx(os.path.join(data_dir, IDX_NAMES[key]), array)
    return stats
