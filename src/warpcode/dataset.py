"""Synthetic datasets: warped dot pairs, transformation videos, rotated glyphs.

All emitted patches are contrast-normalized; generators are pure functions
of their seed.  Dot-image rotations use the same warp definition as the
analytic machinery (``warp_algebra.rotate_image``), so train-time data and
closed-form detectors agree on what "rotation" means.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .patches import ImagePatch, contrast_normalize, normalize_rows
from .storage import read_idx, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from .warp_algebra import rotate_image

Geometry = Union[int, Tuple[int, int]]

DOT_DENSITY_DEFAULT = 0.1

SPLIT_TAGS = ("train", "holdout", "test")
PAIR_FAMILIES = ("cyclic_shift", "rotation", "mixed")


def _geometry_dim(geometry: Geometry) -> int:
    if isinstance(geometry, int):
        return geometry
    width, height = geometry
    return int(width) * int(height)


def _geometry_shape(geometry: Geometry):
    if isinstance(geometry, int):
        return None
    width, height = geometry
    return (int(height), int(width))


@dataclass(frozen=True)
class WarpLabel:
    """Ground-truth warp for one generated pair: family name + parameter."""

    family: str
    parameter: object


@dataclass
class PairDataset:
    """Contrast-normalized (x, y) pairs with ground-truth warp labels."""

    xs: np.ndarray
    ys: np.ndarray
    labels: List[WarpLabel]
    geometry: Geometry

    def __len__(self):
        return self.xs.shape[0]

    def pair(self, index):
        return (
            ImagePatch(self.xs[index], normalized=True),
            ImagePatch(self.ys[index], normalized=True),
            self.labels[index],
        )


@dataclass
class VideoDataset:
    """Fixed-length frame sequences with per-clip transformation descriptors.

    ``clips`` has shape (n_clips, n_frames, dim); each descriptor is a tuple
    of (family, parameter, (first_frame, last_frame)) segments, 1-indexed.
    """

    clips: np.ndarray
    descriptors: List[tuple]
    geometry: Geometry

    @property
    def n_frames(self):
        return self.clips.shape[1]

    def __len__(self):
        return self.clips.shape[0]

    def concatenated(self):
        """Clips flattened to (n_clips, n_frames * dim) rows."""
        return self.clips.reshape(self.clips.shape[0], -1)


@dataclass
class LabeledImageSet:
    """Labelled images with train/holdout/test split tags."""

    images: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    geometry: Geometry

    def __post_init__(self):
        if not set(np.unique(self.split)) <= set(SPLIT_TAGS):
            raise DataError(f"split tags must be among {SPLIT_TAGS}")
        if self.labels.min() < 0 or self.labels.max() > 9:
            raise DataError("labels must lie in 0..9")

    def subset(self, tag):
        mask = self.split == tag
        return self.images[mask], self.labels[mask]

    def __len__(self):
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# warped dot pairs


def _dot_dim(geometry) -> int:
    dim = _geometry_dim(geometry)
    if dim < 2:  # every draw of a single pixel is constant
        raise DimensionError(f"dot images need at least 2 pixels, got {dim}")
    return dim


def _random_dots(rng, geometry, density):
    """A binary image with 0 < k < n dots among its n pixels: exactly the
    draws that normalize, as the centered norm sqrt(k (n - k) / n) is then
    at least sqrt(0.5), and 0 otherwise."""
    shape = _geometry_shape(geometry)
    size = _geometry_dim(geometry)
    while True:
        dots = rng.random(size) < density
        if 0 < np.count_nonzero(dots) < size:
            raw = dots.astype(np.float64)
            return raw.reshape(shape) if shape else raw


def _draw_warp(rng, geometry, family):
    shape = _geometry_shape(geometry)
    if family == "cyclic_shift":
        if shape is None:
            offset = int(rng.integers(0, _geometry_dim(geometry)))
            return WarpLabel("cyclic_shift", offset)
        height, width = shape
        dx = int(rng.integers(0, width))
        dy = int(rng.integers(0, height))
        return WarpLabel("cyclic_shift", (dx, dy))
    if family == "rotation":
        if shape is None:
            raise DimensionError("rotation pairs need a 2-D geometry")
        return WarpLabel("rotation", float(rng.uniform(-np.pi, np.pi)))
    raise DataError(f"unknown warp family {family!r}")


def _apply_label(raw, label, geometry):
    shape = _geometry_shape(geometry)
    if label.family == "cyclic_shift":
        if shape is None:
            return np.roll(raw, label.parameter)
        dx, dy = label.parameter
        return np.roll(raw, (dy, dx), axis=(0, 1))
    if label.family == "rotation":
        return rotate_image(raw, label.parameter)
    raise DataError(f"unknown warp family {label.family!r}")


def _normalize_or_raise(rows):
    values, degenerate = normalize_rows(rows)
    if degenerate.any():
        row = int(np.flatnonzero(degenerate)[0])
        raise DataError(f"row {row} is constant and cannot be contrast-normalized")
    return values


def gen_dot_pairs(
    n_pairs: int,
    geometry: Geometry,
    family: str = "cyclic_shift",
    density: float = DOT_DENSITY_DEFAULT,
    seed: int = 0,
) -> PairDataset:
    """Random binary dot images paired with a warped copy.

    ``family`` is ``cyclic_shift`` (1-D shifts or 2-D wrap-around
    translations), ``rotation`` (2-D only), or ``mixed`` (fair coin per pair
    between translation and rotation).  Warp parameters are drawn uniformly;
    the label records family and parameter.  The raw x and y rows are
    contrast-normalized once per side, after every pair is drawn.
    """
    if not 0.0 < density < 1.0:
        raise DataError(f"density must lie in (0, 1), got {density}")
    if family not in PAIR_FAMILIES:
        raise DataError(f"unknown warp family {family!r}")
    dim = _dot_dim(geometry)
    rng = np.random.default_rng(seed)
    raw_rows = np.empty((2, n_pairs, dim))  # x rows, then y rows
    labels = []
    for index in range(n_pairs):
        raw = _random_dots(rng, geometry, density)
        pick = family
        if family == "mixed":
            pick = "rotation" if rng.random() < 0.5 else "cyclic_shift"
        labels.append(_draw_warp(rng, geometry, pick))
        raw_rows[0, index] = raw.ravel()
        raw_rows[1, index] = np.ravel(_apply_label(raw, labels[-1], geometry))
    # shifts and rotations keep the pixel sum and the norm, hence the
    # centered norm, so a warped row is never degenerate
    xs, ys = (_normalize_or_raise(rows) for rows in raw_rows)
    return PairDataset(xs, ys, labels, geometry)


# ---------------------------------------------------------------------------
# transformation videos


def _validate_schedule(schedule, n_frames):
    if not schedule:
        raise DataError("empty video schedule")
    cursor = 1
    for family, (first, last) in schedule:
        if family not in ("cyclic_shift", "rotation"):
            raise DataError(f"unknown warp family {family!r}")
        if first != cursor:
            raise DataError(
                f"schedule gap or overlap: segment starts at {first}, expected {cursor}"
            )
        if last < first:
            raise DataError("schedule segment ends before it starts")
        cursor = last + 1
    if cursor != n_frames + 1:
        raise DataError(f"schedule covers frames 1..{cursor - 1}, expected 1..{n_frames}")


def _draw_segment_parameter(rng, geometry, family):
    shape = _geometry_shape(geometry)
    if family == "cyclic_shift":
        if shape is None:
            steps = [s for s in range(-2, 3) if s != 0]
            return int(rng.choice(steps))
        choices = [
            (dx, dy)
            for dx in range(-2, 3)
            for dy in range(-2, 3)
            if (dx, dy) != (0, 0)
        ]
        return choices[int(rng.integers(0, len(choices)))]
    # rotation speed: magnitude in [pi/8, pi/3], random direction
    magnitude = rng.uniform(np.pi / 8, np.pi / 3)
    return float(magnitude if rng.random() < 0.5 else -magnitude)


def gen_videos(
    n_clips: int,
    geometry: Geometry,
    n_frames: int,
    schedule: Sequence[tuple],
    density: float = DOT_DENSITY_DEFAULT,
    seed: int = 0,
) -> VideoDataset:
    """Dot movies transforming at constant per-frame speed per segment.

    ``schedule`` lists (family, (first_frame, last_frame)) segments covering
    1..n_frames contiguously.  One parameter is drawn per segment per clip;
    within a segment the same warp is applied to the evolving frame at every
    step.  Orientation, speed and direction vary across clips.
    """
    schedule = [(family, (int(a), int(b))) for family, (a, b) in schedule]
    _validate_schedule(schedule, n_frames)
    dim = _dot_dim(geometry)
    rng = np.random.default_rng(seed)
    clips = np.empty((n_clips, n_frames, dim))
    descriptors = []
    for clip in clips:
        current = _random_dots(rng, geometry, density)
        params = [
            (family, _draw_segment_parameter(rng, geometry, family), frames)
            for family, frames in schedule
        ]
        for family, parameter, (first, last) in params:
            for t in range(first, last + 1):
                if t > 1:
                    current = _apply_label(
                        current, WarpLabel(family, parameter), geometry
                    )
                clip[t - 1] = current.ravel()
        clip[:] = _normalize_or_raise(clip)  # warps keep the draw's centered norm
        descriptors.append(tuple(params))
    return VideoDataset(clips, descriptors, geometry)


# ---------------------------------------------------------------------------
# procedural glyphs


def _arc(cx, cy, radius, start_deg, end_deg, points=20, squash=1.0):
    angles = np.linspace(np.radians(start_deg), np.radians(end_deg), points)
    return np.stack([cx + radius * np.cos(angles), cy + squash * radius * np.sin(angles)], axis=1)


def _line(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y1]])


# Stroke templates in unit coordinates, y growing downward.
GLYPH_STROKES = {
    0: [_arc(0.5, 0.5, 0.3, 0.0, 360.0, points=32, squash=1.25)],
    1: [_line(0.5, 0.1, 0.5, 0.9), _line(0.5, 0.1, 0.34, 0.28)],
    2: [
        _arc(0.5, 0.32, 0.21, 180.0, 340.0),
        _line(0.695, 0.393, 0.3, 0.9),
        _line(0.3, 0.9, 0.74, 0.9),
    ],
    3: [_arc(0.47, 0.3, 0.19, 150.0, -75.0), _arc(0.47, 0.69, 0.22, 130.0, -130.0)],
    4: [_line(0.6, 0.1, 0.28, 0.6), _line(0.28, 0.6, 0.78, 0.6), _line(0.62, 0.32, 0.62, 0.9)],
    5: [
        _line(0.72, 0.1, 0.33, 0.1),
        _line(0.33, 0.1, 0.3, 0.44),
        _arc(0.47, 0.65, 0.235, 140.0, -90.0),
    ],
    6: [_arc(0.48, 0.64, 0.23, 0.0, 360.0, points=28), _arc(0.62, 0.42, 0.42, 235.0, 295.0)],
    7: [_line(0.26, 0.1, 0.74, 0.1), _line(0.74, 0.1, 0.4, 0.9)],
    8: [
        _arc(0.5, 0.3, 0.17, 0.0, 360.0, points=24),
        _arc(0.5, 0.68, 0.215, 0.0, 360.0, points=28),
    ],
    9: [_arc(0.52, 0.36, 0.2, 0.0, 360.0, points=28), _arc(0.38, 0.58, 0.42, 295.0, 355.0)],
}


def _segment_distances(xs, ys, starts, ends):
    """Squared distance from each pixel centre to each segment.

    The pixel centres form the grid ``ys x xs``; the result has shape
    ``(len(ys), len(xs), n_segments)``.  With ``p`` a pixel centre, ``s`` a
    segment start and ``d`` its direction, the foot parameter is
    ``t = clip(((px - sx) dx + (py - sy) dy) / |d|^2, 0, 1)`` and the offset
    is ``p - (s + t d)``.  The x and y parts are kept as separate arrays, so
    every sum runs over the same two terms in the same order as a reduction
    over a trailing coordinate axis would.  ``(px - sx) dx`` depends only on
    the column and ``(py - sy) dy`` only on the row, so each is computed once
    per column or row.
    """
    sx, sy = starts[:, 0], starts[:, 1]
    dx, dy = ends[:, 0] - sx, ends[:, 1] - sy
    lengths_sq = np.maximum(dx * dx + dy * dy, 1e-12)
    t = ((xs[:, None] - sx) * dx)[None, :, :] + ((ys[:, None] - sy) * dy)[:, None, :]
    t /= lengths_sq
    np.clip(t, 0.0, 1.0, out=t)
    # In place from here on: each line is one step of p - (s + t d), squared.
    nx = t * dx
    nx += sx
    np.subtract(xs[None, :, None], nx, out=nx)
    ny = np.multiply(t, dy, out=t)
    ny += sy
    np.subtract(ys[:, None, None], ny, out=ny)
    nx *= nx
    ny *= ny
    nx += ny
    return nx


def render_glyph(
    digit: int,
    geometry: Tuple[int, int],
    thickness: float = 0.055,
    offset=(0.0, 0.0),
    scale: float = 1.0,
    rotation: float = 0.0,
) -> np.ndarray:
    """Rasterize one digit glyph, optionally rotated about the patch center.

    Rotation is applied to the stroke geometry before rasterizing, so the
    result is crisp at any angle.  Each pixel's distance to the nearest
    stroke is the square root of the smallest squared segment distance;
    ``sqrt`` is monotone and correctly rounded, so this equals the smallest
    distance exactly.
    """
    width, height = geometry
    strokes = GLYPH_STROKES[digit]
    starts, ends = [], []
    c, s = np.cos(rotation), np.sin(rotation)
    rot = np.array([[c, s], [-s, c]])  # y grows downward
    for polyline in strokes:
        pts = (polyline - 0.5) * scale @ rot.T + 0.5 + np.asarray(offset)
        starts.append(pts[:-1])
        ends.append(pts[1:])
    starts = np.concatenate(starts)
    ends = np.concatenate(ends)
    xs = (np.arange(width) + 0.5) / width
    ys = (np.arange(height) + 0.5) / height
    distances = np.sqrt(_segment_distances(xs, ys, starts, ends).min(axis=2))
    return np.clip(1.0 - distances / thickness, 0.0, 1.0)


def gen_rotated_glyphs(
    n_per_class: int,
    geometry: Tuple[int, int],
    seed: int = 0,
    max_rotation: float = np.pi,
) -> LabeledImageSet:
    """Procedural digit glyphs, jittered and rotated by random angles.

    Ten stroke templates stand in for handwritten digits; each instance gets
    thickness/offset/scale jitter, a rotation uniform on (-max_rotation,
    max_rotation], and contrast normalization.  Split tags partition the set
    into 63% train / 7% holdout (a tenth of the training pool) / 30% test.
    """
    width, height = geometry
    if width < 16 or height < 16:
        raise DimensionError("glyph geometry must be at least 16x16")
    rng = np.random.default_rng(seed)
    total = 10 * n_per_class
    images = np.empty((total, width * height))
    labels = np.empty(total, dtype=np.int64)
    index = 0
    for digit in range(10):
        for _ in range(n_per_class):
            while True:
                thickness = 0.055 * rng.uniform(0.8, 1.25)
                offset = rng.uniform(-0.05, 0.05, size=2)
                scale = rng.uniform(0.9, 1.1)
                angle = rng.uniform(-max_rotation, max_rotation) if max_rotation else 0.0
                raw = render_glyph(
                    digit,
                    geometry,
                    thickness=thickness,
                    offset=offset,
                    scale=scale,
                    rotation=angle,
                )
                patch = contrast_normalize(raw.ravel())
                if not patch.degenerate:
                    break
            images[index] = patch.values
            labels[index] = digit
            index += 1
    order = rng.permutation(total)
    images, labels = images[order], labels[order]
    split = np.empty(total, dtype=object)
    n_test = int(round(total * 0.3))
    n_holdout = int(round((total - n_test) * 0.1))
    split[:n_test] = "test"
    split[n_test : n_test + n_holdout] = "holdout"
    split[n_test + n_holdout :] = "train"
    return LabeledImageSet(images, labels, split.astype(str), geometry)


# ---------------------------------------------------------------------------
# IDX loading (optional real-data path)


def load_idx(images_path, labels_path, split_tag: str = "train") -> LabeledImageSet:
    """Load an IDX image/label file pair into a LabeledImageSet.

    Pixel values are scaled to [0, 1] and contrast-normalized per image.
    """
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(
            f"image file should have magic {IDX_IMAGE_MAGIC:#010x} (3 dimensions), "
            f"got {images.ndim} dimensions"
        )
    if labels.ndim != 1:
        raise FormatError(
            f"label file should have magic {IDX_LABEL_MAGIC:#010x} (1 dimension), "
            f"got {labels.ndim} dimensions"
        )
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels"
        )
    n, height, width = images.shape
    flat = images.reshape(n, height * width).astype(np.float64) / 255.0
    normalized = normalize_rows(flat)[0]
    split = np.full(n, split_tag)
    return LabeledImageSet(
        normalized, labels.astype(np.int64), split, (width, height)
    )
