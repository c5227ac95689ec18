"""Synthetic datasets: warped dot pairs, transformation videos, rotated glyphs.

All emitted patches are contrast-normalized; generators are pure functions
of their seed.  Dot images move by the stack operators of ``WARP_OPERATORS``
(``shift_stack``, ``rotate_stack``), which also build the analytic warp
matrices, so train-time data and closed-form detectors agree on each warp.

The dot generators draw every random number in a per-item loop, the glyph
generator one block of attempts per digit; then they warp, rasterize and
normalize whole stacks: all pairs at once, all clips of a video set in
lock-step one frame at a time, glyphs a block at a time.  A stack rotation
or rasterization is bit for bit the per-item one and a shift only copies
values, so the output equals item-by-item generation exactly.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .patches import ImagePatch, contrast_normalize, normalize_rows  # noqa: F401
from .storage import read_idx, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
# perfbench/tracer.py times warpcode.dataset.rotate_image and contrast_normalize,
# so the names stay bound here although the generators work on whole stacks
from .warp_algebra import rotate_image, rotate_stack, shift_stack  # noqa: F401

Geometry = Union[int, Tuple[int, int]]

DOT_DENSITY_DEFAULT = 0.1

# A dot image is redrawn until it holds a dot and a blank pixel; a geometry
# and density that need more draws than this on average are refused.
MAX_DOT_DRAWS = 1000

GLYPH_BLOCK = 8  # glyphs whose segment distances are held at once

SPLIT_TAGS = ("train", "holdout", "test")
# each warp family's stack operator, the one definition of its warp
WARP_OPERATORS = {"cyclic_shift": shift_stack, "rotation": rotate_stack}
PAIR_FAMILIES = (*WARP_OPERATORS, "mixed")


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


def dot_image_dim(geometry, density) -> int:
    """The pixel count n of a dot image, once its draws are known to end.

    Raises ``DimensionError`` below 2 pixels (every draw is constant) and
    ``DataError`` for a density p outside (0, 1) or one whose draws are
    valid (0 < dots < n) with probability 1 - (1 - p)^n - p^n below
    1 / ``MAX_DOT_DRAWS``.
    """
    dim = _geometry_dim(geometry)
    if dim < 2:
        raise DimensionError(f"dot images need at least 2 pixels, got {dim}")
    if not 0.0 < density < 1.0:
        raise DataError(f"density must lie in (0, 1), got {density}")
    valid = 1.0 - (1.0 - density) ** dim - density**dim
    if valid * MAX_DOT_DRAWS < 1.0:
        raise DataError(
            f"dot images need a density whose {dim}-pixel draws hold a dot and "
            f"a blank pixel within {MAX_DOT_DRAWS} draws on average; density "
            f"{density} gives probability {valid:.3g} per draw"
        )
    return dim


def _random_dots(rng, dim, density):
    """A flat binary image with 0 < k < dim dots: exactly the draws that
    normalize, as the centered norm sqrt(k (dim - k) / dim) is then at least
    sqrt(0.5), and 0 otherwise."""
    while True:
        dots = rng.random(dim) < density
        if 0 < np.count_nonzero(dots) < dim:
            return dots.astype(np.float64)


def _draw_warp(rng, geometry, family):
    shape = _geometry_shape(geometry)
    if family == "cyclic_shift":
        if shape is None:
            return WarpLabel(family, int(rng.integers(0, _geometry_dim(geometry))))
        dx, dy = (int(rng.integers(0, size)) for size in shape[::-1])  # width, then height
        return WarpLabel(family, (dx, dy))
    if family == "rotation":  # _warp refuses a 1-D geometry
        return WarpLabel("rotation", float(rng.uniform(-np.pi, np.pi)))
    raise DataError(f"unknown warp family {family!r}")


def _warp(rows, family, parameters, geometry):
    """Each row of an ``(m, dim)`` array warped by its own parameter of one
    family, as one call of the family's stack operator; a 1-D geometry is
    one pixel row, shifted by ``(s, 0)``."""
    shape = _geometry_shape(geometry)
    if shape is None:
        if family == "rotation":
            raise DimensionError("rotations need a 2-D geometry")
        shape, parameters = (1, rows.shape[1]), [(s, 0) for s in parameters]
    return WARP_OPERATORS[family](rows.reshape(-1, *shape), parameters).reshape(rows.shape)


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
    the label records family and parameter.  Every pair is drawn first; then
    all pairs of a family are warped as one stack, and the raw x and y rows
    are contrast-normalized once per side.
    """
    if family not in PAIR_FAMILIES:
        raise DataError(f"unknown warp family {family!r}")
    dim = dot_image_dim(geometry, density)
    rng = np.random.default_rng(seed)
    raw_xs = np.empty((n_pairs, dim))
    labels = []
    for index in range(n_pairs):
        raw_xs[index] = _random_dots(rng, dim, density)
        pick = family
        if family == "mixed":
            pick = "rotation" if rng.random() < 0.5 else "cyclic_shift"
        labels.append(_draw_warp(rng, geometry, pick))
    parameters = [label.parameter for label in labels]
    if family == "mixed":
        raw_ys = np.empty_like(raw_xs)
        for pick in WARP_OPERATORS:
            chosen = [i for i, label in enumerate(labels) if label.family == pick]
            if chosen:
                picked = [parameters[i] for i in chosen]
                raw_ys[chosen] = _warp(raw_xs[chosen], pick, picked, geometry)
    else:  # one family: warp the x rows as they are, without a gathered copy
        raw_ys = _warp(raw_xs, family, parameters, geometry)
    # shifts and rotations keep the pixel sum and the norm, hence the
    # centered norm, so a warped row is never degenerate
    xs, ys = (_normalize_or_raise(rows) for rows in (raw_xs, raw_ys))
    return PairDataset(xs, ys, labels, geometry)


# ---------------------------------------------------------------------------
# transformation videos


def _validate_schedule(schedule, n_frames):
    if not schedule:
        raise DataError("empty video schedule")
    cursor = 1
    for family, (first, last) in schedule:
        if family not in WARP_OPERATORS:
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
            return int(rng.choice([-2, -1, 1, 2]))
        choices = [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3) if dx or dy]
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
    step.  Orientation, speed and direction vary across clips.  Every clip's
    dots and parameters are drawn first; then all clips step in lock-step:
    one stack warp and one normalization of the raw frames per frame.
    """
    schedule = [(family, (int(a), int(b))) for family, (a, b) in schedule]
    _validate_schedule(schedule, n_frames)
    dim = dot_image_dim(geometry, density)
    rng = np.random.default_rng(seed)
    current = np.empty((n_clips, dim))
    descriptors = []
    for row in current:
        row[:] = _random_dots(rng, dim, density)
        descriptors.append(
            tuple(
                (family, _draw_segment_parameter(rng, geometry, family), frames)
                for family, frames in schedule
            )
        )
    # warps keep the draw's centered norm, so no frame is degenerate
    clips = np.empty((n_clips, n_frames, dim))
    clips[:, 0] = _normalize_or_raise(current)
    for segment, (family, (first, last)) in enumerate(schedule):
        parameters = [params[segment][1] for params in descriptors]
        for t in range(max(first, 2), last + 1):
            current = _warp(current, family, parameters, geometry)
            clips[:, t - 1] = _normalize_or_raise(current)
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
    """Squared distance from each pixel centre to each segment of each glyph.

    ``starts`` and ``ends`` are ``(glyphs, n_segments, 2)``; the pixel
    centres form the grid ``ys x xs``, and the result has shape
    ``(glyphs, n_segments, len(ys), len(xs))``.  With ``p`` a pixel centre,
    ``s`` a segment start and ``d`` its direction, the foot parameter is
    ``t = clip(((px - sx) dx + (py - sy) dy) / |d|^2, 0, 1)`` and the offset
    is ``p - (s + t d)``.  The x and y parts are kept as separate arrays, so
    every sum runs over the same two terms in the same order as a reduction
    over a trailing coordinate axis would.  ``(px - sx) dx`` depends only on
    the column and ``(py - sy) dy`` only on the row, so each is computed once
    per column or row.
    """
    sx, sy = starts[:, :, None, None, 0], starts[:, :, None, None, 1]
    dx, dy = ends[:, :, None, None, 0] - sx, ends[:, :, None, None, 1] - sy
    lengths_sq = np.maximum(dx * dx + dy * dy, 1e-12)
    t = (xs - sx) * dx + (ys[:, None] - sy) * dy
    t /= lengths_sq
    np.clip(t, 0.0, 1.0, out=t)
    # In place from here on: each line is one step of p - (s + t d), squared.
    nx = t * dx
    nx += sx
    np.subtract(xs, nx, out=nx)
    ny = np.multiply(t, dy, out=t)
    ny += sy
    np.subtract(ys[:, None], ny, out=ny)
    nx *= nx
    ny *= ny
    nx += ny
    return nx


def render_glyph_stack(digit, geometry, thickness, offsets, scales, rotations):
    """An ``(n, height, width)`` stack of one digit's glyph, each with its own
    thickness, ``(x, y)`` offset, scale and rotation about the patch center.

    Rotation is applied to the stroke geometry before rasterizing, so the
    result is crisp at any angle.  Each pixel's distance to the nearest
    stroke is the square root of the smallest squared segment distance;
    ``sqrt`` is monotone and correctly rounded, so this equals the smallest
    distance exactly.  Each stroke moves by one 2 x 2 product per glyph, and
    distances are found ``GLYPH_BLOCK`` glyphs at a time, so every glyph
    comes out bit for bit as it does alone.
    """
    width, height = geometry
    c, s = np.cos(rotations), np.sin(rotations)
    rot_t = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2).transpose(0, 2, 1)  # y down
    scales, offsets = np.reshape(scales, (-1, 1, 1)), np.reshape(offsets, (-1, 1, 2))
    moved = [(line - 0.5) * scales @ rot_t + 0.5 + offsets for line in GLYPH_STROKES[digit]]
    starts = np.concatenate([pts[:, :-1] for pts in moved], axis=1)
    ends = np.concatenate([pts[:, 1:] for pts in moved], axis=1)
    xs = (np.arange(width) + 0.5) / width
    ys = (np.arange(height) + 0.5) / height
    squared = np.empty((len(rot_t), height, width))
    for first in range(0, len(rot_t), GLYPH_BLOCK):
        block = slice(first, first + GLYPH_BLOCK)
        squared[block] = _segment_distances(xs, ys, starts[block], ends[block]).min(axis=1)
    return np.clip(1.0 - np.sqrt(squared) / np.reshape(thickness, (-1, 1, 1)), 0.0, 1.0)


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
    Each digit draws the attempts it still needs as one block, rasterizes and
    normalizes it, and keeps the non-degenerate glyphs; only the shortfall is
    drawn again.  ``Generator.uniform(low, high)`` is ``low + (high - low) *
    random()``, so glyphs and random stream equal one attempt at a time.
    """
    width, height = geometry
    if width < 16 or height < 16:
        raise DimensionError("glyph geometry must be at least 16x16")
    rng = np.random.default_rng(seed)
    total = 10 * n_per_class
    images = np.empty((total, width * height))
    low = np.array([0.8, -0.05, -0.05, 0.9, -max_rotation])[: 5 if max_rotation else 4]
    span = np.array([1.25, 0.05, 0.05, 1.1, max_rotation])[: low.size] - low
    index = 0
    for digit in range(10):
        end = index + n_per_class
        while index < end:
            draws = low + span * rng.random((end - index, low.size))
            angles = draws[:, 4] if max_rotation else np.zeros(len(draws))
            glyphs = render_glyph_stack(
                digit, geometry, 0.055 * draws[:, 0], draws[:, 1:3], draws[:, 3], angles
            )
            values, degenerate = normalize_rows(glyphs.reshape(len(draws), -1))
            kept = values[~degenerate]
            images[index : index + len(kept)] = kept
            index += len(kept)
    labels = np.repeat(np.arange(10), n_per_class)
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


def load_idx(images_path, labels_path) -> LabeledImageSet:
    """Load an IDX image/label file pair into a LabeledImageSet tagged ``train``.

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
        raise FormatError(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    n, height, width = images.shape
    flat = images.reshape(n, height * width).astype(np.float64) / 255.0
    normalized = normalize_rows(flat)[0]
    split = np.full(n, "train")
    return LabeledImageSet(normalized, labels.astype(np.int64), split, (width, height))
