"""Tests for patches, data generators, and the on-disk formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from warpcode import dataset
from warpcode.dataset import (
    GLYPH_STROKES,
    LabeledImageSet,
    gen_dot_pairs,
    gen_rotated_glyphs,
    gen_videos,
    load_idx,
    render_glyph_stack,
)
from warpcode.errors import DataError, DimensionError, FormatError
from warpcode.patches import ImagePatch, contrast_normalize, normalize_rows
from warpcode.storage import load_matrix, save_matrix, write_csv, write_pgm
from warpcode.warp_algebra import make_cyclic_shift, make_translation_warp, rotate_image

from readers import read_pgm, write_unchecked_wmat


def reference_contrast_normalize(raw):
    """The retired per-vector normalization: ``(values, degenerate)``."""
    values = np.asarray(raw, dtype=np.float64).reshape(-1)
    centered = values - values.mean()
    centered -= centered.mean()
    norm = float(np.linalg.norm(centered))
    if norm < 1e-8:
        return np.zeros_like(centered), True
    return centered / norm, False


class TestContrastNormalize:
    @pytest.mark.parametrize("dim", [2, 7, 9, 32, 169, 256, 1690])
    def test_equals_retired_per_vector_body_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        vectors = [
            rng.standard_normal(dim) * 7 + 2,
            (rng.random(dim) < 0.1).astype(np.float64),
            np.full(dim, 0.25),
        ]
        for raw in vectors:
            patch = contrast_normalize(raw)
            expected, degenerate = reference_contrast_normalize(raw)
            assert_bitwise_equal(patch.values, expected)
            assert patch.degenerate == degenerate
            assert patch.normalized == (not degenerate)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            contrast_normalize([])

    def test_constant_vector_degenerates_to_zero(self):
        patch = contrast_normalize(np.full(9, 3.7))
        assert patch.degenerate
        assert not patch.normalized
        np.testing.assert_array_equal(patch.values, np.zeros(9))

    def test_output_has_zero_mean_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            patch = contrast_normalize(rng.standard_normal(17) * 10 + 3)
            assert patch.normalized
            assert abs(patch.values.mean()) <= 1e-10
            assert abs(np.linalg.norm(patch.values) - 1.0) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = contrast_normalize(rng.standard_normal(12))
        twice = contrast_normalize(once.values)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_lying_normalized_flag_rejected(self):
        with pytest.raises(ValueError):
            ImagePatch(np.ones(4), normalized=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            contrast_normalize([bad, 1.0, 2.0])

    def test_nan_patch_cannot_claim_normalized(self):
        with pytest.raises(ValueError, match="flagged normalized"):
            ImagePatch(np.array([np.nan, 0.0]), normalized=True)


def reference_normalize_rows(rows):
    """``normalize_rows`` as the retired per-vector body, row by row."""
    results = [reference_contrast_normalize(row) for row in rows]
    return (
        np.stack([values for values, _ in results]),
        np.array([degenerate for _, degenerate in results]),
    )


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestNormalizeRows:
    @pytest.mark.parametrize("dim", [7, 8, 9, 32, 129, 169, 256, 300, 1690])
    def test_equals_per_row_contrast_normalize_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        gaussian = rng.standard_normal((40, dim)) * rng.uniform(0.1, 10, (40, 1))
        gaussian += rng.uniform(-5, 5, (40, 1))
        dots = (rng.random((40, dim)) < 0.1).astype(np.float64)
        for rows in (gaussian, dots):
            values, degenerate = normalize_rows(rows)
            expected, expected_degenerate = reference_normalize_rows(rows)
            assert_bitwise_equal(values, expected)
            np.testing.assert_array_equal(degenerate, expected_degenerate)

    def test_constant_rows_degenerate_to_zero(self):
        rows = np.random.default_rng(3).standard_normal((5, 12))
        rows[1] = 3.7
        rows[3] = 0.0
        values, degenerate = normalize_rows(rows)
        np.testing.assert_array_equal(degenerate, [False, True, False, True, False])
        np.testing.assert_array_equal(values[[1, 3]], np.zeros((2, 12)))
        assert_bitwise_equal(values, reference_normalize_rows(rows)[0])

    def test_single_row(self):
        row = np.random.default_rng(4).standard_normal((1, 20))
        values, degenerate = normalize_rows(row)
        assert_bitwise_equal(values[0], contrast_normalize(row[0]).values)
        np.testing.assert_array_equal(degenerate, [False])

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_input_rejected(self, shape):
        with pytest.raises(DataError):
            normalize_rows(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        rows = np.ones((3, 4)) * np.arange(4)
        rows[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            normalize_rows(rows)

    @pytest.mark.parametrize("dim", [7, 169, 256])
    def test_out_raw_itself_equals_the_copying_call_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((30, dim)) * 3.0 + 1.0
        raw[4] = 2.5  # a degenerate row is zeroed in place too
        expected, expected_degenerate = normalize_rows(raw)
        values, degenerate = normalize_rows(raw, out=raw)
        assert values is raw
        assert_bitwise_equal(raw, expected)
        np.testing.assert_array_equal(degenerate, expected_degenerate)

    @pytest.mark.parametrize("frame", [0, 2, 5])
    def test_out_a_frame_of_a_clip_stack_equals_the_copying_call_bitwise(self, frame):
        rng = np.random.default_rng(frame)
        raw = (rng.random((25, 169)) < 0.1).astype(np.float64)
        clips = np.full((25, 6, 169), 7.0)
        values, _ = normalize_rows(raw, out=clips[:, frame])
        assert values.base is clips and np.shares_memory(values, clips[:, frame])
        assert_bitwise_equal(clips[:, frame], normalize_rows(raw)[0])
        others = np.delete(clips, frame, axis=1)
        np.testing.assert_array_equal(others, 7.0)

    def test_copying_call_leaves_raw_untouched(self):
        raw = np.random.default_rng(8).standard_normal((6, 10))
        before = raw.copy()
        values, _ = normalize_rows(raw)
        assert not np.shares_memory(values, raw)
        assert_bitwise_equal(raw, before)

    @pytest.mark.parametrize(
        "out, error",
        [
            (np.zeros((6, 9)), DimensionError),  # another width
            (np.zeros((5, 10)), DimensionError),  # another row count
            (np.zeros(60), DimensionError),  # another rank
            (np.zeros((10, 6)).T, DimensionError),  # rows not contiguous
            (np.zeros((6, 10), dtype=np.float32), DataError),
        ],
    )
    def test_bad_out_rejected_before_anything_is_written(self, out, error):
        raw = np.random.default_rng(9).standard_normal((6, 10))
        before, out_before = raw.copy(), out.copy()
        with pytest.raises(error, match="^out must be"):
            normalize_rows(raw, out=out)
        assert_bitwise_equal(raw, before)
        np.testing.assert_array_equal(out, out_before)

    def test_integer_raw_cannot_be_its_own_out(self):
        raw = np.arange(12).reshape(3, 4)
        with pytest.raises(DataError, match="^out must be float64"):
            normalize_rows(raw, out=raw)
        np.testing.assert_array_equal(raw, np.arange(12).reshape(3, 4))


def reference_dots(rng, geometry, density):
    """The retired dot draw: redrawn until its normalization is not
    degenerate; returns the raw image and its normalized values."""
    size = geometry if isinstance(geometry, int) else geometry[0] * geometry[1]
    shape = None if isinstance(geometry, int) else (geometry[1], geometry[0])
    while True:
        raw = (rng.random(size) < density).astype(np.float64)
        values, degenerate = reference_contrast_normalize(raw)
        if not degenerate:
            return (raw.reshape(shape) if shape else raw), values


def reference_apply_label(raw, label, geometry):
    """The retired per-image warp: ``np.roll`` for a shift, ``rotate_image``
    (a stack of one) for a rotation."""
    if label.family == "cyclic_shift":
        if isinstance(geometry, int):
            return np.roll(raw, label.parameter)
        dx, dy = label.parameter
        return np.roll(raw, (dy, dx), axis=(0, 1))
    return rotate_image(raw, label.parameter)


def reference_dot_pairs(n_pairs, geometry, family, density, seed):
    """The retired per-pair loop of ``gen_dot_pairs``, normalizing each
    pair's x and y on their own and redrawing a degenerate y."""
    rng = np.random.default_rng(seed)
    xs, ys, labels = [], [], []
    while len(xs) < n_pairs:
        raw, x_values = reference_dots(rng, geometry, density)
        pick = family
        if family == "mixed":
            pick = "rotation" if rng.random() < 0.5 else "cyclic_shift"
        label = dataset._draw_warp(rng, geometry, pick)
        warped = reference_apply_label(raw, label, geometry)
        y_values, degenerate = reference_contrast_normalize(np.ravel(warped))
        if degenerate:
            continue
        xs.append(x_values)
        ys.append(y_values)
        labels.append(label)
    return np.stack(xs), np.stack(ys), labels


class TestDotPairs:
    @pytest.mark.parametrize(
        "geometry, family, density",
        [
            (16, "cyclic_shift", 0.2),
            ((7, 5), "cyclic_shift", 0.1),
            ((13, 13), "rotation", 0.05),
            ((8, 8), "mixed", 0.15),
            (3, "cyclic_shift", 0.5),  # small enough to redraw constant images
            ((13, 13), "cyclic_shift", 0.1),
            ((16, 16), "mixed", 0.1),
        ],
    )
    def test_equals_retired_per_pair_loop_bitwise(self, geometry, family, density):
        # 300 pairs: the stack rotation runs more than one block
        data = gen_dot_pairs(300, geometry, family=family, density=density, seed=8)
        xs, ys, labels = reference_dot_pairs(300, geometry, family, density, 8)
        assert_bitwise_equal(data.xs, xs)
        assert_bitwise_equal(data.ys, ys)
        assert data.labels == labels

    @pytest.mark.parametrize("geometry", [1, 0, (1, 1), (1, 0)])
    def test_fewer_than_two_pixels_rejected_before_any_draw(
        self, geometry, monkeypatch
    ):
        # every draw of one pixel is constant, so redrawing would never end
        def no_draw(*args):
            raise AssertionError("drew dots")

        monkeypatch.setattr(dataset, "_random_dots", no_draw)
        with pytest.raises(DimensionError, match="at least 2 pixels"):
            gen_dot_pairs(5, geometry, density=0.5)
        with pytest.raises(DimensionError, match="at least 2 pixels"):
            gen_videos(5, geometry, 3, [("cyclic_shift", (1, 3))], density=0.5)

    @pytest.mark.parametrize(
        "geometry, density", [((13, 13), 1e-12), ((13, 13), 1 - 1e-12), (2, 4e-4)]
    )
    def test_improbable_draws_rejected_before_any_draw(
        self, geometry, density, monkeypatch
    ):
        # a valid draw needs a dot and a blank pixel; at these densities that
        # takes far more than MAX_DOT_DRAWS draws on average
        def no_draw(*args):
            raise AssertionError("drew dots")

        monkeypatch.setattr(dataset, "_random_dots", no_draw)
        with pytest.raises(DataError, match="draws on average"):
            gen_dot_pairs(5, geometry, density=density)
        with pytest.raises(DataError, match="draws on average"):
            gen_videos(5, geometry, 3, [("cyclic_shift", (1, 3))], density=density)

    def test_probable_draws_accepted(self):
        # 2 pixels hold one dot with probability 2p(1 - p): 1.2e-3 at p = 6e-4
        assert dataset.dot_image_dim(2, 6e-4) == 2
        assert dataset.dot_image_dim((13, 13), 1e-4) == 169

    def test_constant_warped_image_raises(self, monkeypatch):
        # warps keep a draw's centered norm, so no real run gets here
        stack_warp = dataset._warp

        def warp(rows, family, parameters, geometry):
            warped = stack_warp(rows, family, parameters, geometry)
            warped[1] = 0.5  # the second pair's y comes back constant
            return warped

        monkeypatch.setattr(dataset, "_warp", warp)
        with pytest.raises(DataError, match="row 1 is constant"):
            gen_dot_pairs(3, (8, 8), density=0.2, seed=1)

    def test_peak_memory_stays_near_the_pairs_returned(self):
        # the raw x and y rows are normalized in their own buffers; with a
        # normalized copy of each beside them the peak was 2.04 times the pairs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = gen_dot_pairs(3000, (16, 16), "rotation", seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (data.xs.nbytes + data.ys.nbytes)

    def test_zero_shift_pairs_are_equal(self):
        data = gen_dot_pairs(20, 16, family="cyclic_shift", density=0.3, seed=3)
        for i in range(len(data)):
            if data.labels[i].parameter == 0:
                np.testing.assert_array_equal(data.xs[i], data.ys[i])

    def test_same_seed_reproduces_dataset(self):
        a = gen_dot_pairs(30, (8, 8), family="mixed", density=0.15, seed=9)
        b = gen_dot_pairs(30, (8, 8), family="mixed", density=0.15, seed=9)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)
        assert a.labels == b.labels

    def test_shift_labels_recovered_by_cross_correlation(self):
        # Oracle: the circular cross-correlation must peak at the labeled
        # offset for nearly all pairs (dim 16, density 0.1).  Sparse signals
        # can alias (e.g. two antipodal dots make shifts s and s+8 exactly
        # equivalent), so a tie at the labeled offset counts as a peak there.
        data = gen_dot_pairs(300, 16, family="cyclic_shift", density=0.1, seed=5)
        hits = 0
        for i in range(len(data)):
            x, y = data.xs[i], data.ys[i]
            correlation = np.array([y @ np.roll(x, s) for s in range(16)])
            if correlation[data.labels[i].parameter] >= correlation.max() - 1e-9:
                hits += 1
        assert hits / len(data) >= 0.99

    def test_rotation_pairs_consistent_with_warp(self):
        data = gen_dot_pairs(20, (9, 9), family="rotation", density=0.2, seed=7)
        for i in range(5):
            angle = data.labels[i].parameter
            expected = rotate_image(data.xs[i].reshape(9, 9), angle).ravel()
            np.testing.assert_allclose(data.ys[i], expected, atol=1e-10)

    def test_shift_pairs_consistent_with_warp(self):
        data = gen_dot_pairs(20, (9, 7), family="cyclic_shift", density=0.2, seed=7)
        for x, y, label in zip(data.xs, data.ys, data.labels):
            dx, dy = label.parameter
            expected = make_translation_warp(9, 7, dx, dy).entries @ x
            np.testing.assert_allclose(y, expected, atol=1e-12)
        data = gen_dot_pairs(20, 16, family="cyclic_shift", density=0.2, seed=8)
        for x, y, label in zip(data.xs, data.ys, data.labels):
            expected = make_cyclic_shift(16, label.parameter).entries @ x
            np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_mixed_family_draws_both(self):
        data = gen_dot_pairs(60, (8, 8), family="mixed", density=0.2, seed=11)
        families = {label.family for label in data.labels}
        assert families == {"cyclic_shift", "rotation"}

    def test_invalid_density_rejected(self):
        with pytest.raises(DataError):
            gen_dot_pairs(5, 16, density=0.0)

    @pytest.mark.parametrize("geometry", [16, (13, 14)], ids=["1-D", "13x14"])
    @pytest.mark.parametrize("seed", range(12))
    def test_rotations_of_a_1d_or_non_square_geometry_refused_before_any_draw(
        self, geometry, seed, monkeypatch
    ):
        # whatever the seed's draws would pick, no dot is drawn
        def no_draw(*args):
            raise AssertionError("drew dots")

        monkeypatch.setattr(dataset, "_random_dots", no_draw)
        for family in ("rotation", "mixed"):
            with pytest.raises(DimensionError, match="rotations need"):
                gen_dot_pairs(1, geometry, family=family, density=0.3, seed=seed)
        schedule = [("cyclic_shift", (1, 2)), ("rotation", (3, 4))]
        with pytest.raises(DimensionError, match="rotations need"):
            gen_videos(1, geometry, 4, schedule, density=0.3, seed=seed)

    @pytest.mark.parametrize("family", ["spiral", "mixed"])
    def test_unknown_video_family_rejected(self, family):
        # a video segment moves by one warp family; "mixed" is a pair family
        with pytest.raises(DataError, match="unknown warp family"):
            gen_videos(2, 16, 4, [(family, (1, 4))])

    def test_pairs_are_normalized(self):
        data = gen_dot_pairs(10, 16, density=0.2, seed=13)
        x, y, label = data.pair(3)
        assert x.normalized and y.normalized


class TestVideos:
    def test_single_frame_stills(self):
        videos = gen_videos(4, 16, 1, [("cyclic_shift", (1, 1))], seed=1)
        assert videos.clips.shape == (4, 1, 16)

    def test_homogeneous_shift_movie_frames_are_rolled_copies(self):
        videos = gen_videos(6, 16, 5, [("cyclic_shift", (1, 5))], density=0.3, seed=3)
        for clip, descriptor in zip(videos.clips, videos.descriptors):
            (family, step, _span) = descriptor[0]
            assert family == "cyclic_shift"
            for t in range(4):
                np.testing.assert_allclose(
                    clip[t + 1], np.roll(clip[t], step), atol=1e-12
                )

    def test_two_segment_clips_verified_per_segment(self):
        videos = gen_videos(
            4,
            (9, 9),
            6,
            [("rotation", (1, 3)), ("cyclic_shift", (4, 6))],
            density=0.2,
            seed=5,
        )
        for clip, descriptor in zip(videos.clips, videos.descriptors):
            rotation, shift = descriptor
            angle = rotation[1]
            for t in (0, 1):
                np.testing.assert_allclose(
                    clip[t + 1],
                    rotate_image(clip[t].reshape(9, 9), angle).ravel(),
                    atol=1e-10,
                )
            dx, dy = shift[1]
            for t in (3, 4):
                np.testing.assert_allclose(
                    clip[t + 1],
                    np.roll(clip[t].reshape(9, 9), (dy, dx), axis=(0, 1)).ravel(),
                    atol=1e-10,
                )

    @pytest.mark.parametrize(
        "geometry, schedule, shift_warp",
        [
            (16, [("cyclic_shift", (1, 6))], lambda s: make_cyclic_shift(16, s)),
            (
                (7, 7),
                [("rotation", (1, 3)), ("cyclic_shift", (4, 6))],
                lambda step: make_translation_warp(7, 7, *step),
            ),
        ],
    )
    def test_shift_frames_consistent_with_warp(self, geometry, schedule, shift_warp):
        videos = gen_videos(4, geometry, 6, schedule, density=0.3, seed=9)
        for clip, descriptor in zip(videos.clips, videos.descriptors):
            _, step, (first, last) = descriptor[-1]
            warp = shift_warp(step).entries
            for t in range(max(first, 2), last + 1):
                np.testing.assert_allclose(clip[t - 1], warp @ clip[t - 2], atol=1e-12)

    def test_schedule_gap_rejected(self):
        with pytest.raises(DataError):
            gen_videos(2, 16, 6, [("cyclic_shift", (1, 3)), ("rotation", (5, 6))])

    def test_schedule_must_cover_all_frames(self):
        with pytest.raises(DataError):
            gen_videos(2, 16, 6, [("cyclic_shift", (1, 5))])

    def test_deterministic(self):
        a = gen_videos(3, 16, 4, [("cyclic_shift", (1, 4))], seed=7)
        b = gen_videos(3, 16, 4, [("cyclic_shift", (1, 4))], seed=7)
        np.testing.assert_array_equal(a.clips, b.clips)

    @pytest.mark.parametrize(
        "geometry, n_frames, schedule",
        [
            (16, 5, [("cyclic_shift", (1, 5))]),
            ((13, 13), 6, [("rotation", (1, 6))]),
            ((9, 9), 6, [("rotation", (1, 3)), ("cyclic_shift", (4, 6))]),
            # fig3's two variants at its geometry
            ((13, 13), 10, [("cyclic_shift", (1, 10))]),
            ((13, 13), 10, [("rotation", (1, 5)), ("cyclic_shift", (6, 10))]),
        ],
    )
    def test_equals_per_frame_reference_bitwise(self, geometry, n_frames, schedule):
        # 300 clips: each frame's stack rotation runs more than one block
        videos = gen_videos(300, geometry, n_frames, schedule, density=0.2, seed=9)
        clips, descriptors = reference_videos(300, geometry, n_frames, schedule, 0.2, 9)
        assert_bitwise_equal(videos.clips, clips)
        assert videos.descriptors == descriptors

    def test_degenerate_frame_raises(self, monkeypatch):
        # warps keep a draw's centered norm, so no real run gets here
        stack_warp = dataset._warp
        calls = []

        def warp(rows, family, parameters, geometry):
            calls.append(None)
            warped = stack_warp(rows, family, parameters, geometry)
            if len(calls) == 2:  # clip 1's third frame comes back constant
                warped[1] = 0.5
            return warped

        monkeypatch.setattr(dataset, "_warp", warp)
        # each frame of all clips is normalized as one stack: row = clip
        with pytest.raises(DataError, match="row 1 is constant"):
            gen_videos(4, (8, 8), 4, [("cyclic_shift", (1, 4))], density=0.2, seed=2)


def reference_videos(n_clips, geometry, n_frames, schedule, density, seed):
    """``gen_videos``' clip loop as it was, normalizing frame by frame and
    leaving a clip at its first degenerate frame."""
    rng = np.random.default_rng(seed)
    clips, descriptors = [], []
    while len(clips) < n_clips:
        raw, _ = reference_dots(rng, geometry, density)
        params = [
            (family, dataset._draw_segment_parameter(rng, geometry, family), frames)
            for family, frames in schedule
        ]
        frames_out = []
        current = np.asarray(raw, dtype=np.float64)
        for family, parameter, (first, last) in params:
            for t in range(first, last + 1):
                if t > 1:
                    current = reference_apply_label(
                        current, dataset.WarpLabel(family, parameter), geometry
                    )
                values, degenerate = reference_contrast_normalize(current.ravel())
                if degenerate:
                    break
                frames_out.append(values)
            if len(frames_out) < last:
                break
        if len(frames_out) < n_frames:
            continue
        clips.append(np.stack(frames_out))
        descriptors.append(tuple(params))
    return np.stack(clips), descriptors


def reference_segment_distances(points, starts, ends):
    """The axis-2 rasteriser kernel: unsquared distances, (n_points, n_segments)."""
    deltas = ends - starts
    lengths_sq = np.maximum((deltas**2).sum(axis=1), 1e-12)
    offsets = points[:, None, :] - starts[None, :, :]
    t = np.clip(
        (offsets * deltas[None, :, :]).sum(axis=2) / lengths_sq[None, :], 0.0, 1.0
    )
    nearest = starts[None, :, :] + t[:, :, None] * deltas[None, :, :]
    return np.linalg.norm(points[:, None, :] - nearest, axis=2)


def render_glyph(digit, geometry, thickness=0.055, offset=(0.0, 0.0), scale=1.0, rotation=0.0):
    """One digit glyph: a stack of one through ``render_glyph_stack``."""
    return render_glyph_stack(digit, geometry, [thickness], [offset], [scale], [rotation])[0]


def reference_render_glyph(digit, geometry, thickness, offset, scale, rotation):
    width, height = geometry
    starts, ends = [], []
    c, s = np.cos(rotation), np.sin(rotation)
    rot = np.array([[c, s], [-s, c]])
    for polyline in GLYPH_STROKES[digit]:
        pts = (polyline - 0.5) * scale @ rot.T + 0.5 + np.asarray(offset)
        starts.append(pts[:-1])
        ends.append(pts[1:])
    starts = np.concatenate(starts)
    ends = np.concatenate(ends)
    cols, rows = np.meshgrid(np.arange(width), np.arange(height))
    points = np.stack(
        [(cols.ravel() + 0.5) / width, (rows.ravel() + 0.5) / height], axis=1
    )
    distances = reference_segment_distances(points, starts, ends).min(axis=1)
    intensity = np.clip(1.0 - distances / thickness, 0.0, 1.0)
    return intensity.reshape(height, width)


def reference_glyph_images(n_per_class, geometry, seed, max_rotation=np.pi):
    """gen_rotated_glyphs' images, drawn and rendered one by one with the
    reference."""
    rng = np.random.default_rng(seed)
    images = []
    for digit in range(10):
        for _ in range(n_per_class):
            while True:
                thickness = 0.055 * rng.uniform(0.8, 1.25)
                offset = rng.uniform(-0.05, 0.05, size=2)
                scale = rng.uniform(0.9, 1.1)
                angle = rng.uniform(-max_rotation, max_rotation) if max_rotation else 0.0
                raw = reference_render_glyph(
                    digit, geometry, thickness, offset, scale, angle
                )
                values, degenerate = reference_contrast_normalize(raw.ravel())
                if not degenerate:
                    break
            images.append(values)
    return np.stack(images)[rng.permutation(10 * n_per_class)]


class TestGlyphs:
    @pytest.mark.parametrize("per_class", [0, -3])
    def test_no_glyphs_rejected(self, per_class):
        with pytest.raises(DataError, match=f"n_per_class >= 1, got {per_class}$"):
            gen_rotated_glyphs(per_class, (16, 16))

    def test_labels_uniform_by_construction(self):
        glyphs = gen_rotated_glyphs(12, (16, 16), seed=1)
        counts = np.bincount(glyphs.labels, minlength=10)
        np.testing.assert_array_equal(counts, np.full(10, 12))

    def test_splits_partition_the_set(self):
        glyphs = gen_rotated_glyphs(10, (16, 16), seed=2)
        total = sum((glyphs.split == t).sum() for t in ("train", "holdout", "test"))
        assert total == len(glyphs)

    @pytest.mark.parametrize(
        "per_class, counts", [(1, (6, 1, 3)), (5, (31, 4, 15)), (25, (157, 18, 75))]
    )
    def test_split_counts_are_glyph_split(self, per_class, counts):
        # (train, holdout, test): 30% test, a tenth of the rest holdout
        assert dataset.glyph_split(per_class) == counts
        glyphs = gen_rotated_glyphs(per_class, (16, 16), seed=2, max_rotation=0.0)
        assert tuple((glyphs.split == t).sum() for t in ("train", "holdout", "test")) == counts

    def test_unrotated_glyphs_separable_by_nearest_centroid(self):
        # Recorded run: 95.8% on seed 5; the gate is 90%.
        glyphs = gen_rotated_glyphs(40, (16, 16), seed=5, max_rotation=0.0)
        train_x, train_y = glyphs.subset("train")
        test_x, test_y = glyphs.subset("test")
        centroids = np.stack([train_x[train_y == d].mean(axis=0) for d in range(10)])
        distances = ((test_x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (np.argmin(distances, axis=1) == test_y).mean()
        assert accuracy >= 0.90

    def test_deterministic(self):
        a = gen_rotated_glyphs(5, (16, 16), seed=9)
        b = gen_rotated_glyphs(5, (16, 16), seed=9)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.split, b.split)

    def test_render_glyph_shapes(self):
        img = render_glyph(3, (18, 16))
        assert img.shape == (16, 18)
        assert img.max() <= 1.0 and img.min() >= 0.0

    @pytest.mark.parametrize("geometry", [(16, 16), (20, 17)])
    def test_render_glyph_equals_axis_reference_bitwise(self, geometry):
        rng = np.random.default_rng(11)
        fixed = [0.0, np.pi, -np.pi, np.pi / 4, -np.pi / 4]
        for digit in range(10):
            for angle in fixed + list(rng.uniform(-np.pi, np.pi, size=4)):
                for jitter in (False, True):
                    thickness, offset, scale = 0.055, np.zeros(2), 1.0
                    if jitter:
                        thickness = 0.055 * rng.uniform(0.8, 1.25)
                        offset = rng.uniform(-0.05, 0.05, size=2)
                        scale = rng.uniform(0.9, 1.1)
                    got = render_glyph(
                        digit,
                        geometry,
                        thickness=thickness,
                        offset=offset,
                        scale=scale,
                        rotation=angle,
                    )
                    want = reference_render_glyph(
                        digit, geometry, thickness, offset, scale, angle
                    )
                    assert np.array_equal(got, want), (digit, angle, jitter)

    def test_low_contrast_glyphs_decided_exactly(self, monkeypatch):
        # below a range of 1e-6 only the normalization can tell a constant glyph
        flat = np.full((16, 16), 0.3)
        flat[0, 0] += 1e-12  # degenerate: redrawn
        faint = np.linspace(0.0, 1e-7, 256).reshape(16, 16)  # normalizes
        render = dataset.render_glyph_stack
        attempts = []

        def fake(digit, geometry, thickness, *jitter):
            stack = render(digit, geometry, thickness, *jitter)
            for row in range(len(stack)):
                attempts.append(None)
                if len(attempts) <= 2:
                    stack[row] = [flat, faint][len(attempts) - 1]
            return stack

        monkeypatch.setattr(dataset, "render_glyph_stack", fake)
        glyphs = gen_rotated_glyphs(1, (16, 16), seed=3)
        assert len(attempts) == 11
        expected = contrast_normalize(faint.ravel()).values
        assert_bitwise_equal(glyphs.images[glyphs.labels == 0][0], expected)

    def test_generated_glyphs_equal_reference_loop_bitwise(self):
        glyphs = gen_rotated_glyphs(25, (16, 16), seed=7)
        assert np.array_equal(glyphs.images, reference_glyph_images(25, (16, 16), 7))
        # 4 draws per attempt without rotation; a non-square raster
        for geometry, max_rotation in (((16, 16), 0.0), ((20, 17), np.pi)):
            glyphs = gen_rotated_glyphs(25, geometry, seed=7, max_rotation=max_rotation)
            want = reference_glyph_images(25, geometry, 7, max_rotation)
            assert np.array_equal(glyphs.images, want), (geometry, max_rotation)


class TestWmat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((7, 5))
        path = tmp_path / "m.wmat"
        save_matrix(path, matrix)
        np.testing.assert_array_equal(load_matrix(path), matrix)

    def test_empty_matrix_legal(self, tmp_path):
        path = tmp_path / "empty.wmat"
        save_matrix(path, np.zeros((0, 0)))
        out = load_matrix(path)
        assert out.shape == (0, 0)

    def test_header_is_24_bytes(self, tmp_path):
        path = tmp_path / "h.wmat"
        save_matrix(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert len(raw) == 24 + 3 * 2 * 8
        magic, version, rows, cols = struct.unpack("<4sIQQ", raw[:24])
        assert (magic, version, rows, cols) == (b"WMAT", 1, 3, 2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wmat"
        path.write_bytes(b"XMAT" + b"\x00" * 30)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.wmat"
        path.write_bytes(struct.pack("<4sIQQ", b"WMAT", 9, 0, 0))
        with pytest.raises(FormatError, match="version"):
            load_matrix(path)

    def test_truncated_payload_names_lengths(self, tmp_path):
        path = tmp_path / "short.wmat"
        path.write_bytes(struct.pack("<4sIQQ", b"WMAT", 1, 2, 2) + b"\x00" * 8)
        with pytest.raises(FormatError, match="8 != expected 32"):
            load_matrix(path)

    def test_header_errors_name_the_file(self, tmp_path):
        path = tmp_path / "short.wmat"
        path.write_bytes(b"WMAT")
        with pytest.raises(FormatError, match="^short.wmat: truncated WMAT header"):
            load_matrix(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_naming_file_and_row(self, tmp_path, bad):
        matrix = np.ones((4, 3))
        matrix[2, 1] = bad
        write_unchecked_wmat(tmp_path / "m.wmat", matrix)
        with pytest.raises(FormatError, match=r"^m\.wmat row 2: holds a non-finite entry$"):
            load_matrix(tmp_path / "m.wmat")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_not_written(self, tmp_path, bad):
        matrix = np.ones((4, 3))
        matrix[1, 2] = bad
        with pytest.raises(FormatError, match=r"^m\.wmat row 1: holds a non-finite entry$"):
            save_matrix(tmp_path / "m.wmat", matrix)
        assert not (tmp_path / "m.wmat").exists()

    def test_unchecked_writer_matches_save_matrix(self, tmp_path):
        matrix = np.random.default_rng(4).standard_normal((3, 5))
        save_matrix(tmp_path / "a.wmat", matrix)
        write_unchecked_wmat(tmp_path / "b.wmat", matrix)
        assert (tmp_path / "a.wmat").read_bytes() == (tmp_path / "b.wmat").read_bytes()


def craft_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    image_path = tmp_path / "imgs.idx3"
    label_path = tmp_path / "labels.idx1"
    image_path.write_bytes(
        struct.pack(">IIII", 0x00000803, n, h, w) + images.tobytes()
    )
    label_path.write_bytes(
        struct.pack(">II", 0x00000801, n) + np.asarray(labels, np.uint8).tobytes()
    )
    return image_path, label_path


class TestIdx:
    def test_crafted_fixture_round_trips(self, tmp_path):
        rng = np.random.default_rng(7)
        images = rng.integers(0, 256, size=(2, 4, 4), dtype=np.uint8)
        image_path, label_path = craft_idx_pair(tmp_path, images, [3, 7])
        loaded = load_idx(image_path, label_path)
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded.labels, [3, 7])
        expected = contrast_normalize(images[0].ravel() / 255.0).values
        np.testing.assert_allclose(loaded.images[0], expected, atol=1e-12)

    def test_images_equal_per_row_contrast_normalize_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, size=(6, 5, 7), dtype=np.uint8)
        images[2] = 17  # a blank image comes back all zero
        image_path, label_path = craft_idx_pair(tmp_path, images, range(6))
        loaded = load_idx(image_path, label_path)
        expected, degenerate = reference_normalize_rows(images.reshape(6, 35) / 255.0)
        assert_bitwise_equal(loaded.images, expected)
        np.testing.assert_array_equal(degenerate, [False, False, True, False, False, False])

    def test_truncated_file_names_expected_length(self, tmp_path):
        image_path = tmp_path / "trunc.idx3"
        image_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 4, 4) + b"\x00" * 10)
        with pytest.raises(FormatError, match="10 != expected 32"):
            load_idx(image_path, image_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x02\x03\x04" + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            load_idx(path, path)


class TestPgm:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, size=(6, 9), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)

    def test_range_validation(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "bad.pgm", np.array([[300.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "bad.pgm"
        with pytest.raises(FormatError, match=r"\[0, 255\]"):
            write_pgm(path, np.array([[1.0, bad], [2.0, 3.0]]))
        assert not path.exists()


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [(1, 0.1 + 0.2, "rotation"), (2, 1.0 / 3.0, "shift")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["index", "value", "tag"], rows)
        write_csv(b, ["index", "value", "tag"], rows)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.splitlines()[0] == "index,value,tag"
        assert "0.30000000000000004" in text  # repr round-trip formatting

    def test_a_tuple_cell_is_written_space_separated(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["family", "parameter"], [("cyclic_shift", (2, 6))])
        assert (tmp_path / "t.csv").read_text() == "family,parameter\ncyclic_shift,2 6\n"

    @pytest.mark.parametrize(
        "header, cell",
        [(["tag"], "a,b"), (["tag"], 'a "b"'), (["tag"], "a\nb"), (["tag"], "a\rb")]
        + [(["tag"], ("a", "b,c")), (["a,b"], "fine")],
    )
    def test_a_cell_that_would_split_its_row_is_refused_before_writing(
        self, tmp_path, header, cell
    ):
        path = tmp_path / "bad.csv"
        with pytest.raises(FormatError, match="holds a comma, a quote or a line break"):
            write_csv(path, header, [("fine",), (cell,)])
        assert not path.exists()
