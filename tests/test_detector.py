"""Tests for subspace rotation detectors and pooled codes."""

import hashlib

import numpy as np
import pytest

from warpcode.detector import (
    ANGLE_MATCH_TOL,
    _assemble_bank,
    _on_real_axis,
    batch_pooled_responses,
    build_bank_from_warp_family,
    energy_detector_response,
    load_bank,
    pooled_code,
    project,
    rotation_detector_response,
    save_bank,
    sequence_detector_response,
    subspace_angle_cos,
)
from warpcode.errors import (
    DataError,
    DimensionError,
    FormatError,
    MissingComponentError,
    NormalizationError,
    SharedSubspaceError,
)
from warpcode.experiments import build_shift_bank
from warpcode.model import GatedModel, infer_mappings, pooled_products
from warpcode.patches import ImagePatch, contrast_normalize, normalize_rows
from warpcode.storage import load_matrix
from warpcode.warp_algebra import (
    WarpMatrix,
    commutation_residual,
    decompose,
    make_cyclic_shift,
    wrap_angle,
)

from readers import write_unchecked_wmat


@pytest.fixture(scope="module")
def shift16():
    return decompose(make_cyclic_shift(16, 3))


@pytest.fixture(scope="module")
def block(shift16):
    return shift16.two_dimensional_blocks()[0]


def rotate_in_block(blk, patch, theta):
    """Rotate a patch's in-block coordinates counterclockwise by theta."""
    values = patch.values.copy()
    pr = blk.basis_real @ values
    pi = blk.basis_imag @ values
    c, s = np.cos(theta), np.sin(theta)
    values += (c * pr - s * pi - pr) * blk.basis_real
    values += (s * pr + c * pi - pi) * blk.basis_imag
    return ImagePatch(values, normalized=patch.normalized)


def zero_patch(dim):
    return contrast_normalize(np.ones(dim))  # constant input -> degenerate zero


def random_normalized(rng, dim=16):
    return contrast_normalize(rng.standard_normal(dim))


class TestProject:
    def test_basis_real_projects_to_unit(self, block):
        patch = ImagePatch(block.basis_real, normalized=True)
        assert project(block, patch) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_orthogonal_vector_projects_to_zero(self, shift16, block):
        other = shift16.two_dimensional_blocks()[2]
        patch = ImagePatch(other.basis_real, normalized=True)
        assert project(block, patch) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_mixed_coordinates(self, shift16, block):
        other = shift16.two_dimensional_blocks()[3]
        values = 0.6 * block.basis_real + 0.8 * block.basis_imag
        values = values + 0.5 * other.basis_real
        pr, pi = project(block, ImagePatch(values))
        assert (pr, pi) == pytest.approx((0.6, 0.8), abs=1e-12)

    def test_one_dimensional_block_has_no_imaginary_part(self, shift16):
        one_dim = [b for b in shift16.blocks if not b.is_two_dimensional][0]
        with pytest.raises(MissingComponentError):
            project(one_dim, ImagePatch(np.zeros(16)))


class TestSubspaceAngleCos:
    def test_same_patch_gives_one(self, block):
        rng = np.random.default_rng(0)
        x = random_normalized(rng)
        assert subspace_angle_cos(block, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_rotation_gives_zero(self, block):
        rng = np.random.default_rng(1)
        x = random_normalized(rng)
        y = rotate_in_block(block, x, np.pi / 2)
        assert subspace_angle_cos(block, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_aperture_case_returns_none(self, shift16, block):
        other = shift16.two_dimensional_blocks()[4]
        x = ImagePatch(other.basis_real, normalized=True)
        y = ImagePatch(block.basis_real, normalized=True)
        assert subspace_angle_cos(block, x, y) is None

    def test_rejects_nonpositive_floor(self, block):
        x = ImagePatch(block.basis_real, normalized=True)
        with pytest.raises(ValueError):
            subspace_angle_cos(block, x, x, aperture_floor=0.0)

    def test_rejects_nan_floor(self, block):
        # no norm falls below NaN, so it would skip the aperture test
        x = ImagePatch(block.basis_real, normalized=True)
        with pytest.raises(DataError, match="^aperture_floor is NaN$"):
            subspace_angle_cos(block, x, x, aperture_floor=np.nan)


class TestRotationDetector:
    def test_matched_angle_peaks_at_one(self, block):
        theta = 0.83
        x = ImagePatch(block.basis_real, normalized=True)
        y = rotate_in_block(block, x, theta)
        assert rotation_detector_response(block, theta, x, y) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_out_of_block_input_gives_zero(self, shift16, block):
        other = shift16.two_dimensional_blocks()[5]
        x = ImagePatch(other.basis_real, normalized=True)
        y = ImagePatch(block.basis_real, normalized=True)
        for theta in np.linspace(-np.pi, np.pi, 9):
            assert rotation_detector_response(block, theta, x, y) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_matches_polar_coordinate_oracle(self, shift16):
        # Oracle: compute projection norms and phases explicitly, then
        # |p_x||p_y| cos(phi_y - phi_x - theta).
        rng = np.random.default_rng(7)
        for _ in range(50):
            blk = shift16.two_dimensional_blocks()[rng.integers(0, 7)]
            x = random_normalized(rng)
            y = random_normalized(rng)
            theta = rng.uniform(-np.pi, np.pi)
            px = np.array(project(blk, x))
            py = np.array(project(blk, y))
            phi_x = np.arctan2(px[1], px[0])
            phi_y = np.arctan2(py[1], py[0])
            expected = (
                np.linalg.norm(px)
                * np.linalg.norm(py)
                * np.cos(phi_y - phi_x - theta)
            )
            actual = rotation_detector_response(blk, theta, x, y)
            assert actual == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized_inputs(self, block):
        raw = ImagePatch(np.ones(16) * 2.0)
        with pytest.raises(NormalizationError):
            rotation_detector_response(block, 0.0, raw, raw)

    def test_response_cos_shaped_with_argmax_at_relative_angle(self, block):
        rng = np.random.default_rng(3)
        x = random_normalized(rng)
        true_angle = 1.234
        y = rotate_in_block(block, x, true_angle)
        grid = np.linspace(-np.pi, np.pi, 360, endpoint=False)
        responses = [rotation_detector_response(block, t, x, y) for t in grid]
        best = grid[int(np.argmax(responses))]
        assert abs(wrap_angle(best - true_angle)) <= 2 * np.pi / 360

    def test_aperture_monotonicity_scaling_in_block_component(self, block):
        # Bilinearity: scaling the in-block component of x scales every
        # response linearly.
        rng = np.random.default_rng(8)
        x = random_normalized(rng)
        y = random_normalized(rng)
        theta = 0.4
        base = rotation_detector_response(block, theta, x, y)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            values = x.values.copy()
            pr, pi = project(block, x)
            values += (alpha - 1.0) * (pr * block.basis_real + pi * block.basis_imag)
            scaled = ImagePatch(values)  # no longer unit norm; bypass flag check
            xv_resp = (
                (block.basis_real @ y.values)
                * (
                    (np.cos(theta) * block.basis_real - np.sin(theta) * block.basis_imag)
                    @ values
                )
                + (block.basis_imag @ y.values)
                * (
                    (np.sin(theta) * block.basis_real + np.cos(theta) * block.basis_imag)
                    @ values
                )
            )
            assert xv_resp == pytest.approx(alpha * base, abs=1e-12)

    def test_max_over_grid_invariant_to_family_rotation(self, block):
        # max_theta r^theta(x, L_phi x) does not depend on phi when the grid
        # contains every family angle.
        rng = np.random.default_rng(12)
        x = random_normalized(rng)
        warp = make_cyclic_shift(16, 3)
        grid = [wrap_angle(s * block.angle) for s in range(16)]
        maxima = []
        y = x
        for _ in range(5):
            y = ImagePatch(warp.entries @ y.values, normalized=True)
            responses = [rotation_detector_response(block, t, x, y) for t in grid]
            maxima.append(max(responses))
        assert np.ptp(maxima) <= 1e-10


class TestEnergyDetector:
    def test_identity_with_rotation_detector(self, shift16):
        # energy = 2 * cross + |p_x|^2 + |p_y|^2, exactly.
        rng = np.random.default_rng(17)
        for _ in range(200):
            blk = shift16.two_dimensional_blocks()[rng.integers(0, 7)]
            x = random_normalized(rng)
            y = random_normalized(rng)
            theta = rng.uniform(-np.pi, np.pi)
            energy = energy_detector_response(blk, theta, x, y)
            cross = rotation_detector_response(blk, theta, x, y)
            px = np.array(project(blk, x))
            py = np.array(project(blk, y))
            expected = 2.0 * cross + px @ px + py @ py
            assert energy == pytest.approx(expected, abs=1e-12)

    def test_zero_patches_give_zero(self, block):
        zero = zero_patch(16)
        assert energy_detector_response(block, 0.7, zero, zero) == 0.0

    def test_matched_angle_peak_is_four(self, block):
        theta = -0.9
        x = ImagePatch(block.basis_real, normalized=True)
        y = rotate_in_block(block, x, theta)
        assert energy_detector_response(block, theta, x, y) == pytest.approx(
            4.0, abs=1e-12
        )


class TestSequenceDetector:
    def test_two_frames_reduce_to_energy_detector(self, shift16):
        rng = np.random.default_rng(23)
        for _ in range(50):
            blk = shift16.two_dimensional_blocks()[rng.integers(0, 7)]
            x = random_normalized(rng)
            y = random_normalized(rng)
            theta = rng.uniform(-np.pi, np.pi)
            seq = sequence_detector_response(blk, theta, [x, y])
            pair = energy_detector_response(blk, theta, x, y)
            assert seq == pytest.approx(pair, abs=1e-12)

    def test_two_frames_on_a_one_dimensional_block(self, shift16):
        # the two agree at 0 and pi only: frame 1 is filtered by cos(theta)
        # b_r, where the energy form filters x by it
        blk = next(b for b in shift16.blocks if b.angle == np.pi)  # alternating
        rng = np.random.default_rng(24)
        x, y = random_normalized(rng), random_normalized(rng)
        px, py = blk.basis_real @ x.values, blk.basis_real @ y.values
        for theta in (0.0, 0.7, np.pi):
            seq = sequence_detector_response(blk, theta, [x, y])
            pair = energy_detector_response(blk, theta, x, y)
            assert seq == pytest.approx((px + np.cos(theta) * py) ** 2, abs=1e-12)
            assert pair == pytest.approx((np.cos(theta) * px + py) ** 2, abs=1e-12)
            assert (seq == pytest.approx(pair, abs=1e-12)) == (theta != 0.7)

    def test_zero_frames_give_zero(self, block):
        frames = [zero_patch(16) for _ in range(4)]
        assert sequence_detector_response(block, 0.3, frames) == 0.0

    def test_aligned_sequence_attains_coherent_peak(self, block):
        # Oracle: brute-force summation; all phasors align, giving T^2 |p_0|^2.
        rng = np.random.default_rng(29)
        theta = 0.7
        x0 = random_normalized(rng)
        frames = [rotate_in_block(block, x0, theta * s) for s in range(5)]
        p0 = np.array(project(block, x0))
        expected = 25.0 * float(p0 @ p0)
        actual = sequence_detector_response(block, theta, frames)
        assert actual == pytest.approx(expected, abs=1e-10)
        # brute force: accumulate rotated-filter responses frame by frame
        real_sum = imag_sum = 0.0
        for s, frame in enumerate(frames):
            c, sn = np.cos(-theta * s), np.sin(-theta * s)
            fr = c * block.basis_real - sn * block.basis_imag
            fi = sn * block.basis_real + c * block.basis_imag
            real_sum += fr @ frame.values
            imag_sum += fi @ frame.values
        assert actual == pytest.approx(real_sum**2 + imag_sum**2, abs=1e-12)

    def test_parts_split_into_quadratic_and_cross(self, block):
        rng = np.random.default_rng(31)
        frames = [random_normalized(rng) for _ in range(4)]
        total, quad, cross = sequence_detector_response(
            block, 0.5, frames, return_parts=True
        )
        assert total == pytest.approx(quad + cross, abs=1e-12)
        per_frame = [
            sequence_detector_response(block, 0.5, [f, zero_patch(16)]) for f in frames
        ]
        # each frame alone contributes its squared projection to the quadratic part
        assert quad == pytest.approx(sum(per_frame), abs=1e-10)

    def test_needs_at_least_two_frames(self, block):
        with pytest.raises(DimensionError):
            sequence_detector_response(block, 0.1, [zero_patch(16)])


class TestInputGate:
    """Every detector entry point reads its images through ``patches.as_rows``:
    a NaN or infinite pixel raises DataError naming the row (or the frame),
    a wrong width or rank DimensionError."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_project(self, block, bad):
        x = np.random.default_rng(63).standard_normal(16)
        project(block, x)
        x[7] = bad
        with pytest.raises(DataError, match="^x row 0 holds non-finite values$"):
            project(block, x)
        with pytest.raises(DataError, match="^x row 0"):
            subspace_angle_cos(block, np.ones(16), x)
        with pytest.raises(DimensionError):
            project(block, np.ones(15))
        with pytest.raises(DimensionError):
            project(block, np.ones((1, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sequence_detector_response(self, block, bad):
        frames = list(np.random.default_rng(64).standard_normal((3, 16)))
        sequence_detector_response(block, 0.3, frames)
        frames[2][4] = bad
        with pytest.raises(DataError, match="^frame 2 row 0 holds non-finite values$"):
            sequence_detector_response(block, 0.3, frames)
        with pytest.raises(DimensionError):
            sequence_detector_response(block, 0.3, [np.ones(16), np.ones(17)])

    def test_flagged_patches_with_a_non_finite_pixel(self, block):
        # the degenerate flag is not verified, so only the gate stops this
        bad = ImagePatch(np.full(16, np.nan), degenerate=True)
        good = zero_patch(16)
        bank = build_bank_from_warp_family([decompose(make_cyclic_shift(16, 3))], [0.0])
        with pytest.raises(DataError, match="^y row 0"):
            energy_detector_response(block, 0.2, good, bad)
        with pytest.raises(DataError, match="^xs row 0"):
            pooled_code(bank, bad, good)

    def test_batch_rows_name_the_bad_row_and_the_width(self, shift16):
        bank = build_bank_from_warp_family([shift16], [0.0, np.pi / 2])
        xs = normalize_rows(np.random.default_rng(65).standard_normal((4, 16)))[0]
        ys = xs.copy()
        ys[3, 0] = np.nan
        with pytest.raises(DataError, match="^ys row 3 holds non-finite values$"):
            batch_pooled_responses(bank, xs, ys)
        with pytest.raises(DimensionError):
            batch_pooled_responses(bank, xs, xs[:, :15])


def per_detector_loop(bank):
    """The reference bank of one filter pair per detector: x through its
    block's basis rotated by its angle, (c b_r - s b_i, s b_r + c b_i) or
    c b_r on a 1-D block, y through the plain basis, and one pooling row per
    detector that sums its products."""
    inputs, outputs, owner = [], [], []
    for detector, (index, theta) in enumerate(
        zip(bank.detector_block, bank.detector_angle)
    ):
        blk = bank.blocks[index]
        c, s = np.cos(theta), np.sin(theta)
        if blk.basis_imag is None:
            inputs.append(c * blk.basis_real)
            outputs.append(blk.basis_real)
        else:
            inputs += [
                c * blk.basis_real - s * blk.basis_imag,
                s * blk.basis_real + c * blk.basis_imag,
            ]
            outputs += [blk.basis_real, blk.basis_imag]
        owner += [detector] * (len(inputs) - len(owner))
    within = np.zeros((bank.n_detectors, len(inputs)))
    within[owner, np.arange(len(inputs))] = 1.0
    return np.stack(inputs, axis=1), np.stack(outputs, axis=1), within


def per_block_loop(bank):
    """The steered bank's filters and within pooling, built block by block:
    four factors (b_r b_r, b_i b_i, b_r b_i, b_i b_r) mixed by (c, c, s, -s)
    on a 2-D block, one factor b_r b_r weighted c on a 1-D block."""
    inputs, outputs, columns = [], [], []
    c, s = np.cos(bank.detector_angle), np.sin(bank.detector_angle)
    for index, blk in enumerate(bank.blocks):
        mine = bank.detector_block == index
        if blk.basis_imag is None:
            factors = [(blk.basis_real, blk.basis_real, c)]
        else:
            b_r, b_i = blk.basis_real, blk.basis_imag
            factors = [(b_r, b_r, c), (b_i, b_i, c), (b_r, b_i, s), (b_i, b_r, -s)]
        for u, v, weight in factors:
            inputs.append(u)
            outputs.append(v)
            columns.append(np.where(mine, weight, 0.0))
    return tuple(np.stack(cols, axis=1) for cols in (inputs, outputs, columns))


def assert_bank_matches_per_detector_loop(bank):
    """The bank's filters and within pooling are byte for byte the per-block
    loop's, and its per-detector responses on unit-norm pairs are those of
    the per-detector loop to 1e-14.  The per-detector x filters are byte for
    byte each block's ``rotated_basis``, which keeps the sign of -0 entries
    at +-pi on 1-D blocks (the tiles ``analyze --bank`` exports)."""
    for got, expected in zip(
        (bank.input_filters, bank.output_filters, bank.within_pool),
        per_block_loop(bank),
    ):
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    u, v, within = per_detector_loop(bank)
    rotated = [
        vec
        for index, theta in zip(bank.detector_block, bank.detector_angle)
        for vec in bank.blocks[index].rotated_basis(theta)
    ]
    rotated = np.stack(rotated, axis=1)
    np.testing.assert_array_equal(rotated.view(np.uint64), u.view(np.uint64))
    rng = np.random.default_rng(bank.dim)
    xs, ys = rng.standard_normal((2, 50, bank.dim))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    per_detector, _ = batch_pooled_responses(bank, xs, ys)
    reference = ((xs @ u) * (ys @ v)) @ within.T
    assert np.abs(per_detector - reference).max() <= 1e-14


class TestDetectorBank:
    def test_parseval_over_complete_fourier_bank(self, shift16):
        # With x = y, each subspace's theta=0 detector reads |p_x|^2, and the
        # complete orthonormal bank sums them to |x|^2 = 1.
        rng = np.random.default_rng(37)
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([shift16], grid)
        x = random_normalized(rng)
        response = pooled_code(bank, x, x)
        zero_index = int(np.argmin(np.abs(np.array(grid))))
        zero_detectors = np.abs(bank.detector_angle) <= 1e-12
        projections = response.per_detector[zero_detectors]
        total = projections.sum()
        assert total == pytest.approx(1.0, abs=1e-10)
        assert response.pooled[zero_index] == pytest.approx(1.0, abs=1e-10)
        # cross-check each subspace's value against a direct projection
        for det_index in np.flatnonzero(zero_detectors):
            blk = bank.blocks[bank.detector_block[det_index]]
            expected = (blk.basis_real @ x.values) ** 2
            if blk.basis_imag is not None:
                expected += (blk.basis_imag @ x.values) ** 2
            assert response.per_detector[det_index] == pytest.approx(
                expected, abs=1e-12
            )

    def test_identity_across_pool_passes_through(self, shift16):
        rng = np.random.default_rng(41)
        grid = [0.0, np.pi / 2]
        bank = build_bank_from_warp_family([shift16], grid)
        bank = bank.with_across_pool(np.eye(bank.n_detectors))
        x, y = random_normalized(rng), random_normalized(rng)
        response = pooled_code(bank, x, y)
        np.testing.assert_allclose(response.pooled, response.per_detector)

    def test_across_pool_must_be_two_dimensional_with_a_row_per_detector(self, shift16):
        bank = build_bank_from_warp_family([shift16], [0.0, np.pi / 2])
        for shape in [(bank.n_detectors,), (bank.n_detectors + 1, 2), (1, bank.n_detectors)]:
            with pytest.raises(DimensionError):
                bank.with_across_pool(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_across_pool_rejected(self, bad, shift16):
        # a NaN pool would make every pooled code NaN, whose argmax answers 0
        bank = build_bank_from_warp_family([shift16], [0.0, np.pi / 2])
        pool = np.eye(bank.n_detectors)
        pool[3, 3] = bad
        with pytest.raises(DataError):
            bank.with_across_pool(pool)

    @pytest.mark.parametrize("dim", [5, 8, 16, 32])
    def test_composed_readout_matches_the_pooled_code(self, dim):
        # the oracle's readout: the within and across pools as one matrix
        bank = build_shift_bank(dim)
        rng = np.random.default_rng(100 + dim)
        xs = normalize_rows(rng.standard_normal((200, dim)))[0]
        shifted = np.roll(xs, 3, axis=1) + 0.3 * rng.standard_normal(xs.shape)
        ys = normalize_rows(shifted)[0]
        _, pooled = batch_pooled_responses(bank, xs, ys)
        composed = pooled_products(bank, xs, ys, bank.within_pool.T @ bank.across_pool)
        tolerance = 1e-12 * np.abs(pooled).max()
        np.testing.assert_allclose(composed, pooled, rtol=0, atol=tolerance)
        np.testing.assert_array_equal(composed.argmax(axis=1), pooled.argmax(axis=1))

    def test_argmax_identifies_shift_in_every_live_subspace(self):
        # Shifts by s are powers of the unit shift, so in the unit shift's
        # basis every block rotates by s times its angle.
        rng = np.random.default_rng(43)
        unit_shift = decompose(make_cyclic_shift(16, 1))
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([unit_shift], grid)
        x = random_normalized(rng)
        for s in (1, 5, 12):
            warp = make_cyclic_shift(16, s)
            y = ImagePatch(warp.entries @ x.values, normalized=True)
            response = pooled_code(bank, x, y)
            for block_index, blk in enumerate(bank.blocks):
                if not blk.is_two_dimensional:
                    continue
                pr, pi = project(blk, x)
                if np.hypot(pr, pi) < 1e-3:
                    continue
                mask = bank.detector_block == block_index
                angles = bank.detector_angle[mask]
                winner = angles[int(np.argmax(response.per_detector[mask]))]
                expected = wrap_angle(s * blk.angle)
                assert abs(wrap_angle(winner - expected)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 5, 16, 32, 33])
    def test_shift_bank_equals_the_per_detector_loop_bitwise(self, dim):
        assert_bank_matches_per_detector_loop(build_shift_bank(dim))

    def test_identity_bank_equals_the_per_detector_loop_bitwise(self):
        # 1-D blocks at -pi and pi: the reference's c b_r keeps -0 signs
        decomposition = decompose(WarpMatrix.from_entries(np.eye(6)))
        grid = [0.0, np.pi / 3, -np.pi, np.pi]
        bank = build_bank_from_warp_family([decomposition], grid)
        expected_angles = np.tile([0.0, -np.pi, np.pi], 6)
        np.testing.assert_array_equal(bank.detector_angle, expected_angles)
        assert_bank_matches_per_detector_loop(bank)

    def test_non_finite_rows_rejected(self, shift16):
        bank = build_bank_from_warp_family([shift16], [0.0, np.pi / 2])
        xs = normalize_rows(np.random.default_rng(62).standard_normal((3, 16)))[0]
        for bad in (np.nan, np.inf):
            ys = xs.copy()
            ys[1, 4] = bad
            with pytest.raises(DataError):
                batch_pooled_responses(bank, xs, ys)
            with pytest.raises(DataError):
                batch_pooled_responses(bank, ys, xs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_preferred_angle_rejected(self, bad, block):
        # a NaN angle would make a NaN code, whose argmax answers shift 0
        unit_shift = decompose(make_cyclic_shift(8, 1))
        with pytest.raises(DataError):
            build_bank_from_warp_family([unit_shift], [0.5, bad])
        x = contrast_normalize(np.arange(16.0))
        with pytest.raises(DataError):
            rotation_detector_response(block, bad, x, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_energy_and_sequence_detectors_reject_a_non_finite_angle(self, bad):
        # NaN filters would answer NaN, where rotation_detector_response raises
        block = decompose(make_cyclic_shift(8, 1)).two_dimensional_blocks()[0]
        x = contrast_normalize(np.arange(8.0))
        y = contrast_normalize(np.roll(np.arange(8.0), 1))
        with pytest.raises(DataError, match="is not finite"):
            energy_detector_response(block, bad, x, y)
        with pytest.raises(DataError, match="is not finite"):
            sequence_detector_response(block, bad, [x, y, x])

    def test_empty_grid_rejected(self, shift16):
        with pytest.raises(ValueError):
            build_bank_from_warp_family([shift16], [])

    def test_identity_family_degenerates_to_squared_projections(self):
        decomposition = decompose(WarpMatrix.from_entries(np.eye(6)))
        bank = build_bank_from_warp_family([decomposition], [0.0, np.pi / 3])
        # only angle-0 detectors survive on 1-D blocks
        np.testing.assert_array_equal(bank.detector_angle, np.zeros(6))
        rng = np.random.default_rng(47)
        x = contrast_normalize(rng.standard_normal(6))
        response = pooled_code(bank, x, x)
        directions = bank.output_filters.T @ x.values
        np.testing.assert_allclose(response.per_detector, directions**2, atol=1e-12)

    def test_disjoint_family_rejected_with_leakage(self, shift16):
        rng = np.random.default_rng(53)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        other = decompose(WarpMatrix.from_entries(basis @ basis @ basis.T @ basis.T))
        # generic orthogonal warp does not share the Fourier planes
        generic = decompose(
            WarpMatrix.from_entries(
                np.linalg.qr(rng.standard_normal((16, 16)))[0]
            )
        )
        with pytest.raises(SharedSubspaceError) as info:
            build_bank_from_warp_family([shift16, generic], [0.0])
        assert info.value.leakage > 1e-6

    def test_batch_matches_single_pair_path(self, shift16):
        rng = np.random.default_rng(59)
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([shift16], grid)
        xs = np.stack([contrast_normalize(rng.standard_normal(16)).values for _ in range(6)])
        ys = np.stack([contrast_normalize(rng.standard_normal(16)).values for _ in range(6)])
        per, pooled = batch_pooled_responses(bank, xs, ys)
        for i in range(6):
            single = pooled_code(
                bank,
                ImagePatch(xs[i], normalized=True),
                ImagePatch(ys[i], normalized=True),
            )
            np.testing.assert_allclose(per[i], single.per_detector, atol=1e-12)
            np.testing.assert_allclose(pooled[i], single.pooled, atol=1e-12)

    @pytest.mark.parametrize("oracle_bank", [False, True])
    def test_gated_model_holding_the_bank_gives_its_pooled_code(
        self, shift16, oracle_bank
    ):
        # a bank is a gated model with gain 1, no gate nonlinearity and
        # P = within_pool.T: both compute the same pooled products
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([shift16], grid)
        if oracle_bank:
            bank = build_shift_bank(16)
        model = GatedModel(
            bank.input_filters,
            bank.output_filters,
            bank.within_pool.T,
            bank.across_pool,
            nonlinearity="identity",
            gate_gain=1.0,
        )
        xs = normalize_rows(np.random.default_rng(60).standard_normal((9, 16)))[0]
        ys = np.roll(xs, 5, axis=1)
        _, pooled = batch_pooled_responses(bank, xs, ys)
        mapped = infer_mappings(model, xs, ys)
        np.testing.assert_array_equal(mapped.view(np.uint64), pooled.view(np.uint64))

    def test_bank_round_trips_through_wmat_container(self, shift16, tmp_path):
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        # the default across pool, and the oracle's custom one
        banks = [build_bank_from_warp_family([shift16], grid), build_shift_bank(8)]
        rng = np.random.default_rng(61)
        for index, bank in enumerate(banks):
            save_bank(bank, tmp_path / f"bank{index}")
            loaded = load_bank(tmp_path / f"bank{index}")
            np.testing.assert_array_equal(loaded.detector_angle, bank.detector_angle)
            np.testing.assert_array_equal(loaded.detector_block, bank.detector_block)
            np.testing.assert_array_equal(loaded.input_filters, bank.input_filters)
            np.testing.assert_array_equal(loaded.output_filters, bank.output_filters)
            np.testing.assert_array_equal(loaded.within_pool, bank.within_pool)
            np.testing.assert_array_equal(loaded.across_pool, bank.across_pool)
            x = contrast_normalize(rng.standard_normal(bank.dim))
            y = contrast_normalize(rng.standard_normal(bank.dim))
            np.testing.assert_allclose(
                pooled_code(loaded, x, y).pooled,
                pooled_code(bank, x, y).pooled,
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "column, value",
        [(0, 40.0), (0, -1.0), (0, 0.5), (0, np.nan)]
        + [(1, np.nan), (1, np.inf), (1, 0.3)],
    )
    def test_load_rejects_a_bad_detector_table(self, tmp_path, column, value):
        # block index off the table, negative, fractional or NaN; an angle
        # that is not finite, or a turn on a 1-D block
        bank = build_shift_bank(16)
        save_bank(bank, tmp_path)
        table = load_matrix(tmp_path / "detector_table.wmat")
        row = next(
            d
            for d, index in enumerate(bank.detector_block)
            if not bank.blocks[index].is_two_dimensional
        )
        table[row, column] = value
        write_unchecked_wmat(tmp_path / "detector_table.wmat", table)
        with pytest.raises(FormatError, match=f"detector_table.wmat row {row}: "):
            load_bank(tmp_path)

    def test_bank_invariants(self, shift16):
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([shift16], grid)
        # each within-pool row touches only its own block's <= 4 factors
        widths = [4 if blk.is_two_dimensional else 1 for blk in bank.blocks]
        first = np.cumsum([0] + widths)
        assert bank.within_pool.shape == (bank.n_detectors, first[-1])
        for row, index in zip(bank.within_pool, bank.detector_block):
            touched = np.flatnonzero(row)
            assert touched.size <= 4
            assert np.all((touched >= first[index]) & (touched < first[index + 1]))
        # basis pairs unit-norm and orthogonal
        for blk in bank.blocks:
            assert np.linalg.norm(blk.basis_real) == pytest.approx(1.0, abs=1e-8)
            if blk.basis_imag is not None:
                assert np.linalg.norm(blk.basis_imag) == pytest.approx(1.0, abs=1e-8)
                assert abs(blk.basis_real @ blk.basis_imag) <= 1e-8


class TestWarpFamilyCheck:
    """A later member passes when it commutes with the first and maps each
    of the first member's blocks into itself."""

    @pytest.mark.parametrize(
        "side, shifts", [(16, (1, 2)), (16, (1, 3, 4)), (8, (1, 2))]
    )
    def test_commuting_shifts_keep_the_first_members_planes(self, side, shifts):
        family = [decompose(make_cyclic_shift(side, s)) for s in shifts]
        grid = wrap_angle(2 * np.pi * np.arange(side) / side)
        bank = build_bank_from_warp_family(family, grid)
        # the later members only pass the check; the first builds the bank
        alone = build_bank_from_warp_family(family[:1], grid)
        for name in ("input_filters", "output_filters", "within_pool", "across_pool"):
            got, expected = getattr(bank, name), getattr(alone, name)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("case", ["reversal", "repeated-angles-first"])
    def test_family_rejected(self, case):
        if case == "reversal":
            # keeps every Fourier plane of the shift but reflects it, and
            # does not commute with it
            reversal = WarpMatrix.from_entries(np.eye(16)[::-1])
            assert commutation_residual(make_cyclic_shift(16, 1), reversal) == 1.0
            family = [decompose(make_cyclic_shift(16, 1)), decompose(reversal)]
        else:
            # a shift by 2 on 8 px repeats each angle, so its planes are an
            # arbitrary choice that the shift by 1 need not keep
            family = [decompose(make_cyclic_shift(8, s)) for s in (2, 1)]
        with pytest.raises(SharedSubspaceError) as info:
            build_bank_from_warp_family(family, [0.0])
        assert info.value.leakage > 1e-6

    def test_members_of_different_sizes_rejected(self):
        family = [decompose(make_cyclic_shift(n, 1)) for n in (16, 8)]
        with pytest.raises(DimensionError):
            build_bank_from_warp_family(family, [0.0])

    def test_on_real_axis_elementwise_equals_the_scalar_call(self):
        eps = 1e-10
        specials = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi, np.nan]
        specials += [np.pi + eps, np.pi - eps, -np.pi + eps, -np.pi - eps, eps, -eps]
        specials += [2 * ANGLE_MATCH_TOL, np.pi - 2 * ANGLE_MATCH_TOL, 0.5]
        angles = np.concatenate(
            [specials, np.random.default_rng(71).uniform(-7, 7, 100)]
        )
        got = _on_real_axis(angles)
        assert got.dtype == bool and got.shape == angles.shape
        scalar = np.array([bool(_on_real_axis(float(theta))) for theta in angles])
        np.testing.assert_array_equal(got, scalar)
        expected = [True] * 6 + [False] + [True] * 6 + [False] * 3
        assert got[: len(specials)].tolist() == expected


def corrupt_entry(row, column, value):
    def corrupt(table):
        table[row, column] = value
        return table

    return corrupt


def scale_column(column, factor):
    def corrupt(table):
        table[:, column] *= factor
        return table

    return corrupt


BAD_BANK_FILES = {
    "nan-across-pool": (
        "across_pool.wmat",
        corrupt_entry(3, 0, np.nan),
        "across_pool.wmat row 3: holds a non-finite entry",
    ),
    "nan-basis": (
        "bases_real.wmat",
        corrupt_entry(5, 2, np.nan),
        "bases_real.wmat row 5: holds a non-finite entry",
    ),
    "inf-block-angle": (
        "block_table.wmat",
        corrupt_entry(4, 0, np.inf),
        "block_table.wmat row 4: holds a non-finite entry",
    ),
    "kind-flag-2": (
        "block_table.wmat",
        corrupt_entry(2, 1, 2.0),
        "block_table.wmat row 2: kind flag 2 is not 0 or 1",
    ),
    "kind-flag-0.3": (
        "block_table.wmat",
        corrupt_entry(2, 1, 0.3),
        "block_table.wmat row 2: kind flag 0.3 is not 0 or 1",
    ),
    "zero-imaginary-basis": (
        "bases_imag.wmat",
        scale_column(1, 0.0),  # block 1 is the first 2-D block
        "bases_real.wmat, bases_imag.wmat: block bases are not orthonormal",
    ),
    "basis-off-unit-norm": (
        "bases_real.wmat",
        scale_column(0, 1.0 + 1e-6),
        "bases_real.wmat, bases_imag.wmat: block bases are not orthonormal",
    ),
    "extra-block-row": (
        "block_table.wmat",
        lambda table: np.vstack([table, table[-1:]]),
        r"block_table.wmat has shape \(10, 2\), expected \(9, 2\)",
    ),
    "short-imaginary-bases": (
        "bases_imag.wmat",
        lambda table: table[:-1],
        r"bases_imag.wmat has shape \(15, 9\), expected \(16, 9\)",
    ),
    "short-across-pool": (
        "across_pool.wmat",
        lambda table: table[:-1],
        r"across_pool.wmat has shape \(115, 16\), expected \(116, 16\)",
    ),
}


class TestBankFiles:
    def test_saved_shift_bank_keeps_its_bytes(self, tmp_path):
        save_bank(build_shift_bank(16), tmp_path)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert digests == {
            "across_pool.wmat": "e2353fc89e9ccdb3a8bb7e256dc3832bea56c09d879da47bb4d19e6b6adc6e9c",
            "bases_imag.wmat": "8fa7869c58855753465c0d5e42f39f44e7cead42c2e9c6117fae5a07e61e30b3",
            "bases_real.wmat": "28c057032582d06df53a9b671fffe64b0e1ca01821e97a0d3e2c6c6afda3b901",
            "block_table.wmat": "5d91107df60f80a86838533c863e0dd3d809ba8f79b1b7e6a8893798493f6133",
            "detector_table.wmat": "5054e87939836aa67a8f56361d700e37f38c6e7bdc1908d1315d36509c83c7ae",
        }

    @pytest.mark.parametrize("case", list(BAD_BANK_FILES))
    def test_load_rejects_a_bad_file(self, tmp_path, case):
        name, corrupt, message = BAD_BANK_FILES[case]
        bank = build_shift_bank(16)
        assert bank.blocks[1].is_two_dimensional and bank.n_detectors == 116
        save_bank(bank, tmp_path)
        write_unchecked_wmat(tmp_path / name, corrupt(load_matrix(tmp_path / name)))
        with pytest.raises(FormatError, match=message):
            load_bank(tmp_path)

    def test_load_accepts_blocks_that_do_not_span_the_space(self, shift16, tmp_path):
        # one 2-D block of 16 dimensions, as rotation_detector_response builds
        bank = _assemble_bank([shift16.blocks[1]], [0], [0.7], np.ones((1, 1)))
        save_bank(bank, tmp_path)
        loaded = load_bank(tmp_path)
        for name in ("input_filters", "output_filters", "within_pool", "across_pool"):
            got, expected = getattr(loaded, name), getattr(bank, name)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
