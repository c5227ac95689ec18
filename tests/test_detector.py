"""Tests for subspace rotation detectors and pooled codes."""

import numpy as np
import pytest

from warpcode.detector import (
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
    DimensionError,
    MissingComponentError,
    NormalizationError,
    SharedSubspaceError,
)
from warpcode.experiments import build_shift_bank
from warpcode.patches import ImagePatch, contrast_normalize
from warpcode.warp_algebra import (
    WarpMatrix,
    decompose,
    make_cyclic_shift,
    wrap_angle,
)


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

    def test_bank_invariants(self, shift16):
        grid = [wrap_angle(2 * np.pi * k / 16) for k in range(16)]
        bank = build_bank_from_warp_family([shift16], grid)
        # each within-pool row touches only its own detector's factors
        assert np.all(bank.within_pool.sum(axis=1) <= 2)
        # basis pairs unit-norm and orthogonal
        for blk in bank.blocks:
            assert np.linalg.norm(blk.basis_real) == pytest.approx(1.0, abs=1e-8)
            if blk.basis_imag is not None:
                assert np.linalg.norm(blk.basis_imag) == pytest.approx(1.0, abs=1e-8)
                assert abs(blk.basis_real @ blk.basis_imag) <= 1e-8
