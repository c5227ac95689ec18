"""Tests for warp construction and invariant-subspace decomposition."""

import numpy as np
import pytest

from warpcode.errors import (
    DataError,
    DimensionError,
    OrthogonalityError,
    SingularWarpError,
)
from warpcode.patches import ImagePatch, contrast_normalize
from warpcode.warp_algebra import (
    WarpMatrix,
    apply_warp,
    commutation_residual,
    decompose,
    decompose_approx,
    make_cyclic_shift,
    make_rotation_warp,
    make_translation_warp,
    polar_factor,
    rotate_image,
    rotate_stack,
    shared_subspace_alignment,
    shift_stack,
    wrap_angle,
)


class TestWrapAngle:
    def test_array_equals_the_scalar_loop_bitwise(self):
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 2 * np.pi]
        angles = np.concatenate([special, rng.uniform(-20.0, 20.0, size=200)])
        wrapped = wrap_angle(angles)
        want = np.array([wrap_angle(float(a)) for a in angles])
        assert np.array_equal(wrapped.view(np.uint64), want.view(np.uint64))
        assert wrapped[3] == np.pi
        grid = np.outer(np.arange(4.0), angles[:5])
        assert wrap_angle(grid).shape == grid.shape

    def test_scalar_returns_a_float(self):
        assert type(wrap_angle(-np.pi)) is float and wrap_angle(-np.pi) == np.pi
        assert type(wrap_angle(np.float64(7.0))) is float


def random_orthogonal_circulant(rng, n):
    """Orthogonal circulant from a random convolution kernel (polar factor)."""
    while True:
        kernel = rng.standard_normal(n)
        eigenvalues = np.fft.fft(kernel)
        if np.abs(eigenvalues).min() > 1e-6:
            break
    circulant = np.empty((n, n))
    for j in range(n):
        circulant[:, j] = np.roll(kernel, j)
    return WarpMatrix.from_entries(polar_factor(circulant))


def block_coordinates(block, vec):
    coords = [block.basis_real @ vec]
    if block.basis_imag is not None:
        coords.append(block.basis_imag @ vec)
    return np.array(coords)


class TestCyclicShift:
    def test_shift_moves_one_hot(self):
        warp = make_cyclic_shift(4, 1)
        out = warp.entries @ np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_zero_shift_is_identity(self):
        for n in (2, 5, 16):
            warp = make_cyclic_shift(n, 0)
            np.testing.assert_array_equal(warp.entries, np.eye(n))

    def test_shift_wraps_modulo_n(self):
        a = make_cyclic_shift(6, 7)
        b = make_cyclic_shift(6, 1)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_residual_is_zero(self):
        assert make_cyclic_shift(16, 5).orthogonality_residual == 0.0

    def test_too_small_dimension(self):
        with pytest.raises(DimensionError):
            make_cyclic_shift(1, 0)

    def test_shift4_angles_are_fourth_roots_of_unity(self):
        decomposition = decompose(make_cyclic_shift(4, 1))
        np.testing.assert_allclose(
            np.sort(decomposition.angles()), [0.0, np.pi / 2, np.pi], atol=1e-12
        )
        assert sum(b.is_two_dimensional for b in decomposition.blocks) == 1


def reference_cyclic_shift(n, s):
    """The hand-built permutation ``make_cyclic_shift`` once assembled."""
    entries = np.zeros((n, n))
    idx = np.arange(n)
    entries[(idx + s) % n, idx] = 1.0
    return entries


def reference_translation_warp(width, height, dx, dy):
    """The hand-built permutation ``make_translation_warp`` once assembled."""
    d = width * height
    rows, cols = np.divmod(np.arange(d), width)
    target = ((rows + dy) % height) * width + (cols + dx) % width
    entries = np.zeros((d, d))
    entries[target, np.arange(d)] = 1.0
    return entries


class TestShiftStack:
    @pytest.mark.parametrize("n, height, width", [(1, 1, 2), (7, 1, 16), (6, 5, 5), (9, 4, 7)])
    def test_per_image_offsets_equal_np_roll_bitwise(self, n, height, width):
        rng = np.random.default_rng(n * height * width)
        images = rng.standard_normal((n, height, width))
        # negative and out-of-range offsets included
        offsets = np.stack(
            [rng.integers(-3 * width, 3 * width, n), rng.integers(-3 * height, 3 * height, n)], axis=1
        )
        shifted = shift_stack(images, offsets)
        for image, (dx, dy), got in zip(images, offsets, shifted):
            assert np.array_equal(got, np.roll(image, (dy, dx), axis=(0, 1)))
        as_list = shift_stack(images, [tuple(int(v) for v in pair) for pair in offsets])
        assert np.array_equal(as_list, shifted)

    @pytest.mark.parametrize("offset", [(0, 0), (1, 0), (0, -1), (-3, 2), (17, -11)])
    def test_one_pair_for_the_stack_equals_np_roll_bitwise(self, offset):
        images = np.random.default_rng(3).standard_normal((4, 5, 6))
        dx, dy = offset
        want = np.roll(images, (dy, dx), axis=(1, 2))
        assert np.array_equal(shift_stack(images, offset), want)
        per_image = shift_stack(images, np.tile(offset, (4, 1)))
        assert np.array_equal(per_image, want)

    @pytest.mark.parametrize("offsets", [(1.5, 0), (1.0, 2.0), [(1, 0), (0.5, 1)], np.array([True, False])])
    def test_non_integer_offsets_rejected(self, offsets):
        with pytest.raises(DataError, match="integers"):
            shift_stack(np.zeros((2, 3, 3)), offsets)

    def test_offsets_need_one_pair_or_one_per_image(self):
        for offsets in ([1, 2, 3], [(1, 2)] * 3, [[[1, 2]]] * 2):
            with pytest.raises(DimensionError):
                shift_stack(np.zeros((2, 3, 3)), offsets)
        with pytest.raises(DimensionError):
            shift_stack(np.zeros((3, 3)), (1, 0))

    def test_empty_stack_comes_back_empty(self):
        assert shift_stack(np.zeros((0, 3, 4)), []).shape == (0, 3, 4)

    @pytest.mark.parametrize("n, s", [(2, 1), (5, -3), (8, 0), (16, 5), (7, 23)])
    def test_cyclic_shift_is_the_hand_built_permutation(self, n, s):
        warp = make_cyclic_shift(n, s)
        assert np.array_equal(warp.entries, reference_cyclic_shift(n, s))
        assert warp.orthogonality_residual == 0.0

    @pytest.mark.parametrize(
        "width, height, dx, dy", [(2, 2, 1, 1), (5, 3, -2, 4), (13, 13, 1, 0), (4, 7, 9, -8)]
    )
    def test_translation_is_the_hand_built_permutation(self, width, height, dx, dy):
        warp = make_translation_warp(width, height, dx, dy)
        assert np.array_equal(warp.entries, reference_translation_warp(width, height, dx, dy))
        assert warp.orthogonality_residual == 0.0

    def test_shift_warps_reject_non_integer_offsets(self):
        with pytest.raises(DataError):
            make_cyclic_shift(8, 1.5)
        with pytest.raises(DataError):
            make_translation_warp(4, 4, 0.5, 0)


def reference_rotate_image(image, angle):
    """Three-shear rotation rebuilding each shear's phase table per call."""

    def shear_rows(img, shifts):
        n = img.shape[1]
        freqs = np.fft.fftfreq(n) * n
        phase = np.exp(-2j * np.pi * freqs[None, :] * shifts[:, None] / n)
        if n % 2 == 0:
            phase[:, n // 2] = np.where(np.cos(np.pi * shifts) >= 0.0, 1.0, -1.0)
        return np.fft.ifft(phase * np.fft.fft(img, axis=1), axis=1).real

    height, width = image.shape
    folded = wrap_angle(angle)
    quarter_turns = int(np.round(folded / (np.pi / 2.0))) if width == height else 0
    residual = folded - quarter_turns * np.pi / 2.0
    row_shifts = np.tan(residual / 2.0) * (np.arange(height) - (height - 1) / 2.0)
    col_shifts = -np.sin(residual) * (np.arange(width) - (width - 1) / 2.0)
    out = np.rot90(image, quarter_turns)
    if residual != 0.0:
        out = shear_rows(out, row_shifts)
        out = np.ascontiguousarray(shear_rows(out.T, col_shifts).T)
        out = shear_rows(out, row_shifts)
    return np.ascontiguousarray(out)


class TestRotationWarp:
    def test_zero_angle_is_identity(self):
        warp = make_rotation_warp(9, 9, 0.0)
        np.testing.assert_array_equal(warp.entries, np.eye(81))
        assert warp.orthogonality_residual == 0.0

    def test_half_turn_is_exact_180_permutation(self):
        n = 13
        warp = make_rotation_warp(n, n, np.pi)
        assert warp.orthogonality_residual <= 1e-12
        img = np.arange(n * n, dtype=float)
        flipped = (warp.entries @ img).reshape(n, n)
        np.testing.assert_allclose(flipped, img.reshape(n, n)[::-1, ::-1], atol=1e-12)
        # exact permutation: one unit entry per row
        assert np.allclose(np.abs(warp.entries).sum(axis=1), 1.0)

    def test_quarter_turn_matches_rot90(self):
        n = 8
        warp = make_rotation_warp(n, n, np.pi / 2)
        img = np.random.default_rng(0).standard_normal((n, n))
        out = (warp.entries @ img.ravel()).reshape(n, n)
        np.testing.assert_allclose(out, np.rot90(img), atol=1e-12)

    def test_pi_over_7_residual_below_gate(self):
        # Recorded value from the implementation run: ~1.6e-15.
        warp = make_rotation_warp(13, 13, np.pi / 7)
        assert warp.orthogonality_residual < 1e-12
        assert warp.orthogonality_residual < 0.2

    def test_rotate_image_matches_matrix(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((11, 11))
        warp = make_rotation_warp(11, 11, 0.7)
        np.testing.assert_allclose(
            rotate_image(img, 0.7).ravel(), warp.entries @ img.ravel(), atol=1e-12
        )

    @pytest.mark.parametrize("height, width", [(16, 16), (13, 13), (12, 17), (17, 12)])
    def test_rotate_image_equals_per_call_phase_reference_bitwise(self, height, width):
        rng = np.random.default_rng(height * width)
        img = rng.standard_normal((height, width))
        if height == width:
            angles = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 0.3 + np.pi / 2]
            angles += list(rng.uniform(-np.pi, np.pi, size=40))
        else:
            angles = [0.0, np.pi / 4, -np.pi / 4]
            angles += list(rng.uniform(-np.pi / 4, np.pi / 4, size=40))
        for angle in angles:
            want = reference_rotate_image(img, angle)
            assert np.array_equal(rotate_image(img, angle), want), angle

    # n on both sides of ROTATE_BLOCK (128) and of the stack size (about 100
    # images) where an in-place complex product would start to round
    # differently
    @pytest.mark.parametrize("n", [1, 99, 100, 128, 129, 300])
    @pytest.mark.parametrize("height, width", [(13, 13), (16, 16), (8, 12)])
    def test_stack_equals_per_image_reference_bitwise(self, n, height, width):
        rng = np.random.default_rng(n * height * width)
        images = rng.standard_normal((n, height, width))
        if height == width:
            special = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]
            angles = rng.uniform(-np.pi, np.pi, size=n)
        else:
            special = [0.0, np.pi / 4, -np.pi / 4]
            angles = rng.uniform(-np.pi / 4, np.pi / 4, size=n)
        picks = rng.choice(n, size=min(n, 3 * len(special)), replace=False)
        angles[picks] = np.resize(special, len(picks))
        rotated = rotate_stack(images, angles)
        for image, angle, got in zip(images, angles, rotated):
            assert np.array_equal(got, reference_rotate_image(image, angle)), angle

    def test_stack_needs_one_angle_per_image(self):
        with pytest.raises(DimensionError):
            rotate_stack(np.zeros((3, 9, 9)), [0.1, 0.2])
        with pytest.raises(DimensionError):
            rotate_stack(np.zeros((9, 9)), [0.1])

    @pytest.mark.parametrize(
        "height, width, angle",
        [(13, 13, 0.7), (16, 16, -2.3), (9, 9, np.pi / 2), (8, 12, 0.4)],
    )
    def test_rotation_warp_equals_per_column_reference_bitwise(self, height, width, angle):
        d = width * height
        want = np.empty((d, d))
        for j in range(d):
            column = np.eye(d)[:, j].reshape(height, width)
            want[:, j] = reference_rotate_image(column, angle).ravel()
        warp = make_rotation_warp(width, height, angle)
        assert np.array_equal(warp.entries, want)
        assert warp.orthogonality_residual == WarpMatrix.from_entries(want).orthogonality_residual

    def test_small_patch_rejected(self):
        with pytest.raises(DimensionError):
            make_rotation_warp(2, 5, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, bad):
        image = np.arange(25.0).reshape(5, 5)
        with pytest.raises(DataError, match="not finite"):
            rotate_image(image, bad)
        with pytest.raises(DataError, match="not finite"):
            make_rotation_warp(5, 5, bad)
        with pytest.raises(DataError, match="not finite"):
            rotate_stack(np.stack([image] * 3), [0.3, bad, -1.2])

    def test_non_square_large_angle_rejected(self):
        with pytest.raises(DimensionError):
            make_rotation_warp(8, 12, 1.0)

    def test_non_square_small_angle_allowed(self):
        warp = make_rotation_warp(8, 12, 0.2)
        assert warp.orthogonality_residual < 1e-10

    @pytest.mark.parametrize("n", [3, 8, 13, 16])
    @pytest.mark.parametrize("turns", [-2, -1, 0, 1, 2])
    def test_quarter_turns_are_the_rot90_permutation(self, n, turns):
        warp = make_rotation_warp(n, n, turns * np.pi / 2)
        # the permutation a quarter turn was once assembled as, directly
        idx = np.rot90(np.arange(n * n).reshape(n, n), turns)
        want = np.zeros((n * n, n * n))
        want[np.arange(n * n), idx.ravel()] = 1.0
        assert np.array_equal(warp.entries, want)
        assert warp.orthogonality_residual == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_warp_with_a_non_finite_entry_rejected(bad):
    entries = np.eye(4)
    entries[1, 2] = bad
    with pytest.raises(DataError, match="NaN or an infinity"):
        WarpMatrix.from_entries(entries)
    with pytest.raises(DataError, match="NaN or an infinity"):
        WarpMatrix(entries, 0.0)


class TestDecompose:
    def test_identity_all_angles_zero(self):
        decomposition = decompose(WarpMatrix.from_entries(np.eye(7)))
        np.testing.assert_array_equal(decomposition.angles(), np.zeros(7))

    def test_shift_16_3_angles_match_eigenvalue_oracle(self):
        warp = make_cyclic_shift(16, 3)
        decomposition = decompose(warp)
        # Oracle: brute-force complex eigendecomposition of the permutation.
        eigenvalues = np.linalg.eigvals(warp.entries)
        oracle = np.sort(np.abs(np.angle(eigenvalues)))
        found = []
        for block in decomposition.blocks:
            found.extend([block.angle] * block.block_dim)
        np.testing.assert_allclose(np.sort(found), oracle, atol=1e-8)

    def test_rejects_non_orthogonal(self):
        bad = WarpMatrix.from_entries(np.diag([1.0, 2.0]))
        with pytest.raises(OrthogonalityError, match="residual"):
            decompose(bad)

    def test_reconstruction_exact_warps(self):
        for warp in (
            make_cyclic_shift(16, 3),
            make_cyclic_shift(9, 4),
            make_rotation_warp(7, 7, 0.41),
            make_translation_warp(5, 4, 2, 1),
        ):
            decomposition = decompose(warp)
            err = np.abs(decomposition.assemble() - warp.entries).max()
            assert err <= 1e-8

    def test_angle_describes_coordinate_rotation(self):
        # Rotating in-block coordinates by the block angle must match
        # projecting after the warp is applied.
        rng = np.random.default_rng(11)
        warp = make_cyclic_shift(16, 5)
        decomposition = decompose(warp)
        x = rng.standard_normal(16)
        y = warp.entries @ x
        for block in decomposition.two_dimensional_blocks():
            c, s = np.cos(block.angle), np.sin(block.angle)
            rot = np.array([[c, -s], [s, c]])
            np.testing.assert_allclose(
                rot @ block_coordinates(block, x),
                block_coordinates(block, y),
                atol=1e-10,
            )

    def test_recovers_known_planted_angles(self):
        rng = np.random.default_rng(5)
        angles = np.array([0.3, 0.9, 1.4, 2.2])
        basis, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        entries = np.zeros((9, 9))
        for k, theta in enumerate(angles):
            pair = basis[:, 2 * k : 2 * k + 2]
            c, s = np.cos(theta), np.sin(theta)
            entries += pair @ np.array([[c, -s], [s, c]]) @ pair.T
        entries += np.outer(basis[:, 8], basis[:, 8])
        decomposition = decompose(WarpMatrix.from_entries(entries))
        two_dim = sorted(b.angle for b in decomposition.two_dimensional_blocks())
        np.testing.assert_allclose(two_dim, np.sort(angles), atol=1e-10)

    def test_blocks_sorted_by_angle(self):
        decomposition = decompose(make_cyclic_shift(16, 3))
        angles = decomposition.angles()
        assert np.all(np.diff(angles) >= -1e-15)

    def test_angle_additivity_for_squared_warp(self):
        warp = make_cyclic_shift(16, 3)
        squared = WarpMatrix.from_entries(warp.entries @ warp.entries)
        base = decompose(warp)
        doubled = decompose(squared)
        for block in base.two_dimensional_blocks():
            expected = abs(wrap_angle(2.0 * block.angle))
            # match by subspace: the squared warp's block holding this basis
            best = max(
                doubled.blocks,
                key=lambda b: np.linalg.norm(b.projector() @ block.basis_real),
            )
            assert abs(best.angle - expected) <= 1e-8


def reference_block_rotation(block):
    """A block's dense rotation as an outer-product sum: sign(cos angle)
    b_r b_r^T on a 1-D block, B R(angle) B^T on a 2-D one."""
    if block.basis_imag is None:
        sign = 1.0 if abs(block.angle) < np.pi / 2 else -1.0
        return sign * np.outer(block.basis_real, block.basis_real)
    basis = np.stack([block.basis_real, block.basis_imag], axis=1)
    c, s = np.cos(block.angle), np.sin(block.angle)
    return basis @ np.array([[c, -s], [s, c]]) @ basis.T


SUBSPACE_WARPS = [
    make_cyclic_shift(16, 3),
    make_cyclic_shift(9, 4),
    make_rotation_warp(7, 7, 0.41),
    make_translation_warp(5, 4, 2, 1),
    WarpMatrix.from_entries(np.eye(6)),
    WarpMatrix.from_entries(np.eye(8)[::-1]),
]


class TestSubspaceBlock:
    @pytest.mark.parametrize("warp", SUBSPACE_WARPS)
    def test_rotation_and_assemble_match_the_outer_product_sum(self, warp):
        decomposition = decompose(warp)
        total = np.zeros((warp.dim, warp.dim))
        for block in decomposition.blocks:
            expected = reference_block_rotation(block)
            np.testing.assert_allclose(block.rotation(), expected, rtol=0, atol=1e-14)
            total += expected
        np.testing.assert_allclose(decomposition.assemble(), total, rtol=0, atol=1e-14)

    def test_rotated_basis_by_minus_angle_is_the_warp_image(self):
        warp = make_cyclic_shift(16, 3)
        for block in decompose(warp).blocks:
            images = block.rotated_basis(-block.angle)
            assert len(images) == block.block_dim
            for image, vec in zip(images, block.basis):
                np.testing.assert_allclose(image, warp.entries @ vec, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rotated_basis_rejects_a_non_finite_angle(self, bad):
        # 1-D and 2-D blocks alike: NaN filters would answer NaN silently
        for block in decompose(make_cyclic_shift(8, 1)).blocks:
            with pytest.raises(DataError, match="^rotation angle .* is not finite$"):
                block.rotated_basis(bad)

    @pytest.mark.parametrize("warp", SUBSPACE_WARPS)
    def test_leakage_matches_the_projector_form(self, warp):
        rng = np.random.default_rng(31)
        for block in decompose(warp).blocks:
            inside = sum(rng.standard_normal() * vec for vec in block.basis)
            assert block.leakage(inside) <= 1e-12
            for vector in rng.standard_normal((5, warp.dim)):
                expected = np.linalg.norm(vector - block.projector() @ vector)
                assert block.leakage(vector) == pytest.approx(expected, abs=1e-12)


class TestDecomposeApprox:
    def test_orthogonal_input_matches_exact_path(self):
        warp = make_cyclic_shift(12, 5)
        exact = decompose(warp)
        approx = decompose_approx(warp)
        np.testing.assert_allclose(approx.angles(), exact.angles(), atol=1e-10)
        assert approx.approximation_residual <= 1e-12

    def test_scaling_removed_by_polar_projection(self):
        warp = WarpMatrix.from_entries(1.1 * np.eye(6))
        decomposition = decompose_approx(warp)
        np.testing.assert_array_equal(decomposition.angles(), np.zeros(6))
        np.testing.assert_allclose(decomposition.approximation_residual, 0.1, atol=1e-12)

    def test_singular_warp_rejected(self):
        entries = np.eye(5)
        entries[2, 2] = 0.0
        with pytest.raises(SingularWarpError):
            decompose_approx(WarpMatrix.from_entries(entries))

    def test_rotation_warp_blocks_match_procrustes_oracle(self):
        # Oracle: per-block 2x2 least-squares rotation fit on projections of
        # random test vectors through the polar factor.
        rng = np.random.default_rng(7)
        warp = make_rotation_warp(13, 13, np.pi / 6)
        decomposition = decompose_approx(warp)
        orthogonal = polar_factor(warp.entries)
        samples = rng.standard_normal((40, 169))
        warped = samples @ orthogonal.T
        for block in decomposition.two_dimensional_blocks():
            basis = np.stack([block.basis_real, block.basis_imag], axis=1)
            px = samples @ basis
            py = warped @ basis
            cross = py.T @ px
            fitted = np.arctan2(cross[1, 0] - cross[0, 1], cross[0, 0] + cross[1, 1])
            assert abs(fitted - block.angle) <= 1e-8

    def test_rotation_warp_angles_cluster_near_multiples(self):
        # The grid rotation by pi/6 should act like e^{i m pi/6} on most of
        # its invariant subspaces.  Measured on the implementation: >= 75% of
        # 2-D blocks sit within 0.15 rad of a multiple of pi/6.
        warp = make_rotation_warp(13, 13, np.pi / 6)
        decomposition = decompose_approx(warp)
        angles = np.array([b.angle for b in decomposition.two_dimensional_blocks()])
        step = np.pi / 6
        distance = np.abs(angles - step * np.round(angles / step))
        assert np.mean(distance < 0.15) >= 0.75


class TestCommutation:
    def test_shifts_commute(self):
        a = make_cyclic_shift(16, 3)
        b = make_cyclic_shift(16, 11)
        assert commutation_residual(a, b) == 0.0

    def test_self_commutes(self):
        a = make_rotation_warp(7, 7, 0.9)
        assert commutation_residual(a, a) == 0.0

    def test_shift_vs_reversal_does_not_commute(self):
        n = 8
        shift = make_cyclic_shift(n, 1)
        reversal = WarpMatrix.from_entries(np.eye(n)[::-1])
        # Oracle: direct multiplication with raw numpy.
        direct = np.abs(
            shift.entries @ reversal.entries - reversal.entries @ shift.entries
        ).max()
        assert commutation_residual(shift, reversal) == direct
        assert direct == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutation_residual(make_cyclic_shift(4, 1), make_cyclic_shift(5, 1))


class TestSharedSubspaces:
    def test_commuting_circulants_share_subspaces(self):
        rng = np.random.default_rng(21)
        a = random_orthogonal_circulant(rng, 16)
        b = random_orthogonal_circulant(rng, 16)
        assert commutation_residual(a, b) <= 1e-8
        report = shared_subspace_alignment(a, b)
        assert report.max_leakage <= 1e-8

    def test_identity_never_leaks(self):
        a = make_cyclic_shift(12, 5)
        b = WarpMatrix.from_entries(np.eye(12))
        assert shared_subspace_alignment(a, b).max_leakage <= 1e-12

    def test_reversal_preserves_fourier_planes_despite_not_commuting(self):
        # Index reversal maps Fourier mode k to mode n-k, i.e. acts as a
        # reflection *inside* each 2-D plane: no leakage even though the
        # pair does not commute (direct computation gives ~1e-15).
        shift = make_cyclic_shift(8, 1)
        reversal = WarpMatrix.from_entries(np.eye(8)[::-1])
        assert commutation_residual(shift, reversal) == 1.0
        assert shared_subspace_alignment(shift, reversal).max_leakage <= 1e-12

    def test_generic_non_commuting_pair_leaks(self):
        rng = np.random.default_rng(13)
        shift = make_cyclic_shift(8, 1)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        generic = WarpMatrix.from_entries(basis)
        report = shared_subspace_alignment(shift, generic)
        assert report.max_leakage > 0.1

    def test_commuting_implies_shared_over_random_family(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = random_orthogonal_circulant(rng, 16)
            b = random_orthogonal_circulant(rng, 16)
            if commutation_residual(a, b) <= 1e-8:
                assert shared_subspace_alignment(a, b).max_leakage <= 1e-6


class TestApplyWarp:
    def test_identity_returns_same_values(self):
        patch = contrast_normalize(np.arange(9.0))
        warp = WarpMatrix.from_entries(np.eye(9))
        out = apply_warp(warp, patch)
        np.testing.assert_allclose(out.values, patch.values)
        assert out.normalized

    def test_shift_then_unshift_roundtrips(self):
        patch = contrast_normalize(np.random.default_rng(2).standard_normal(16))
        forward = make_cyclic_shift(16, 5)
        backward = make_cyclic_shift(16, -5)
        out = apply_warp(backward, apply_warp(forward, patch))
        np.testing.assert_allclose(out.values, patch.values, atol=1e-12)

    def test_one_hot_shift(self):
        values = np.zeros(16)
        values[2] = 1.0
        out = apply_warp(make_cyclic_shift(16, 5), ImagePatch(values))
        expected = np.zeros(16)
        expected[7] = 1.0
        np.testing.assert_array_equal(out.values, expected)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            apply_warp(make_cyclic_shift(4, 1), ImagePatch(np.zeros(5)))

    def test_norm_preserved_by_exact_warps(self):
        rng = np.random.default_rng(4)
        for warp in (make_cyclic_shift(16, 7), make_rotation_warp(9, 9, 1.1)):
            x = rng.standard_normal(warp.dim)
            y = warp.entries @ x
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10
