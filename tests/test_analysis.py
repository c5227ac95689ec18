"""Tests for quadrature scoring, eigenmovie fits, and invariance metrics."""

import numpy as np
import pytest

from warpcode.analysis import (
    _phase_residuals,
    eigenmovie_consistency,
    export_filter_grid,
    invariance_ratio,
    pair_rotation_invariance_score,
    quadrature_pair_score,
    score_filter_bank_pairs,
    spectral_overlap,
)
from warpcode.errors import DataError, DimensionError
from warpcode.model import band_pairs
from warpcode.warp_algebra import SubspaceBlock

from readers import read_pgm


def random_pair(rng, dim=40):
    pair = rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(pair)
    return q


def rotated_partner(pair, theta):
    """The pair as a block's basis, turned by the warp of block angle theta."""
    block = SubspaceBlock(pair[:, 0], pair[:, 1], 0.0)
    return np.stack(block.rotated_basis(-theta), axis=1)


class TestQuadraturePairScore:
    def test_equal_pairs_score_zero_angle(self):
        pair = random_pair(np.random.default_rng(1))
        theta, fit = quadrature_pair_score(pair, pair)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert fit == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadrature_partner_scores_quarter_turn(self):
        pair = random_pair(np.random.default_rng(2))
        partner = rotated_partner(pair, np.pi / 2)
        theta, fit = quadrature_pair_score(pair, partner)
        assert abs(theta) == pytest.approx(np.pi / 2, abs=1e-12)
        assert fit == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_scores_zero_fit(self):
        rng = np.random.default_rng(3)
        pair = random_pair(rng, dim=30)
        # random vectors orthogonal to the pair's span
        basis, _ = np.linalg.qr(
            np.concatenate([pair, rng.standard_normal((30, 2))], axis=1)
        )
        stranger = basis[:, 2:4]
        _, fit = quadrature_pair_score(pair, stranger)
        assert fit == pytest.approx(0.0, abs=1e-12)

    def test_rotation_consistent_over_full_grid(self):
        pair = random_pair(np.random.default_rng(4))
        for theta in np.linspace(-np.pi, np.pi, 360, endpoint=False):
            found, fit = quadrature_pair_score(pair, rotated_partner(pair, theta))
            assert abs(np.arctan2(np.sin(found - theta), np.cos(found - theta))) <= 1e-8
            assert fit >= 1.0 - 1e-10

    def test_zero_filter_rejected(self):
        pair = random_pair(np.random.default_rng(5))
        with pytest.raises(DataError):
            quadrature_pair_score(np.zeros_like(pair), pair)


class TestSpectralOverlap:
    def test_cyclic_shift_preserves_magnitude_spectrum(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(24)
        for shift in range(24):
            assert spectral_overlap(u, np.roll(u, shift)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_self_overlap_is_one(self):
        u = np.random.default_rng(8).standard_normal(16)
        assert spectral_overlap(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_sinusoids_overlap_zero(self):
        t = np.arange(32)
        low = np.cos(2 * np.pi * 2 * t / 32)
        high = np.cos(2 * np.pi * 9 * t / 32)
        assert spectral_overlap(low, high) == pytest.approx(0.0, abs=1e-10)

    def test_two_dimensional_geometry(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(12 * 10)
        rolled = np.roll(u.reshape(10, 12), (3, 5), axis=(0, 1)).ravel()
        assert spectral_overlap(u, rolled, geometry=(12, 10)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_filter_rejected(self):
        with pytest.raises(DataError):
            spectral_overlap(np.zeros(8), np.ones(8))


class TestEigenmovieConsistency:
    def test_constructed_rotation_sequence_fits_exactly(self):
        rng = np.random.default_rng(11)
        base = random_pair(rng, dim=50)
        theta = 0.83
        frames = np.stack(
            [
                np.cos(theta * s) * base[:, 0] - np.sin(theta * s) * base[:, 1]
                for s in range(6)
            ]
        )
        theta_hat, r2 = eigenmovie_consistency(frames)
        assert theta_hat == pytest.approx(theta, abs=1e-8)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_constant_sequence_is_zero_rotation(self):
        base = np.random.default_rng(12).standard_normal(30)
        frames = np.tile(base, (5, 1))
        theta_hat, r2 = eigenmovie_consistency(frames)
        # theta is ill-determined for a constant sequence (the residual is
        # flat near zero), so only its smallness is meaningful
        assert theta_hat == pytest.approx(0.0, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_white_noise_fits_poorly(self):
        # Recorded fits on seeded noise (T=6, dim=169): r2 ~ 0.35-0.38.
        rng = np.random.default_rng(123)
        for _ in range(3):
            frames = rng.standard_normal((6, 169))
            _, r2 = eigenmovie_consistency(frames)
            assert r2 < 0.5

    def test_needs_three_frames(self):
        with pytest.raises(DimensionError):
            eigenmovie_consistency(np.ones((2, 10)))

    def test_all_zero_sequence_rejected(self):
        with pytest.raises(DataError):
            eigenmovie_consistency(np.zeros((4, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        frames = np.random.default_rng(14).standard_normal((6, 20))
        frames[3, 7] = bad
        with pytest.raises(DataError):
            eigenmovie_consistency(frames)

    @pytest.mark.parametrize("edge, near", [(0.0, 1e-6), (np.pi, np.pi - 1e-6)])
    def test_residual_is_continuous_at_zero_and_pi(self, edge, near):
        # the model's limit at 0 and pi is the model there: no pinned branch
        rng = np.random.default_rng(15)
        for n_frames, dim in ((6, 30), (10, 169)):
            frames = rng.standard_normal((1, n_frames, dim))
            at_edge, at_near = _phase_residuals(frames, np.array([[edge, near]]))[0]
            assert at_edge == pytest.approx(at_near, rel=1e-6)

    @pytest.mark.parametrize("n_frames", [6, 10])
    @pytest.mark.parametrize("dim", [30, 169, 1690])
    def test_matches_scalar_reference_on_noise(self, n_frames, dim):
        rng = np.random.default_rng(1000 * n_frames + dim)
        for _ in range(3):
            frames = rng.standard_normal((n_frames, dim))
            assert_matches_reference(frames)

    @pytest.mark.parametrize("theta", [0.83, 1e-5, 1e-3, np.pi - 1e-3, np.pi - 1e-5])
    def test_matches_scalar_reference_on_rotations(self, theta):
        # near 0 and pi the sine column vanishes and the Chebyshev one does not
        rng = np.random.default_rng(13)
        base = random_pair(rng, dim=169)
        frames = np.stack(
            [
                np.cos(theta * s) * base[:, 0] - np.sin(theta * s) * base[:, 1]
                for s in range(10)
            ]
        )
        frames += 1e-3 * rng.standard_normal(frames.shape)
        assert_matches_reference(frames)


class TestStackedEigenmovieConsistency:
    def stack(self):
        rng = np.random.default_rng(21)
        members = [rng.standard_normal((10, 169)) for _ in range(3)]
        for theta in (0.83, 1e-5, np.pi - 1e-5):
            base = random_pair(rng, dim=169)
            steps = theta * np.arange(10)
            frames = np.outer(np.cos(steps), base[:, 0])
            frames -= np.outer(np.sin(steps), base[:, 1])
            members.append(frames + 1e-3 * rng.standard_normal(frames.shape))
        return np.stack(members)

    def test_each_member_matches_the_scalar_reference(self):
        stack = self.stack()
        thetas, fits = eigenmovie_consistency(stack)
        assert thetas.shape == fits.shape == (stack.shape[0],)
        for frames, theta, r2 in zip(stack, thetas, fits):
            expected_theta, expected_r2 = reference_eigenmovie_consistency(frames)
            assert abs(theta - expected_theta) <= 1e-6
            assert abs(r2 - expected_r2) <= 1e-12

    def test_single_sequence_is_its_row_of_a_stack_bitwise(self):
        stack = self.stack()
        thetas, fits = eigenmovie_consistency(stack)
        for k, frames in enumerate(stack):
            theta, r2 = eigenmovie_consistency(frames)
            assert type(theta) is float and type(r2) is float
            assert theta == thetas[k] and r2 == fits[k]

    def test_one_zero_member_rejected(self):
        stack = self.stack()
        stack[2] = 0.0
        with pytest.raises(DataError):
            eigenmovie_consistency(stack)

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(DimensionError):
            eigenmovie_consistency(np.ones((2, 3, 4, 5)))


def reference_eigenmovie_consistency(frames):
    """The fit as a scalar loop over angles on the full frames: one base-pair
    solve per angle for frames[s] = cos(theta s) c + U_{s-1}(cos theta) d,
    with the Chebyshev column U from its recurrence U_{-1} = 0, U_0 = 1,
    U_{k+1} = 2 cos(theta) U_k - U_{k-1}; a 361-point grid, then 60
    golden-section steps."""
    steps = np.arange(frames.shape[0])

    def residual(theta):
        cos_s = np.cos(theta * steps)
        cheb = [0.0, 1.0]
        while len(cheb) < steps.size:
            cheb.append(2.0 * np.cos(theta) * cheb[-1] - cheb[-2])
        cheb_s = np.array(cheb[: steps.size])
        scc, suu, scu = cos_s @ cos_s, cheb_s @ cheb_s, cos_s @ cheb_s
        rhs_c = cos_s @ frames
        rhs_u = cheb_s @ frames
        det = scc * suu - scu * scu
        c = (suu * rhs_c - scu * rhs_u) / det
        d = (scc * rhs_u - scu * rhs_c) / det
        modeled = np.outer(cos_s, c) + np.outer(cheb_s, d)
        return float(np.sum((frames - modeled) ** 2))

    grid = np.linspace(0.0, np.pi, 361)
    best = int(np.argmin([residual(theta) for theta in grid]))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = residual(x1), residual(x2)
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = residual(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = residual(x2)
    theta = (a + b) / 2.0
    return theta, 1.0 - residual(theta) / float(np.sum(frames * frames))


def assert_matches_reference(frames):
    theta, r2 = eigenmovie_consistency(frames)
    expected_theta, expected_r2 = reference_eigenmovie_consistency(frames)
    assert abs(theta - expected_theta) <= 1e-6
    assert abs(r2 - expected_r2) <= 1e-12


class TestInvarianceRatio:
    def test_identical_codes_within_orbits_score_zero(self):
        orbits = [np.tile([1.0, 2.0], (4, 1)), np.tile([5.0, -1.0], (4, 1))]
        assert invariance_ratio(orbits) == 0.0

    def test_random_grouping_scores_far_higher_than_orbit_grouping(self):
        # Permutation oracle: destroying the orbit structure must push the
        # ratio up by a large factor.
        rng = np.random.default_rng(13)
        centers = rng.standard_normal((6, 5)) * 3.0
        codes = np.concatenate(
            [center + 0.05 * rng.standard_normal((8, 5)) for center in centers]
        )
        orbits = [codes[i * 8 : (i + 1) * 8] for i in range(6)]
        structured = invariance_ratio(orbits)
        permuted = codes[rng.permutation(len(codes))]
        shuffled = [permuted[i * 8 : (i + 1) * 8] for i in range(6)]
        random_ratio = invariance_ratio(shuffled)
        assert structured < 0.01
        assert random_ratio > 10 * structured

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(17)
        orbits = [rng.standard_normal((5, 4)) for _ in range(3)]
        base = invariance_ratio(orbits)
        scaled = invariance_ratio([o * 37.5 for o in orbits])
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_single_orbit_rejected(self):
        with pytest.raises(DataError):
            invariance_ratio([np.zeros((3, 2))])


class TestFilterGrid:
    def test_constant_filter_maps_to_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        image = export_filter_grid(np.ones((1, 9)), (3, 3), path)
        tile = image[1:4, 1:4]
        np.testing.assert_array_equal(tile, np.full((3, 3), 128, dtype=np.uint8))

    def test_reload_matches_written_values(self, tmp_path):
        rng = np.random.default_rng(19)
        filters = rng.standard_normal((6, 8 * 8))
        path = tmp_path / "grid.pgm"
        image = export_filter_grid(filters, (8, 8), path, n_columns=3)
        np.testing.assert_array_equal(read_pgm(path), image)

    def test_layout_arithmetic(self, tmp_path):
        filters = np.random.default_rng(21).standard_normal((40, 13 * 13))
        image = export_filter_grid(filters, (13, 13), tmp_path / "g.pgm", n_columns=8)
        assert image.shape == (5 * 14 + 1, 8 * 14 + 1)

    def test_geometry_mismatch_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            export_filter_grid(np.ones((2, 10)), (3, 3), tmp_path / "bad.pgm")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_tile_rejected(self, tmp_path):
        filters = np.random.default_rng(25).standard_normal((3, 9))
        filters[1, 4] = np.nan
        with pytest.raises(DataError, match="filters row 1 holds non-finite values"):
            export_filter_grid(filters, (3, 3), tmp_path / "nan.pgm")
        assert not (tmp_path / "nan.pgm").exists()


class TestBankScoring:
    def test_scores_every_band_pair(self):
        rng = np.random.default_rng(23)
        u = rng.standard_normal((36, 8))
        report = score_filter_bank_pairs(u, u, geometry=(6, 6))
        assert len(report.pair_index) == 4
        np.testing.assert_allclose(report.fit_r2, 1.0, atol=1e-12)
        quantiles = report.summary_quantiles()
        assert quantiles["fit_r2"][0.5] == pytest.approx(1.0)

    def test_csv_header(self, tmp_path):
        rng = np.random.default_rng(29)
        u = rng.standard_normal((16, 4))
        report = score_filter_bank_pairs(u, u)
        path = tmp_path / "quadrature.csv"
        report.write(path)
        assert path.read_text().splitlines()[0] == (
            "pair_index,theta_hat,fit_r2,spectral_overlap"
        )


class TestRotationTagScore:
    def test_translation_pair_scores_low(self):
        n = 13
        rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        phase = 2 * np.pi * (3 * cols + rows) / n
        pair = np.stack([np.cos(phase).ravel(), np.sin(phase).ravel()], axis=1)
        assert pair_rotation_invariance_score(pair, (n, n)) < 0.05

    def test_circular_harmonic_pair_scores_high(self):
        # Recorded value for this pair: ~0.66.
        n = 13
        rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        y, x = rows - 6, cols - 6
        envelope = np.exp(-(((np.hypot(x, y) - 3.5) / 1.8) ** 2))
        angle = np.arctan2(y, x)
        pair = np.stack(
            [(envelope * np.cos(2 * angle)).ravel(), (envelope * np.sin(2 * angle)).ravel()],
            axis=1,
        )
        assert pair_rotation_invariance_score(pair, (n, n)) > 0.3


# ---------------------------------------------------------------------------
# one pair at a time: the per-pair code the stacked functions replaced


def reference_quadrature_pair_score(u, v):
    a = v[:, 0] @ u[:, 0] + v[:, 1] @ u[:, 1]
    b = v[:, 0] @ u[:, 1] - v[:, 1] @ u[:, 0]
    theta = float(np.arctan2(b, a))
    v_energy = float(np.sum(v * v))
    residual = v_energy - 2.0 * float(np.hypot(a, b)) + float(np.sum(u * u))
    return theta, float(np.clip(1.0 - residual / v_energy, 0.0, 1.0))


def reference_spectral_overlap(u, v, geometry=None):
    u, v = np.asarray(u).reshape(-1), np.asarray(v).reshape(-1)
    if geometry is None:
        mag_u, mag_v = np.abs(np.fft.fft(u)), np.abs(np.fft.fft(v))
    else:
        width, height = geometry
        mag_u = np.abs(np.fft.fft2(u.reshape(height, width))).ravel()
        mag_v = np.abs(np.fft.fft2(v.reshape(height, width))).ravel()
    return float(mag_u @ mag_v / (np.linalg.norm(mag_u) * np.linalg.norm(mag_v)))


def reference_rotation_score(pair, geometry):
    width, height = geometry
    power = sum(
        np.abs(np.fft.fft2(pair[:, j].reshape(height, width))) ** 2 for j in (0, 1)
    )
    turned = np.rot90(power)
    return float(
        (power * turned).sum()
        / max(np.linalg.norm(power) * np.linalg.norm(turned), 1e-300)
    )


def reference_bank_scores(u, v, geometry):
    """Pair k = columns (2k, 2k+1), scored one pair at a time."""
    rows = []
    for k in range(u.shape[1] // 2):
        u_pair, v_pair = u[:, 2 * k : 2 * k + 2], v[:, 2 * k : 2 * k + 2]
        theta, fit = reference_quadrature_pair_score(u_pair, v_pair)
        overlap = 0.5 * (
            reference_spectral_overlap(u_pair[:, 0], v_pair[:, 0], geometry)
            + reference_spectral_overlap(u_pair[:, 1], v_pair[:, 1], geometry)
        )
        rows.append((k, theta, fit, overlap))
    return rows


def reference_filter_grid(filters, geometry, n_columns):
    width, height = geometry
    count = filters.shape[0]
    n_rows = int(np.ceil(count / n_columns))
    image = np.zeros(
        (n_rows * (height + 1) + 1, n_columns * (width + 1) + 1), dtype=np.uint8
    )
    for index in range(count):
        tile = filters[index].reshape(height, width)
        low, high = float(tile.min()), float(tile.max())
        if high - low < 1e-12:
            scaled = np.full(tile.shape, 128, dtype=np.uint8)
        else:
            scaled = np.round((tile - low) / (high - low) * 255.0).astype(np.uint8)
        row, col = divmod(index, n_columns)
        top = row * (height + 1) + 1
        left = col * (width + 1) + 1
        image[top : top + height, left : left + width] = scaled
    return image


def trained_like_banks(n_factors=40, side=13, seed=41):
    """Two banks whose pairs range from exact quadrature partners to noise."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((side * side, n_factors))
    u /= np.linalg.norm(u, axis=0)
    v = np.empty_like(u)
    for k, pair in enumerate(band_pairs(u)):
        partner = rotated_partner(pair, rng.uniform(-np.pi, np.pi))
        noise = rng.standard_normal(pair.shape)
        band_pairs(v)[k] = partner + (k / n_factors) * noise
    return u, v


class TestStackedPairFunctions:
    """Each pair function on a stack equals the per-pair reference within
    1e-12 (sums run in another order), and one pair is its row of any stack
    bit for bit."""

    @pytest.mark.parametrize("side", [13, 16])
    def test_quadrature_scores_match_the_reference(self, side):
        u, v = trained_like_banks(side=side)
        thetas, fits = quadrature_pair_score(band_pairs(u), band_pairs(v))
        assert thetas.shape == fits.shape == (20,)
        for k, (u_pair, v_pair) in enumerate(zip(band_pairs(u), band_pairs(v))):
            theta, fit = reference_quadrature_pair_score(u_pair, v_pair)
            assert abs(thetas[k] - theta) <= 1e-12 and abs(fits[k] - fit) <= 1e-12
            one = quadrature_pair_score(u_pair, v_pair)
            assert type(one[0]) is float and one == (thetas[k], fits[k])

    @pytest.mark.parametrize("geometry", [None, (13, 13), (16, 16), (12, 10)])
    def test_spectral_overlaps_match_the_reference(self, geometry):
        width, height = geometry or (40, 1)
        rng = np.random.default_rng(43)
        u = rng.standard_normal((5, 2, width * height))
        v = rng.standard_normal((5, 2, width * height))
        overlaps = spectral_overlap(u, v, geometry)
        assert overlaps.shape == (5, 2)
        for index in np.ndindex(5, 2):
            expected = reference_spectral_overlap(u[index], v[index], geometry)
            assert abs(overlaps[index] - expected) <= 1e-12
            one = spectral_overlap(u[index], v[index], geometry)
            assert type(one) is float and one == overlaps[index]

    @pytest.mark.parametrize("side", [13, 16])
    def test_rotation_scores_match_the_reference(self, side):
        pairs = band_pairs(trained_like_banks(side=side)[0])
        scores = pair_rotation_invariance_score(pairs, (side, side))
        assert scores.shape == (20,)
        for k, pair in enumerate(pairs):
            assert abs(scores[k] - reference_rotation_score(pair, (side, side))) <= 1e-12
            one = pair_rotation_invariance_score(pair, (side, side))
            assert type(one) is float and one == scores[k]

    def test_bank_scores_match_the_per_pair_loop(self):
        u, v = trained_like_banks()
        for columns in (40, 39):  # an odd trailing column is not scored
            report = score_filter_bank_pairs(u[:, :columns], v[:, :columns], (13, 13))
            expected = reference_bank_scores(u[:, :columns], v[:, :columns], (13, 13))
            assert len(report.rows()) == len(expected) == columns // 2
            for row, want in zip(report.rows(), expected):
                assert row[0] == want[0]
                np.testing.assert_allclose(row[1:], want[1:], rtol=0, atol=1e-12)

    def test_a_bank_of_one_column_has_no_pairs(self):
        report = score_filter_bank_pairs(np.ones((9, 1)), np.ones((9, 1)), (3, 3))
        assert report.rows() == []

    def test_a_zero_pair_or_column_in_a_stack_rejected(self):
        u, v = trained_like_banks()
        pairs = band_pairs(u.copy())
        pairs[3] = 0.0
        with pytest.raises(DataError, match="u_pair 3 is all zero"):
            quadrature_pair_score(pairs, band_pairs(v))
        with pytest.raises(DataError, match="pair 3 is all zero"):
            pair_rotation_invariance_score(pairs, (13, 13))
        bank = v.copy()
        bank[:, 7] = 0.0
        with pytest.raises(DataError, match="zero filter"):
            spectral_overlap(u.T, bank.T)
        with pytest.raises(DataError, match="zero filter"):
            score_filter_bank_pairs(u, bank, (13, 13))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_pair_rejected(self, bad):
        rng = np.random.default_rng(47)
        u, v = rng.standard_normal((2, 9, 4))
        u[4, 1] = bad  # pair 0 of the bank, a 3x3 pair
        with pytest.raises(DataError, match="u_pair 0 holds a non-finite value"):
            quadrature_pair_score(u[:, :2], v[:, :2])
        with pytest.raises(DataError, match="non-finite filter pair 0"):
            spectral_overlap(u[:, 1], v[:, 1], (3, 3))
        with pytest.raises(DataError, match="pair 0 holds a non-finite value"):
            pair_rotation_invariance_score(u[:, :2], (3, 3))
        with pytest.raises(DataError, match="u_pair 0 holds a non-finite value"):
            score_filter_bank_pairs(u, v, (3, 3))
        # a later pair of a stack is named by its index
        w = v.copy()
        w[2, 3] = bad
        with pytest.raises(DataError, match="non-finite filter pair 3"):
            spectral_overlap(v.T, w.T)
        with pytest.raises(DataError, match="v_pair 1 holds a non-finite value"):
            quadrature_pair_score(band_pairs(v), band_pairs(w))

    def test_stacks_of_other_shapes_rejected(self):
        u, v = trained_like_banks()
        with pytest.raises(DimensionError):
            quadrature_pair_score(band_pairs(u), band_pairs(v)[:5])
        with pytest.raises(DimensionError):
            pair_rotation_invariance_score(u[:, :3], (13, 13))
        with pytest.raises(DimensionError):
            spectral_overlap(u.T, v.T[:5])


@pytest.mark.parametrize(
    "count, n_columns", [(1, None), (6, 3), (7, 3), (40, 8), (80, 10)]
)
def test_filter_grid_equals_the_per_tile_loop(tmp_path, count, n_columns):
    filters = np.random.default_rng(count).standard_normal((count, 13 * 13))
    filters[count // 2] = 0.25  # a flat tile
    image = export_filter_grid(filters, (13, 13), tmp_path / "g.pgm", n_columns)
    columns = n_columns or int(np.ceil(np.sqrt(count)))
    expected = reference_filter_grid(filters, (13, 13), columns)
    assert image.dtype == np.uint8 and image.tobytes() == expected.tobytes()
    assert image.shape == expected.shape
