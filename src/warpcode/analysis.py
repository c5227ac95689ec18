"""Quantitative checks of learned filter structure.

Filter pairs: a "pair" is one pair of the band layout, which
``model.band_pairs`` states.  A trained pair is *in quadrature* when the
output-side pair equals the input-side pair rotated within its own
two-dimensional span; ``quadrature_pair_score`` fits that rotation in
closed form and reports the explained fraction.  The pair functions take
stacks; one pair is a stack of one, equal to its row of any stack bit for bit.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, DimensionError
from .model import band_pairs
from .patches import as_rows
from .storage import write_csv, write_pgm

QUADRATURE_CSV_HEADER = ["pair_index", "theta_hat", "fit_r2", "spectral_overlap"]

MIN_CONSISTENCY_FRAMES = 3  # two frames fit any rotation speed exactly


def _pair_stack(pairs, name):
    """``pairs``, a ``(dim, 2)`` pair or a ``(k, dim, 2)`` stack, as a C-contiguous
    stack (members then reduce in one order), and whether it was one pair.
    DataError names the first pair that is non-finite or all zero."""
    stack = np.ascontiguousarray(pairs, dtype=np.float64)
    single = stack.ndim == 2
    stack = stack[None] if single else stack
    if stack.ndim != 3 or stack.shape[2] != 2:
        raise DimensionError(f"{name} must be a (dim, 2) filter pair or a (k, dim, 2) stack")
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise DataError(f"{name} {bad[0]} holds a non-finite value")
    zero = np.flatnonzero(~stack.any(axis=(1, 2)))
    if zero.size:
        raise DataError(f"{name} {zero[0]} is all zero")
    return stack, single


def _row_dots(a, b):
    # one BLAS ddot per row: the call of a 1-D ``a @ b`` and of np.linalg.norm
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def quadrature_pair_score(u_pair, v_pair):
    """Best rotation angle carrying the u-pair onto the v-pair, plus fit.

    Minimizes ``|v_pair - u_pair R(theta)|_F`` over the plane rotation R;
    theta has the closed form ``atan2(B, A)`` from the two inner-product
    sums A and B.  It is the block angle of the warp that carries the
    u-pair onto the v-pair: with the u-pair as a ``SubspaceBlock``'s basis,
    v = ``rotated_basis(-theta)``.  ``fit_r2`` is the explained fraction of
    the v-pair's energy, clamped to [0, 1] (orthogonal v-pairs score 0).
    Floats for two ``(dim, 2)`` pairs, length-k arrays for two ``(k, dim,
    2)`` stacks; DataError for an all-zero pair.
    """
    u, single = _pair_stack(u_pair, "u_pair")
    v, _ = _pair_stack(v_pair, "v_pair")
    if u.shape != v.shape:
        raise DimensionError(f"filter pairs differ in shape: {u.shape} and {v.shape}")
    (u0, u1), (v0, v1) = u.transpose(2, 0, 1), v.transpose(2, 0, 1)
    a = np.sum(v0 * u0 + v1 * u1, axis=1)
    b = np.sum(v0 * u1 - v1 * u0, axis=1)
    theta = np.arctan2(b, a)
    v_energy = np.sum(v * v, axis=(1, 2))
    residual = v_energy - 2.0 * np.hypot(a, b) + np.sum(u * u, axis=(1, 2))
    fit_r2 = np.clip(1.0 - residual / v_energy, 0.0, 1.0)
    if single:
        return float(theta[0]), float(fit_r2[0])
    return theta, fit_r2


def spectral_overlap(u, v, geometry: Optional[Tuple[int, int]] = None):
    """Cosine similarity of DFT magnitude spectra.

    A float for two filters, an array for two stacks ``(..., dim)``.  With
    ``geometry`` = (width, height), filters are reshaped row-major and the
    2-D transform is used; magnitudes are compared flattened.  Equal to 1
    for any pair related by a cyclic shift; DataError for a zero filter, or
    naming the first pair (u, v), in row-major order, that is non-finite.
    """
    # contiguous filters give contiguous spectra, one unit-stride ddot each
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"filters differ in shape: {u.shape} and {v.shape}")
    bad = np.flatnonzero(~(np.isfinite(u).all(axis=-1) & np.isfinite(v).all(axis=-1)))
    if bad.size:
        raise DataError(f"spectral overlap of non-finite filter pair {bad[0]}")
    if not (u.any(axis=-1).all() and v.any(axis=-1).all()):
        raise DataError("spectral overlap of a zero filter")
    width, height = geometry or (u.shape[-1], 1)  # one row: the 1-D transform
    grid = u.shape[:-1] + (height, width)
    mag_u = np.abs(np.fft.fft2(u.reshape(grid))).reshape(u.shape)
    mag_v = np.abs(np.fft.fft2(v.reshape(grid))).reshape(v.shape)
    norms = np.sqrt(_row_dots(mag_u, mag_u)) * np.sqrt(_row_dots(mag_v, mag_v))
    overlap = _row_dots(mag_u, mag_v) / norms
    return float(overlap) if u.ndim == 1 else overlap


# ---------------------------------------------------------------------------
# eigenmovie consistency


def _phase_residuals(frames: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Least-squares residuals (k, t) of the per-frame rotation model for a
    stack (k, n_frames, m) of sequences at t angles ``thetas`` (k, t) each.

    Model: frames[s] = cos(theta s) c + U_{s-1}(cos theta) d, the base pair
    (c, d) solved exactly for each theta.  U_{s-1}(cos theta) = sin(theta s)
    / sin(theta) spans the sine column's direction and tends to s and
    s (-1)^(s-1) at 0 and pi, so the system has full rank at every angle and
    the residual is continuous.  It is the sum of 2 cos(theta k) over k =
    s-1, s-3, ... (1 at k = 0).  Sums run along trailing axes only, so a
    member's residuals do not depend on the rest of the stack.
    """
    steps = np.arange(frames.shape[1])
    lag = steps - 1 - steps[:, None]
    chebyshev = ((lag >= 0) & (lag % 2 == 0)) * (2.0 - (steps[:, None] == 0))
    cos_s = np.cos(thetas[:, :, None] * steps)
    cheb_s = cos_s @ chebyshev
    scc = (cos_s * cos_s).sum(axis=2)[..., None]
    suu = (cheb_s * cheb_s).sum(axis=2)[..., None]
    scu = (cos_s * cheb_s).sum(axis=2)[..., None]
    rhs_c = cos_s @ frames
    rhs_u = cheb_s @ frames
    det = scc * suu - scu * scu
    c = (suu * rhs_c - scu * rhs_u) / det
    d = (scc * rhs_u - scu * rhs_c) / det
    modeled = cos_s[..., None] * c[:, :, None] + cheb_s[..., None] * d[:, :, None]
    return np.sum((frames[:, None] - modeled) ** 2, axis=(2, 3))


def eigenmovie_consistency(filter_frames):
    """Fit of per-frame filter sequences to a constant-speed rotation model.

    ``filter_frames`` is (n_frames, dim), one factor's filter sliced per
    frame, or a stack (k, n_frames, dim) of such sequences.  Fits a single
    base pair rotating by ``theta`` per frame: a dense grid scan with an
    exact base-pair solve per candidate, one sequence at a time, then
    golden-section steps that run all sequences in lock-step.  The rotation
    direction is not identifiable from the fit (flipping the pair's
    imaginary part flips it), so theta is reported in [0, pi].

    The fit runs on a lower triangle ``L`` of at most n_frames columns
    rather than on the frames: with ``frames = L Q^T`` from a QR
    factorization of ``frames^T``, every residual of the model equals the
    one on ``L``, since the columns of ``Q`` are orthonormal.

    Returns ``(theta_hat, consistency_r2)``: floats for one sequence, and
    for a stack length-k arrays, each member's as if fitted alone.
    """
    frames = np.ascontiguousarray(filter_frames, dtype=np.float64)
    single = frames.ndim == 2
    frames = frames[None] if single else frames
    if frames.ndim != 3:
        raise DimensionError("filter sequence must be (n_frames, dim) or a stack")
    if frames.shape[1] < MIN_CONSISTENCY_FRAMES:
        raise DimensionError(f"consistency fit needs at least {MIN_CONSISTENCY_FRAMES} frames")
    if not np.isfinite(frames).all():
        raise DataError("filter sequence holds non-finite values")
    total = np.sum(frames * frames, axis=(1, 2))
    if (total < 1e-24).any():
        raise DataError("all-zero filter sequence")
    triangle = np.linalg.qr(frames.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
    grid = np.linspace(0.0, np.pi, 361)
    # one sequence at a time: a whole stack's (k, 361, n, m) temporaries
    # would dominate a pipeline's peak memory
    scan = [_phase_residuals(member[None], grid[None])[0] for member in triangle]
    best = np.argmin(scan, axis=1)

    def residuals(thetas):
        return _phase_residuals(triangle, thetas[:, None])[:, 0]

    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid.size - 1)]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = residuals(x1), residuals(x2)
    for _ in range(60):
        # keep [a, x2] where f1 <= f2, else [x1, b]; one new point each
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - golden * (b - a), a + golden * (b - a))
        f = residuals(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
    theta = (a + b) / 2.0
    fit = 1.0 - residuals(theta) / total
    if single:
        return float(theta[0]), float(fit[0])
    return theta, fit


# ---------------------------------------------------------------------------
# invariance


def invariance_ratio(codes_by_orbit: Sequence) -> float:
    """Within-orbit variance over variance of orbit means, pooled over dims.

    An orbit is one base image under many transformation parameters.  Small
    values mean the code barely moves along an orbit while still separating
    different orbits.  Scale-invariant by construction.
    """
    orbits = [np.asarray(o, dtype=np.float64) for o in codes_by_orbit]
    if len(orbits) < 2:
        raise DataError("invariance ratio needs at least two orbits")
    for orbit in orbits:
        if orbit.ndim != 2 or orbit.shape[0] < 2:
            raise DataError("each orbit needs at least two codes")
    within = float(np.mean([orbit.var(axis=0).mean() for orbit in orbits]))
    means = np.stack([orbit.mean(axis=0) for orbit in orbits])
    between = float(means.var(axis=0).mean())
    if between < 1e-300:
        return 0.0 if within == 0.0 else float("inf")
    return within / between


# ---------------------------------------------------------------------------
# reports and export


@dataclass(frozen=True)
class QuadratureReport:
    """Per-pair quadrature fits for a trained filter bank."""

    pair_index: np.ndarray
    theta_hat: np.ndarray
    fit_r2: np.ndarray
    spectral_overlap: np.ndarray

    def summary_quantiles(self, quantiles=(0.25, 0.5, 0.75)):
        return {
            "fit_r2": {q: float(np.quantile(self.fit_r2, q)) for q in quantiles},
            "spectral_overlap": {
                q: float(np.quantile(self.spectral_overlap, q)) for q in quantiles
            },
        }

    def nontrivial(self, threshold=0.8, margin=0.1) -> np.ndarray:
        """Pairs that fit a rotation (``fit_r2 >= threshold``) by an angle at
        least ``margin`` away from 0 and pi.

        ``quadrature_pair_score(U, +-U)`` fits 1 for any U, invariant
        subspace or not, so only these pairs show a learned rotation.
        """
        angle = np.abs(self.theta_hat)
        return (
            (self.fit_r2 >= threshold) & (angle >= margin) & (angle <= np.pi - margin)
        )

    def rows(self):
        return list(
            zip(self.pair_index, self.theta_hat, self.fit_r2, self.spectral_overlap)
        )

    def write(self, path):
        write_csv(path, QUADRATURE_CSV_HEADER, self.rows())


def score_filter_bank_pairs(
    input_filters, output_filters, geometry: Optional[Tuple[int, int]] = None
) -> QuadratureReport:
    """Quadrature scores for every band-layout pair of a trained bank.

    Pair k is filter columns (2k, 2k+1); the u-side pair comes from
    ``input_filters``, the v-side from ``output_filters``.  The overlap
    column is the mean spectral overlap of matching columns.
    """
    u = np.asarray(input_filters, dtype=np.float64)
    v = np.asarray(output_filters, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError("filter banks differ in shape")
    even = u.shape[1] - u.shape[1] % 2  # an odd trailing column is not scored
    u_pairs, v_pairs = band_pairs(u[:, :even]), band_pairs(v[:, :even])
    theta, fit = quadrature_pair_score(u_pairs, v_pairs)
    overlap = spectral_overlap(u_pairs.transpose(0, 2, 1), v_pairs.transpose(0, 2, 1), geometry)
    return QuadratureReport(np.arange(theta.size), theta, fit, overlap.mean(axis=1))


def pair_rotation_invariance_score(pair, geometry):
    """How rotation-invariant a filter pair's joint power spectrum is.

    Rotation-subspace pairs have an angularly smeared joint spectrum that
    survives an exact quarter-turn of the grid; translation (Fourier) pairs
    concentrate on one frequency and do not.  Returns the cosine overlap of
    the pair's summed magnitude spectrum with its quarter-turn rotation: a
    float for one ``(dim, 2)`` pair, an array for a ``(k, dim, 2)`` stack.
    """
    pairs, single = _pair_stack(pair, "pair")
    width, height = geometry
    if width != height:
        raise DimensionError("rotation tagging needs square patches")
    filters = np.ascontiguousarray(pairs.transpose(0, 2, 1)).reshape(-1, 2, height, width)
    power = np.sum(np.abs(np.fft.fft2(filters)) ** 2, axis=1)
    turned = np.rot90(power, axes=(1, 2))
    # a quarter turn permutes the spectrum, so both have the same norm
    flat = power.reshape(power.shape[0], -1)
    norm = np.sqrt(_row_dots(flat, flat))
    score = np.sum(power * turned, axis=(1, 2)) / np.maximum(norm * norm, 1e-300)
    return float(score[0]) if single else score


def export_filter_grid(filters, geometry, path, n_columns=None) -> np.ndarray:
    """Tile filters into a PGM image, each scaled to [0, 255] independently.

    ``filters`` is (n_filters, dim) with dim = width*height; tiles are laid
    out left-to-right with 1-px black separators (and a border).  Constant
    filters map to mid-gray; DataError names the first non-finite filter.
    Returns the uint8 image that was written.
    """
    width, height = geometry
    filters = as_rows(filters, width * height, "filters")
    count = filters.shape[0]
    if n_columns is None:
        n_columns = int(np.ceil(np.sqrt(count)))
    n_rows = int(np.ceil(count / n_columns))
    low = filters.min(axis=1, keepdims=True)
    span = filters.max(axis=1, keepdims=True) - low
    flat = span < 1e-12
    scaled = np.where(flat, 128, np.round((filters - low) / np.where(flat, 1.0, span) * 255.0))
    # one cell per tile, its separator above and to the left
    cells = np.zeros((n_rows * n_columns, height + 1, width + 1), dtype=np.uint8)
    cells[:count, 1:, 1:] = scaled.astype(np.uint8).reshape(count, height, width)
    grid = cells.reshape(n_rows, n_columns, height + 1, width + 1).transpose(0, 2, 1, 3)
    image = np.pad(grid.reshape(n_rows * (height + 1), -1), ((0, 1), (0, 1)))
    write_pgm(path, image)
    return image
