"""Closed-form subspace rotation detectors and pooled transformation codes.

Each detector lives on one invariant subspace of a warp family and has a
preferred rotation angle theta.  Its response to a contrast-normalized pair
``(x, y)`` equals ``|p_x| * |p_y| * cos(phi_y - phi_x - theta)`` where
``p_x, p_y`` are the in-block projections: maximal exactly when ``y``'s
projection is ``x``'s rotated by theta.  That response is ``cos(theta)
(p_x . p_y) + sin(theta) (p_x x p_y)``, a fixed mix of two quadrature
quantities of the block, so the detectors are steerable (Freeman & Adelson
1991): a bank computes the four products behind those two quantities once
per subspace, mixes them into every detector's response (band map ``P``)
and pools the responses across subspaces (map ``W``).
"""

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    FormatError,
    MissingComponentError,
    NormalizationError,
    SharedSubspaceError,
)
from .model import pooled_products
from .patches import ImagePatch, as_row, as_rows
from .storage import load_matrix, save_matrix
from .warp_algebra import (
    ALGEBRAIC_TOL,
    SubspaceBlock,
    SubspaceDecomposition,
    WarpMatrix,
    commutation_residual,
    finite_angles,
    gram_deviation,
    wrap_angle,
)

# Angles closer than this are treated as the same preferred angle.
ANGLE_MATCH_TOL = 1e-9

# Default in-block projection norm below which the relative angle is
# considered unrecoverable (on unit-norm contrast-normalized patches).
DEFAULT_APERTURE_FLOOR = 1e-3

SHARED_SUBSPACE_TOL = 1e-6  # largest commutation residual or leakage of a shared family

def _require_normalized(*patches):
    # Degenerate (zero) patches pass: they carry no contrast to normalize
    # and produce zero projections everywhere.
    for patch in patches:
        if not isinstance(patch, ImagePatch) or not (patch.normalized or patch.degenerate):
            raise NormalizationError(
                "detector responses require contrast-normalized ImagePatch inputs"
            )


def project(block: SubspaceBlock, x) -> tuple:
    """Coordinates of ``x`` in the block's basis pair.

    One-dimensional blocks have no imaginary component to project on.
    """
    if block.basis_imag is None:
        raise MissingComponentError(
            "1-D subspace has no imaginary basis component to project on"
        )
    values = as_row(x, block.basis_real.size, "x")
    return float(block.basis_real @ values), float(block.basis_imag @ values)


def subspace_angle_cos(
    block: SubspaceBlock, x, y, aperture_floor: float = DEFAULT_APERTURE_FLOOR
) -> Optional[float]:
    """Cosine of the in-block angle between the projections of x and y.

    Returns None when either projection norm falls below ``aperture_floor``:
    the relative angle is then unrecoverable (the aperture condition), and
    normalizing would manufacture an answer out of noise.  A NaN floor, which
    no norm falls below, raises DataError.
    """
    if np.isnan(aperture_floor):
        raise DataError("aperture_floor is NaN")
    if aperture_floor <= 0:
        raise ValueError("aperture_floor must be positive")
    px = np.array(project(block, x))
    py = np.array(project(block, y))
    nx, ny = np.linalg.norm(px), np.linalg.norm(py)
    if nx < aperture_floor or ny < aperture_floor:
        return None
    return float(px @ py / (nx * ny))


def rotation_detector_response(block: SubspaceBlock, theta: float, x, y) -> float:
    """Response of the subspace rotation detector with preferred angle theta:
    ``pooled_code`` of the bank that holds this one detector.

    Equals ``|p_x| |p_y| cos(phi_y - phi_x - theta)``; requires both patches
    contrast-normalized.
    """
    bank = _assemble_bank([block], [0], [theta], np.ones((1, 1)))
    return float(pooled_code(bank, x, y).per_detector[0])


def _frame_energy(block: SubspaceBlock, rows, bases):
    """The multi-frame energy on a block, frame s (``rows[s]``) filtered by
    ``bases[s]``, the basis at its angle: the sum over basis vectors of the
    squared sum over frames, and the sum of the squared responses."""
    sums = [0.0] * block.block_dim
    quadratic = 0.0
    for row, basis in zip(rows, bases):
        for k, vector in enumerate(basis):
            term = vector @ row
            sums[k] += term
            quadratic += term * term
    return float(sum(part * part for part in sums)), float(quadratic)


def energy_detector_response(block: SubspaceBlock, theta: float, x, y) -> float:
    """Squared-sum response of the concatenated (energy) form of the detector:
    the multi-frame energy of (x, y) at frame angles (theta, 0).

    Identically equal to ``2 * rotation_detector_response + |p_x|^2 + |p_y|^2``.
    """
    _require_normalized(x, y)
    rows = [as_row(x, block.basis_real.size, "x"), as_row(y, block.basis_real.size, "y")]
    return _frame_energy(block, rows, [block.rotated_basis(theta), block.basis])[0]


def sequence_detector_response(
    block: SubspaceBlock, theta: float, frames: Sequence, return_parts: bool = False
):
    """Energy detector over a frame sequence rotating by theta per frame: the
    multi-frame energy at frame angles (0, -theta, -2 theta, ...).

    Frame ``s`` is filtered by the basis pair rotated by ``-theta * s`` (the
    conjugate phase), so the response peaks, at ``T^2 * |p_0|^2``, exactly
    when every frame's in-block coordinates advance by theta per step.  On a
    2-D block, two frames give ``energy_detector_response(block, theta,
    x=frames[0], y=frames[1])``, whose angles (theta, 0) are these (0, -theta)
    turned by theta, which no 2-D block's energy sees.  On a 1-D block the two
    read ``(p_x + cos(theta) p_y)^2`` and ``(cos(theta) p_x + p_y)^2``, which
    agree at theta 0 and pi but not in general.

    With ``return_parts`` the response is split as ``(total, quadratic,
    cross)`` where ``quadratic`` collects the per-frame squared projections.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise DimensionError("sequence detector needs at least two frames")
    rows = (as_row(frame, block.basis_real.size, f"frame {s}") for s, frame in enumerate(frames))
    bases = (block.rotated_basis(-theta * s) for s in range(len(frames)))
    total, quadratic = _frame_energy(block, rows, bases)
    return (total, quadratic, total - quadratic) if return_parts else total


# ---------------------------------------------------------------------------
# detector banks


@dataclass(frozen=True)
class DetectorBank:
    """The steered filters of every (subspace, preferred angle) detector.

    ``input_filters`` (applied to x) and ``output_filters`` (applied to y)
    hold one column per factor, four per 2-D block, ``(b_r, b_i, b_r, b_i)``
    and ``(b_r, b_i, b_i, b_r)``, and one per 1-D block, ``b_r`` on both
    sides.  ``within_pool`` (P, one column per detector) mixes its block's
    factor products with ``(cos, cos, sin, -sin)`` of its angle, or ``cos``
    on a 1-D block; ``across_pool`` (W) maps detector responses to pooled
    outputs.  A detector's own rotated filters are ``block.rotated_basis(angle)``.
    """

    blocks: tuple
    detector_block: np.ndarray  # block index per detector
    detector_angle: np.ndarray  # preferred angle per detector
    input_filters: np.ndarray  # d x n_factors
    output_filters: np.ndarray  # d x n_factors
    within_pool: np.ndarray  # n_factors x n_detectors
    across_pool: np.ndarray  # n_detectors x n_outputs

    @property
    def dim(self) -> int:
        return self.input_filters.shape[0]

    @property
    def n_detectors(self) -> int:
        return self.detector_angle.size

    def with_across_pool(self, across_pool: np.ndarray) -> "DetectorBank":
        across_pool = np.asarray(across_pool, dtype=np.float64)
        if across_pool.ndim != 2 or across_pool.shape[0] != self.n_detectors:
            raise DimensionError(
                f"across_pool must be 2-D with {self.n_detectors} rows, "
                f"got shape {across_pool.shape}"
            )
        if not np.isfinite(across_pool).all():
            raise DataError("across_pool holds non-finite values")
        return replace(self, across_pool=across_pool)


@dataclass(frozen=True)
class DetectorResponse:
    """Per-detector responses and their across-subspace pooled code."""

    per_detector: np.ndarray
    pooled: np.ndarray


def _check_shared_subspaces(decompositions):
    """SharedSubspaceError unless each later member commutes with the first
    and maps each block of the first into itself; neither suffices alone."""
    first = decompositions[0]
    worst = 0.0
    for other in decompositions[1:]:
        a, b = (WarpMatrix.from_entries(d.assemble()) for d in (first, other))
        residual = commutation_residual(a, b)  # DimensionError if sizes differ
        leakage = max(k.leakage(b.entries @ v) for k in first.blocks for v in k.basis)
        worst = max(worst, residual, leakage)
    if worst > SHARED_SUBSPACE_TOL:
        raise SharedSubspaceError(worst)


def build_bank_from_warp_family(
    decompositions: Sequence[SubspaceDecomposition],
    theta_grid: Sequence[float],
) -> DetectorBank:
    """One detector per (shared subspace, grid angle).

    The first decomposition supplies the subspaces and should have distinct
    angles, since a repeated angle's planes are arbitrary.  Every later one
    must commute with it and map each of its subspaces into itself (leakage
    <= 1e-6).  1-D subspaces only get detectors for grid angles 0 and pi,
    where no continuous rotation exists.  ``across_pool`` sums detectors of
    the same grid angle across subspaces, one pooled output per grid angle;
    ``DetectorBank.with_across_pool`` replaces it.
    """
    decompositions = list(decompositions)
    if not decompositions:
        raise ValueError("empty warp family")
    theta_grid = finite_angles(theta_grid)
    if not theta_grid.size:
        raise ValueError("empty preferred-angle grid")
    _check_shared_subspaces(decompositions)

    blocks = decompositions[0].blocks
    two_dim = np.array([block.is_two_dimensional for block in blocks])
    # block-major: each block's detectors in grid order
    det_block, det_grid = np.nonzero(two_dim[:, None] | _on_real_axis(theta_grid))
    across_pool = np.zeros((det_block.size, theta_grid.size))
    across_pool[np.arange(det_block.size), det_grid] = 1.0
    return _assemble_bank(blocks, det_block, theta_grid[det_grid], across_pool)


def _on_real_axis(theta):
    """Whether ``theta`` is 0 or pi, the only angles a 1-D block turns by;
    elementwise on an array."""
    wrapped = np.abs(wrap_angle(theta))
    return (wrapped <= ANGLE_MATCH_TOL) | (abs(wrapped - np.pi) <= ANGLE_MATCH_TOL)


def _assemble_bank(blocks, detector_block, detector_angle, across_pool):
    """The steered bank of the detectors (block index, preferred angle) on
    ``blocks``.

    A 2-D block's four factor products are ``x_r y_r, x_i y_i, x_r y_i,
    x_i y_r`` (``x_r = b_r . x``), so the column ``(c, c, s, -s)`` gives ``c
    (p_x . p_y) + s (p_x x p_y)``, the response of x's basis pair rotated
    by theta against y's plain pair; a 1-D block's one product gets ``c``.
    """
    detector_block = np.asarray(detector_block, dtype=np.intp)
    detector_angle = finite_angles(detector_angle)  # a NaN would give a NaN code
    input_cols, output_cols, first_factor = [], [], [0]
    for block in blocks:
        width = block.block_dim**2  # four factors, or one on a 1-D block
        input_cols += (block.basis * 2)[:width]
        output_cols += (block.basis + block.basis[::-1])[:width]
        first_factor.append(len(input_cols))
    c, s = np.cos(detector_angle), np.sin(detector_angle)
    mix = np.stack([c, c, s, -s], axis=1)
    within = np.zeros((len(input_cols), detector_angle.size))
    for detector, index in enumerate(detector_block):
        first, end = first_factor[index], first_factor[index + 1]
        within[first:end, detector] = mix[detector, : end - first]
    bank = DetectorBank(
        blocks=tuple(blocks),
        detector_block=detector_block,
        detector_angle=detector_angle,
        input_filters=np.stack(input_cols, axis=1),
        output_filters=np.stack(output_cols, axis=1),
        within_pool=within,
        across_pool=None,
    )
    return bank.with_across_pool(across_pool)  # checks the row count


def pooled_code(bank: DetectorBank, x, y) -> DetectorResponse:
    """Per-detector responses and the pooled transformation code for a pair:
    the one-row case of ``batch_pooled_responses``."""
    _require_normalized(x, y)
    per_detector, pooled = batch_pooled_responses(bank, x, y)
    return DetectorResponse(per_detector=per_detector[0], pooled=pooled[0])


def batch_pooled_responses(bank: DetectorBank, xs: np.ndarray, ys: np.ndarray):
    """Detector responses and pooled codes for the row pairs of ``xs``, ``ys``.

    The per-detector responses are a gated model's pooled products
    (``model.pooled_products``) with the bank's filters and P =
    ``within_pool``; ``across_pool`` maps them to the pooled code.
    Inputs are assumed contrast-normalized already (rows of shape (n, dim),
    read by ``patches.as_rows``); returns ``(per_detector, pooled)`` arrays
    with one row per pair.
    """
    xs, ys = as_rows(xs, bank.dim, "xs"), as_rows(ys, bank.dim, "ys")
    per_detector = pooled_products(bank, xs, ys)
    pooled = per_detector @ bank.across_pool
    return per_detector, pooled


# ---------------------------------------------------------------------------
# serialization (WMAT container + block table)


BANK_FILES = ("bases_real", "bases_imag", "block_table", "detector_table", "across_pool")


def save_bank(bank: DetectorBank, directory) -> None:
    """Write a bank as one WMAT matrix ``<name>.wmat`` per ``BANK_FILES``
    entry: block bases (a zero imaginary column for a 1-D block), block
    angles and kinds, the detector table (block index, preferred angle) and
    the across pooling.  Filters and within pooling are rebuilt on load."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blocks, zero = bank.blocks, np.zeros(bank.dim)
    imag = [zero if b.basis_imag is None else b.basis_imag for b in blocks]
    tables = (
        np.stack([b.basis_real for b in blocks], axis=1),
        np.stack(imag, axis=1),
        np.array([(b.angle, b.is_two_dimensional) for b in blocks], dtype=np.float64),
        np.stack([bank.detector_block.astype(np.float64), bank.detector_angle], axis=1),
        bank.across_pool,
    )
    for name, table in zip(BANK_FILES, tables):
        save_matrix(directory / f"{name}.wmat", table)


def load_bank(directory) -> DetectorBank:
    """Read a bank that ``save_bank`` wrote.

    FormatError, naming the file, unless every entry is finite (checked by
    ``load_matrix``), the files agree in shape, each kind flag is 0 or 1,
    the block bases are orthonormal (they need not span the whole space)
    and every detector names one of the blocks by index, with an angle
    that block can turn by.
    """
    tables = [load_matrix(Path(directory) / f"{name}.wmat") for name in BANK_FILES]
    bases_real, bases_imag, block_table, detector_table, across_pool = tables
    (dim, n_blocks), n_detectors = bases_real.shape, len(detector_table)
    shapes = [(dim, n_blocks)] * 2 + [(n_blocks, 2), (n_detectors, 2)]
    shapes.append((n_detectors, across_pool.shape[1]))
    for name, table, shape in zip(BANK_FILES, tables, shapes):
        if table.shape != shape:
            raise FormatError(f"{name}.wmat has shape {table.shape}, expected {shape}")
    kinds = block_table[:, 1]
    bad = np.flatnonzero((kinds != 0.0) & (kinds != 1.0))
    if bad.size:
        raise FormatError(
            f"block_table.wmat row {bad[0]}: kind flag {kinds[bad[0]]:g} is not 0 or 1"
        )
    basis = np.concatenate([bases_real, bases_imag[:, kinds == 1.0]], axis=1)
    deviation = gram_deviation(basis)
    if deviation > ALGEBRAIC_TOL:
        raise FormatError(
            f"bases_real.wmat, bases_imag.wmat: block bases are not orthonormal "
            f"(deviation {deviation:.3g})"
        )
    blocks = [
        SubspaceBlock(bases_real[:, j], bases_imag[:, j] if two_dim else None, angle)
        for j, (angle, two_dim) in enumerate(block_table.tolist())
    ]
    for row, (index, theta) in enumerate(detector_table.tolist()):
        where = f"detector_table.wmat row {row}"
        if not (index.is_integer() and 0 <= index < n_blocks):
            raise FormatError(
                f"{where}: block index {index!r} is not one of the {n_blocks} blocks"
            )
        if not blocks[int(index)].is_two_dimensional and not _on_real_axis(theta):
            raise FormatError(
                f"{where}: 1-D block {int(index)} has preferred angle "
                f"{theta!r}, not 0 or pi"
            )
    return _assemble_bank(blocks, *detector_table.T, across_pool)
