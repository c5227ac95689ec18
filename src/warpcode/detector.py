"""Closed-form subspace rotation detectors and pooled transformation codes.

Each detector lives on one invariant subspace of a warp family and has a
preferred rotation angle theta.  Its response to a contrast-normalized pair
``(x, y)`` equals ``|p_x| * |p_y| * cos(phi_y - phi_x - theta)`` where
``p_x, p_y`` are the in-block projections: maximal exactly when ``y``'s
projection is ``x``'s rotated by theta.  Banks stack the rotated/plain
filters of many detectors into matrices, pool the per-detector products
within subspaces (band map ``P``) and across subspaces (map ``W``).
"""

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionError,
    MissingComponentError,
    NormalizationError,
    SharedSubspaceError,
)
from .patches import ImagePatch
from .storage import load_matrix, save_matrix
from .warp_algebra import SubspaceBlock, SubspaceDecomposition, wrap_angle

# Angles closer than this are treated as the same preferred angle.
ANGLE_MATCH_TOL = 1e-9

# Default in-block projection norm below which the relative angle is
# considered unrecoverable (on unit-norm contrast-normalized patches).
DEFAULT_APERTURE_FLOOR = 1e-3

# Default number of preferred angles per subspace, uniform on (-pi, pi].
DEFAULT_ANGLE_COUNT = 16


def _patch_values(patch, dim):
    values = patch.values if isinstance(patch, ImagePatch) else np.asarray(patch, float)
    if values.shape != (dim,):
        raise DimensionError(f"expected a length-{dim} patch, got shape {values.shape}")
    return values


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
    values = _patch_values(x, block.basis_real.size)
    return float(block.basis_real @ values), float(block.basis_imag @ values)


def rotated_filter_pair(block: SubspaceBlock, theta: float) -> tuple:
    """The block's basis pair rotated by ``theta`` within the subspace."""
    c, s = np.cos(theta), np.sin(theta)
    if block.basis_imag is None:
        return c * block.basis_real, None
    return (
        c * block.basis_real - s * block.basis_imag,
        s * block.basis_real + c * block.basis_imag,
    )


def subspace_angle_cos(
    block: SubspaceBlock, x, y, aperture_floor: float = DEFAULT_APERTURE_FLOOR
) -> Optional[float]:
    """Cosine of the in-block angle between the projections of x and y.

    Returns None when either projection norm falls below ``aperture_floor``:
    the relative angle is then unrecoverable (the aperture condition), and
    normalizing would manufacture an answer out of noise.
    """
    if aperture_floor <= 0:
        raise ValueError("aperture_floor must be positive")
    px = np.array(project(block, x))
    py = np.array(project(block, y))
    nx, ny = np.linalg.norm(px), np.linalg.norm(py)
    if nx < aperture_floor or ny < aperture_floor:
        return None
    return float(px @ py / (nx * ny))


def rotation_detector_response(block: SubspaceBlock, theta: float, x, y) -> float:
    """Response of the subspace rotation detector with preferred angle theta.

    Equals ``|p_x| |p_y| cos(phi_y - phi_x - theta)``; requires both patches
    contrast-normalized.
    """
    _require_normalized(x, y)
    xv = _patch_values(x, block.basis_real.size)
    yv = _patch_values(y, block.basis_real.size)
    rot_r, rot_i = rotated_filter_pair(block, theta)
    response = (block.basis_real @ yv) * (rot_r @ xv)
    if block.basis_imag is not None:
        response += (block.basis_imag @ yv) * (rot_i @ xv)
    return float(response)


def energy_detector_response(block: SubspaceBlock, theta: float, x, y) -> float:
    """Squared-sum response of the concatenated (energy) form of the detector.

    Identically equal to ``2 * rotation_detector_response + |p_x|^2 + |p_y|^2``.
    """
    _require_normalized(x, y)
    xv = _patch_values(x, block.basis_real.size)
    yv = _patch_values(y, block.basis_real.size)
    rot_r, rot_i = rotated_filter_pair(block, theta)
    total = ((block.basis_real @ yv) + (rot_r @ xv)) ** 2
    if block.basis_imag is not None:
        total += ((block.basis_imag @ yv) + (rot_i @ xv)) ** 2
    return float(total)


def sequence_detector_response(
    block: SubspaceBlock, theta: float, frames: Sequence, return_parts: bool = False
):
    """Energy detector over a frame sequence rotating by theta per frame.

    Frame ``s`` is filtered by the basis pair rotated by ``-theta * s`` (the
    conjugate phase), so the response peaks, at ``T^2 * |p_0|^2``, exactly
    when every frame's in-block coordinates advance by theta per step.  With
    two frames this reduces to ``energy_detector_response(block, theta,
    x=frames[0], y=frames[1])``.

    With ``return_parts`` the response is split as ``(total, quadratic,
    cross)`` where ``quadratic`` collects the per-frame squared projections.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise DimensionError("sequence detector needs at least two frames")
    dim = block.basis_real.size
    real_sum = 0.0
    imag_sum = 0.0
    quadratic = 0.0
    for s, frame in enumerate(frames):
        values = _patch_values(frame, dim)
        rot_r, rot_i = rotated_filter_pair(block, -theta * s)
        term_r = rot_r @ values
        real_sum += term_r
        quadratic += term_r * term_r
        if block.basis_imag is not None:
            term_i = rot_i @ values
            imag_sum += term_i
            quadratic += term_i * term_i
    total = float(real_sum**2 + imag_sum**2)
    if return_parts:
        return total, float(quadratic), float(total - quadratic)
    return total


# ---------------------------------------------------------------------------
# detector banks


@dataclass(frozen=True)
class DetectorBank:
    """Stacked filters for every (subspace, preferred angle) detector.

    ``input_filters`` holds the rotated filters applied to x, one or two
    columns per detector; ``output_filters`` the plain filters applied to y.
    ``within_pool`` (one row per detector) sums each detector's factor
    products; ``across_pool`` maps detector responses to pooled outputs.
    """

    blocks: tuple
    detector_block: np.ndarray  # block index per detector
    detector_angle: np.ndarray  # preferred angle per detector
    input_filters: np.ndarray  # d x n_factors
    output_filters: np.ndarray  # d x n_factors
    within_pool: np.ndarray  # n_detectors x n_factors
    across_pool: np.ndarray  # n_detectors x n_outputs

    @property
    def dim(self) -> int:
        return self.input_filters.shape[0]

    @property
    def n_detectors(self) -> int:
        return self.detector_angle.size

    def with_across_pool(self, across_pool: np.ndarray) -> "DetectorBank":
        across_pool = np.asarray(across_pool, dtype=np.float64)
        if across_pool.shape[0] != self.n_detectors:
            raise DimensionError(
                f"across_pool must have {self.n_detectors} rows, "
                f"got {across_pool.shape[0]}"
            )
        return replace(self, across_pool=across_pool)


@dataclass(frozen=True)
class DetectorResponse:
    """Per-detector responses and their across-subspace pooled code."""

    per_detector: np.ndarray
    pooled: np.ndarray


def _validate_shared_subspaces(decompositions, tol=1e-6):
    reference = decompositions[0]
    projectors = [b.projector() for b in reference.blocks]
    worst = 0.0
    for other in decompositions[1:]:
        if other.dim != reference.dim:
            raise DimensionError("warp family members have different dimensions")
        for block in other.blocks:
            vectors = [block.basis_real]
            if block.basis_imag is not None:
                vectors.append(block.basis_imag)
            for vec in vectors:
                best = min(
                    float(np.linalg.norm(vec - proj @ vec)) for proj in projectors
                )
                worst = max(worst, best)
    if worst > tol:
        raise SharedSubspaceError(worst)


def build_bank_from_warp_family(
    decompositions: Sequence[SubspaceDecomposition],
    theta_grid: Sequence[float],
    across_pool: Optional[np.ndarray] = None,
) -> DetectorBank:
    """One detector per (shared subspace, grid angle).

    All decompositions must share invariant subspaces (leakage <= 1e-6); the
    first one supplies the basis.  1-D subspaces only get detectors for grid
    angles 0 and pi, where no continuous rotation exists.  The default
    ``across_pool`` sums detectors of the same grid angle across subspaces,
    one pooled output per grid angle.
    """
    decompositions = list(decompositions)
    if not decompositions:
        raise ValueError("empty warp family")
    theta_grid = [float(t) for t in theta_grid]
    if not theta_grid:
        raise ValueError("empty preferred-angle grid")
    _validate_shared_subspaces(decompositions)

    blocks = decompositions[0].blocks
    det_block, det_angle, det_grid_index = [], [], []
    for block_index, block in enumerate(blocks):
        for grid_index, theta in enumerate(theta_grid):
            if block.basis_imag is None and not (
                abs(wrap_angle(theta)) <= ANGLE_MATCH_TOL
                or abs(abs(wrap_angle(theta)) - np.pi) <= ANGLE_MATCH_TOL
            ):
                continue
            det_block.append(block_index)
            det_angle.append(theta)
            det_grid_index.append(grid_index)
    if across_pool is None:
        across_pool = np.zeros((len(det_angle), len(theta_grid)))
        across_pool[np.arange(len(det_angle)), det_grid_index] = 1.0
    return _assemble_bank(blocks, det_block, det_angle, across_pool)


def _assemble_bank(blocks, detector_block, detector_angle, across_pool):
    """The bank of the detectors (block index, preferred angle) on ``blocks``.

    Each detector reads x through its block's basis pair rotated by its
    angle and y through the plain pair (one column each for a 1-D block);
    its row of the within pooling sums those factor products.
    """
    detector_block = np.asarray(detector_block, dtype=np.intp)
    detector_angle = np.array(detector_angle, dtype=np.float64)
    input_cols, output_cols, pool_rows = [], [], []
    for block_index, theta in zip(detector_block, detector_angle):
        block = blocks[block_index]
        rot_r, rot_i = rotated_filter_pair(block, theta)
        columns = [len(input_cols)]
        input_cols.append(rot_r)
        output_cols.append(block.basis_real)
        if block.basis_imag is not None:
            columns.append(len(input_cols))
            input_cols.append(rot_i)
            output_cols.append(block.basis_imag)
        pool_rows.append(columns)
    within = np.zeros((detector_angle.size, len(input_cols)))
    for row, columns in enumerate(pool_rows):
        within[row, columns] = 1.0
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
    """Per-detector responses and the pooled transformation code for a pair."""
    _require_normalized(x, y)
    xv = _patch_values(x, bank.dim)
    yv = _patch_values(y, bank.dim)
    factor_products = (bank.input_filters.T @ xv) * (bank.output_filters.T @ yv)
    per_detector = bank.within_pool @ factor_products
    pooled = bank.across_pool.T @ per_detector
    return DetectorResponse(per_detector=per_detector, pooled=pooled)


def batch_pooled_responses(bank: DetectorBank, xs: np.ndarray, ys: np.ndarray):
    """Vectorized ``pooled_code`` over rows of ``xs`` and ``ys``.

    Inputs are assumed contrast-normalized already (rows of shape (n, dim));
    returns ``(per_detector, pooled)`` arrays with one row per pair.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape[1] != bank.dim or ys.shape[1] != bank.dim:
        raise DimensionError("input rows do not match the bank dimension")
    factor_products = (xs @ bank.input_filters) * (ys @ bank.output_filters)
    per_detector = factor_products @ bank.within_pool.T
    pooled = per_detector @ bank.across_pool
    return per_detector, pooled


# ---------------------------------------------------------------------------
# serialization (WMAT container + block table)


def save_bank(bank: DetectorBank, directory) -> None:
    """Write a bank as WMAT matrices plus a block/detector table.

    Stored pieces: block bases (zero imaginary column for 1-D blocks), block
    angles and kinds, the detector table (block index, preferred angle), and
    the across pooling.  Filters and the within pooling are rebuilt
    deterministically on load.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dim = bank.dim
    n_blocks = len(bank.blocks)
    bases_real = np.zeros((dim, n_blocks))
    bases_imag = np.zeros((dim, n_blocks))
    block_table = np.zeros((n_blocks, 2))  # angle, is_two_dimensional
    for j, block in enumerate(bank.blocks):
        bases_real[:, j] = block.basis_real
        block_table[j, 0] = block.angle
        if block.basis_imag is not None:
            bases_imag[:, j] = block.basis_imag
            block_table[j, 1] = 1.0
    detector_table = np.stack(
        [bank.detector_block.astype(np.float64), bank.detector_angle], axis=1
    )
    save_matrix(directory / "bases_real.wmat", bases_real)
    save_matrix(directory / "bases_imag.wmat", bases_imag)
    save_matrix(directory / "block_table.wmat", block_table)
    save_matrix(directory / "detector_table.wmat", detector_table)
    save_matrix(directory / "across_pool.wmat", bank.across_pool)


def load_bank(directory) -> DetectorBank:
    directory = Path(directory)
    bases_real = load_matrix(directory / "bases_real.wmat")
    bases_imag = load_matrix(directory / "bases_imag.wmat")
    block_table = load_matrix(directory / "block_table.wmat")
    detector_table = load_matrix(directory / "detector_table.wmat")
    blocks = [
        SubspaceBlock(
            bases_real[:, j],
            bases_imag[:, j] if two_dim > 0.5 else None,
            float(angle),
        )
        for j, (angle, two_dim) in enumerate(block_table)
    ]
    return _assemble_bank(
        blocks,
        detector_table[:, 0],
        detector_table[:, 1],
        load_matrix(directory / "across_pool.wmat"),
    )
