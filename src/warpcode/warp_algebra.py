"""Orthogonal pixel-space warps and their invariant-subspace structure.

An orthogonal warp acts on each of its (at most two-dimensional) invariant
subspaces as a plane rotation.  This module constructs warps (cyclic shifts,
grid translations, patch rotations), splits them into those subspaces with
their rotation angles, and provides commutation / shared-subspace tests.

Angle convention, used everywhere downstream: a block with basis pair
``(basis_real, basis_imag)`` and angle ``theta`` satisfies

    coords(L @ x) == R(theta) @ coords(x)

where ``coords(x) = (basis_real . x, basis_imag . x)`` and ``R`` is the
counterclockwise plane rotation.  Flipping the sign of ``basis_imag`` flips
the sign of ``theta``, so angles are canonicalized to ``[0, pi]``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    DataError,
    DimensionError,
    OrthogonalityError,
    SingularWarpError,
)
from .patches import ImagePatch, _is_unit

# Orthogonality gate for the exact decomposition path.
EXACT_ORTHOGONALITY_TOL = 1e-6

# Tolerance for algebraic identities in double precision.
ALGEBRAIC_TOL = 1e-8

MIN_SHIFT_DIM = 2  # the least pixel count a cyclic shift moves


def gram_deviation(basis) -> float:
    """``max|A^T A - I|`` of a matrix ``A`` whose columns should be
    orthonormal; 0 for no columns."""
    return float(np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0))


def finite_angles(angles) -> np.ndarray:
    """``angles`` as a new float64 array; DataError naming a NaN or inf one."""
    angles = np.array(angles, dtype=np.float64)
    if not np.isfinite(angles).all():
        raise DataError(f"rotation angle {angles[~np.isfinite(angles)][0]} is not finite")
    return angles


def wrap_angle(angle):
    """Map an angle to the interval (-pi, pi], elementwise on an array; a
    scalar comes back as a float."""
    wrapped = np.arctan2(np.sin(angle), np.cos(angle))
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


# ---------------------------------------------------------------------------
# warp matrices


@dataclass(frozen=True)
class WarpMatrix:
    """A dense square warp with its measured orthogonality defect.

    ``orthogonality_residual`` is ``max|L^T L - I|``; it is computed by the
    constructors, never assumed.  DataError for a NaN or infinite entry.
    """

    entries: np.ndarray
    orthogonality_residual: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"warp must be square, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise DataError("warp entries hold a NaN or an infinity")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries) -> "WarpMatrix":
        warp = cls(entries, 0.0)  # checks the shape and the entries first
        return cls(warp.entries, gram_deviation(warp.entries))


def _unit_image_warp(operator, height: int, width: int, parameter) -> WarpMatrix:
    """Column ``j`` is the ``j``-th unit image of a ``height x width`` patch
    under ``operator(stack, parameter)``, all ``d`` moved as one stack."""
    d = height * width
    columns = operator(np.eye(d).reshape(d, height, width), parameter)
    return WarpMatrix.from_entries(np.ascontiguousarray(columns.reshape(d, d).T))


def shift_stack(images: np.ndarray, offsets) -> np.ndarray:
    """Shift each image of an ``(n, height, width)`` stack cyclically by an
    integer ``(dx, dy)``, one pair for the stack or one per image: pixel
    ``(r, c)`` moves to ``((r + dy) mod height, (c + dx) mod width)``, by
    one index gather (one ``np.take`` for one pair); DataError for a non-integer offset."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise DimensionError(f"shift_stack expects an (n, h, w) stack, got {images.shape}")
    n, height, width = images.shape
    offsets = np.asarray(offsets)
    if not n:  # nothing to shift; rotate_stack passes an empty stack too
        return images.copy()
    if offsets.dtype.kind not in "iu":
        raise DataError(f"shift offsets must be integers, got dtype {offsets.dtype}")
    if offsets.shape not in ((2,), (n, 2)):
        raise DimensionError(f"{n} images need 1 or {n} (dx, dy) pairs, got shape {offsets.shape}")
    dx, dy = np.moveaxis(offsets.astype(np.int64), -1, 0)[..., None]
    row, col = np.divmod(np.arange(height * width), width)
    source = (row - dy) % height * width + (col - dx) % width
    flat = images.reshape(n, height * width)
    if offsets.ndim == 1:
        return np.take(flat, source, axis=1).reshape(images.shape)
    return np.take_along_axis(flat, source, axis=1).reshape(images.shape)


def make_cyclic_shift(n: int, s: int) -> WarpMatrix:
    """Permutation warp mapping index ``i`` to ``(i + s) mod n``: a ``1 x n``
    image shifted by ``(s, 0)``."""
    if n < MIN_SHIFT_DIM:
        raise DimensionError(f"cyclic shift needs dimension >= {MIN_SHIFT_DIM}, got {n}")
    return _unit_image_warp(shift_stack, 1, n, (s, 0))


def make_translation_warp(width: int, height: int, dx: int, dy: int) -> WarpMatrix:
    """Permutation warp translating a ``height x width`` patch with wrap-around,
    :func:`shift_stack` by ``(dx, dy)`` as a matrix."""
    if width < 2 or height < 2:
        raise DimensionError("translation warp needs width, height >= 2")
    return _unit_image_warp(shift_stack, height, width, (dx, dy))


# --- rotation warps --------------------------------------------------------
#
# A patch rotation is built from exact quarter-turn permutations plus three
# shears, each shear being a bank of circular fractional translations applied
# with Fourier (sinc) interpolation.  Every factor is orthogonal, so the
# composite is orthogonal to machine precision; plain 4-tap bilinear sampling
# cannot get the residual below ~0.5 because adjacent rows at half-pixel
# offsets are strongly correlated.

# Images per FFT batch in ``rotate_stack``: bounds the complex spectra and
# phase tables one call holds at once, so rotating a large stack costs no
# more peak memory than rotating 128 images.
ROTATE_BLOCK = 128


def _shear_phase(shifts: np.ndarray, n: int) -> np.ndarray:
    """Fourier phases shifting row ``i`` of an ``n``-wide image by
    ``shifts[..., i]``, for any leading stack axes."""
    freqs = np.fft.fftfreq(n) * n
    phase = np.exp(-2j * np.pi * freqs * shifts[..., None] / n)
    if n % 2 == 0:
        # The Nyquist bin must stay real; +-1 keeps each shear orthogonal.
        phase[..., n // 2] = np.where(np.cos(np.pi * shifts) >= 0.0, 1.0, -1.0)
    return phase


def _shear_rows(images: np.ndarray, phase: np.ndarray) -> np.ndarray:
    spectrum = np.fft.fft(images, axis=-1)
    # The product gets its own buffer.  Written as ``phase * fft(...)``,
    # numpy reuses a temporary spectrum above 256 KiB as the output and
    # computes ``spectrum * phase`` there; the complex multiply is not
    # commutative bit for bit, so results would depend on the stack size.
    shifted = np.multiply(phase, spectrum, out=np.empty_like(spectrum))
    return np.fft.ifft(shifted, axis=-1).real


def _shear_rotate(images: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Three shears turning each ``(height, width)`` image of a stack by its
    ``residual`` angle; the first and third shears share the row table."""
    _, height, width = images.shape
    # Signs account for the row index growing downward while the display y
    # axis grows upward; positive angles rotate counterclockwise.
    row_shifts = np.tan(residual / 2.0)[:, None] * (np.arange(height) - (height - 1) / 2.0)
    col_shifts = -np.sin(residual)[:, None] * (np.arange(width) - (width - 1) / 2.0)
    row_phase = _shear_phase(row_shifts, width)
    out = _shear_rows(images, row_phase)
    # The column shear is a row shear of the transpose.
    out = _shear_rows(out.transpose(0, 2, 1), _shear_phase(col_shifts, height))
    out = np.ascontiguousarray(out.transpose(0, 2, 1))
    return _shear_rows(out, row_phase)


def rotate_stack(images: np.ndarray, angles) -> np.ndarray:
    """Rotate each image of an ``(n, height, width)`` stack counterclockwise
    about its center by its own angle (one angle per image).

    Each image is first turned by the nearest multiple of 90 degrees, an
    exact ``rot90`` per class of equal turns, then sheared by the residual
    angle in blocks of ``ROTATE_BLOCK`` images, one FFT, multiply and
    inverse FFT per shear and block.  Images whose residual is 0 are not
    sheared.  Every image comes out bit for bit as it does rotated alone.
    Non-square images only turn by angles up to pi/4.  DataError for a NaN or inf angle.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise DimensionError(f"rotate_stack expects an (n, h, w) stack, got {images.shape}")
    n, height, width = images.shape
    folded = np.atleast_1d(wrap_angle(finite_angles(angles)))
    if folded.shape != (n,):
        raise DimensionError(f"{n} images need {n} angles, got shape {folded.shape}")
    if width == height:
        turns = np.round(folded / (np.pi / 2.0))
        residual = folded - turns * np.pi / 2.0
    else:
        if (np.abs(folded) > np.pi / 4.0 + 1e-12).any():
            raise DimensionError(
                "non-square patches only support rotation angles up to pi/4"
            )
        turns, residual = np.zeros(n), folded
    out = np.empty_like(images)
    for k in np.unique(turns):
        chosen = turns == k
        out[chosen] = np.rot90(images[chosen], int(k), axes=(1, 2))
    moving = np.flatnonzero(residual != 0.0)
    for start in range(0, len(moving), ROTATE_BLOCK):
        block = moving[start : start + ROTATE_BLOCK]
        out[block] = _shear_rotate(out[block], residual[block])
    return out


def rotate_image(image: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a 2-D image counterclockwise about its center: a stack of one
    through :func:`rotate_stack`, the operator of :func:`make_rotation_warp`
    without materializing the matrix."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError("rotate_image expects a 2-D array")
    return rotate_stack(image[None], [angle])[0]


def make_rotation_warp(width: int, height: int, angle: float) -> WarpMatrix:
    """Rotation of a ``height x width`` patch about its center, counterclockwise.

    Built from exact quarter-turn permutations plus three Fourier-interpolated
    shears, so the warp is orthogonal to machine precision and multiples of
    90 degrees reduce to exact pixel permutations.  Content near the corners
    wraps around shear-wise instead of being cropped.  Column ``j`` is the
    ``j``-th unit image rotated; all ``d`` are rotated as one stack.
    """
    if width < 3 or height < 3:
        raise DimensionError("rotation warp needs width, height >= 3")
    return _unit_image_warp(rotate_stack, height, width, np.full(width * height, angle))


def apply_warp(warp: WarpMatrix, patch: ImagePatch) -> ImagePatch:
    """Apply ``warp`` to a patch.  Normalization survives only when the warp
    is orthogonal to machine precision and the result still passes the check."""
    if patch.dim != warp.dim:
        raise DimensionError(
            f"warp dim {warp.dim} does not match patch dim {patch.dim}"
        )
    values = warp.entries @ patch.values
    keeps_normalization = (
        patch.normalized
        and warp.orthogonality_residual <= 1e-12
        and _is_unit(values.mean(), np.linalg.norm(values))
    )
    return ImagePatch(values, normalized=bool(keeps_normalization))


# ---------------------------------------------------------------------------
# invariant-subspace decomposition


@dataclass(frozen=True)
class SubspaceBlock:
    """One invariant subspace: a unit basis pair (or single vector) + angle.

    Two-dimensional blocks carry an angle in (0, pi); one-dimensional blocks
    (real eigenvalue +-1) carry angle 0 or pi and no ``basis_imag``.
    """

    basis_real: np.ndarray
    basis_imag: Optional[np.ndarray]
    angle: float

    def __post_init__(self):
        br = np.asarray(self.basis_real, dtype=np.float64).reshape(-1)
        br.flags.writeable = False
        object.__setattr__(self, "basis_real", br)
        if self.basis_imag is not None:
            bi = np.asarray(self.basis_imag, dtype=np.float64).reshape(-1)
            bi.flags.writeable = False
            object.__setattr__(self, "basis_imag", bi)

    @property
    def is_two_dimensional(self) -> bool:
        return self.basis_imag is not None

    @property
    def basis(self) -> tuple:
        """The basis vectors: ``basis_real``, then ``basis_imag`` if any."""
        return tuple(v for v in (self.basis_real, self.basis_imag) if v is not None)

    @property
    def block_dim(self) -> int:
        return len(self.basis)

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the block's subspace."""
        return sum(np.outer(vec, vec) for vec in self.basis)

    def rotated_basis(self, theta: float) -> tuple:
        """The basis rotated by ``theta`` in the subspace, ``(c b_r - s b_i,
        s b_r + c b_i)`` or ``(c b_r,)``; at ``-angle``, the warp's image.
        DataError for a NaN or infinite ``theta``, which would give NaN filters."""
        finite_angles(theta)
        c, s = np.cos(theta), np.sin(theta)
        if self.basis_imag is None:
            # not c b_r - s 0, which flips the sign of -0 entries at -pi
            return (c * self.basis_real,)
        return (
            c * self.basis_real - s * self.basis_imag,
            s * self.basis_real + c * self.basis_imag,
        )

    def leakage(self, vector) -> float:
        """``|v - sum_k b_k (b_k . v)|``, the part of ``vector`` outside the
        block; not ``sqrt(|v|^2 - |B^T v|^2)``, which cancels to about 1e-8."""
        residual = vector - sum(vec * (vec @ vector) for vec in self.basis)
        return float(np.linalg.norm(residual))

    def rotation(self) -> np.ndarray:
        """The warp's action restricted to this block, as a dense matrix."""
        return np.stack(self.rotated_basis(-self.angle), axis=1) @ np.stack(self.basis)


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Real block form of an orthogonal warp.

    ``approximation_residual`` is nonzero only when the decomposition came
    from the polar factor of a not-exactly-orthogonal warp; it records
    ``max|L - polar(L)|``.
    """

    blocks: tuple
    dim: int
    approximation_residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        total = sum(b.block_dim for b in self.blocks)
        if total != self.dim:
            raise DimensionError(
                f"block dimensions sum to {total}, expected {self.dim}"
            )
        gram_dev = gram_deviation(self.basis_matrix())
        if gram_dev > ALGEBRAIC_TOL:
            raise OrthogonalityError(
                f"decomposition basis is not orthonormal (deviation {gram_dev:.3g})"
            )

    def basis_matrix(self) -> np.ndarray:
        """All basis vectors as columns, in block order."""
        return np.stack([vec for b in self.blocks for vec in b.basis], axis=1)

    def two_dimensional_blocks(self) -> tuple:
        return tuple(b for b in self.blocks if b.is_two_dimensional)

    def angles(self) -> np.ndarray:
        return np.array([b.angle for b in self.blocks])

    def assemble(self) -> np.ndarray:
        """Reassemble the warp from its blocks: the images of all basis
        vectors, as columns, times the basis transposed."""
        images = [vec for b in self.blocks for vec in b.rotated_basis(-b.angle)]
        return np.stack(images, axis=1) @ self.basis_matrix().T


def _blocks_from_schur(entries: np.ndarray) -> list:
    """Extract canonical subspace blocks from a real Schur form."""
    form, vectors = scipy.linalg.schur(entries, output="real")
    n = entries.shape[0]
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and abs(form[i + 1, i]) > 1e-9:
            sub = form[i : i + 2, i : i + 2]
            angle = float(
                np.arctan2(sub[1, 0] - sub[0, 1], sub[0, 0] + sub[1, 1])
            )
            basis_real = vectors[:, i].copy()
            basis_imag = vectors[:, i + 1].copy()
            if angle < 0.0:
                basis_imag = -basis_imag
                angle = -angle
            blocks.append(SubspaceBlock(basis_real, basis_imag, angle))
            i += 2
        else:
            angle = 0.0 if form[i, i] > 0.0 else float(np.pi)
            blocks.append(SubspaceBlock(vectors[:, i].copy(), None, angle))
            i += 1
    blocks.sort(key=lambda b: abs(b.angle))
    return blocks


def decompose(warp: WarpMatrix) -> SubspaceDecomposition:
    """Split an (exactly) orthogonal warp into invariant subspaces.

    Requires ``orthogonality_residual < EXACT_ORTHOGONALITY_TOL``; route
    anything rougher through :func:`decompose_approx`.
    """
    if warp.orthogonality_residual >= EXACT_ORTHOGONALITY_TOL:
        raise OrthogonalityError(
            f"warp has orthogonality residual {warp.orthogonality_residual:.3g} "
            f">= {EXACT_ORTHOGONALITY_TOL:g}; use decompose_approx"
        )
    blocks = _blocks_from_schur(warp.entries)
    decomposition = SubspaceDecomposition(blocks, warp.dim)
    recon_err = float(np.abs(decomposition.assemble() - warp.entries).max())
    if recon_err > ALGEBRAIC_TOL and warp.orthogonality_residual <= 1e-10:
        raise OrthogonalityError(
            f"block form fails to reproduce the warp (max error {recon_err:.3g})"
        )
    return decomposition


def polar_factor(entries: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix in Frobenius norm."""
    u, singular, vt = np.linalg.svd(entries)
    if singular.min() < 1e-10 * max(singular.max(), 1.0):
        raise SingularWarpError(
            f"warp is rank-deficient (smallest singular value {singular.min():.3g})"
        )
    return u @ vt


def decompose_approx(warp: WarpMatrix) -> SubspaceDecomposition:
    """Decompose the orthogonal polar factor of a near-orthogonal warp.

    The returned decomposition carries ``approximation_residual =
    max|L - polar(L)|`` so callers can see how far the warp was from
    orthogonal.
    """
    if warp.dim < 2:
        raise DimensionError("decomposition needs dimension >= 2")
    orthogonal = polar_factor(warp.entries)
    gap = float(np.abs(warp.entries - orthogonal).max())
    blocks = _blocks_from_schur(orthogonal)
    return SubspaceDecomposition(blocks, warp.dim, approximation_residual=gap)


# ---------------------------------------------------------------------------
# commutation and shared subspaces


def commutation_residual(a: WarpMatrix, b: WarpMatrix) -> float:
    """``max|AB - BA|``; zero iff the warps commute."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.abs(a.entries @ b.entries - b.entries @ a.entries).max())


@dataclass(frozen=True)
class AlignmentReport:
    """Leakage of one warp's action out of another's invariant subspaces."""

    block_leakage: np.ndarray
    max_leakage: float


def shared_subspace_alignment(a: WarpMatrix, b: WarpMatrix) -> AlignmentReport:
    """How well ``b`` preserves the 2-D invariant subspaces of ``a``.

    For each two-dimensional block of ``decompose(a)``, measures the norm of
    the component of ``b @ basis`` falling outside the block.  A warp that
    commutes with ``a`` gives (numerically) zero leakage when ``a`` has no
    repeated angle.  Where an angle repeats, its planes are an arbitrary
    choice within the eigenspace, and commuting warps need not keep them:
    the 13x13 translations by (1, 0) and (0, 1) commute, yet each splits
    into 91 blocks with 7 distinct angles, and the leakage is 1.0 both ways.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for warp in (a, b):
        if warp.orthogonality_residual >= EXACT_ORTHOGONALITY_TOL:
            raise OrthogonalityError(
                f"alignment requires orthogonal warps "
                f"(residual {warp.orthogonality_residual:.3g})"
            )
    blocks = decompose(a).two_dimensional_blocks()
    leakages = np.array([max(k.leakage(b.entries @ v) for v in k.basis) for k in blocks])
    max_leak = float(leakages.max()) if leakages.size else 0.0
    return AlignmentReport(leakages, max_leak)
