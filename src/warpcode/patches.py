"""Image patches as flat vectors with explicit contrast-normalization state,
and ``as_rows``, the one gate through which image and feature rows enter the
models, detectors and classifiers."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError

# A patch is "normalized" when its mean is zero and its L2 norm is one.
NORMALIZATION_TOL = 1e-10

# Centered vectors with a smaller norm than this cannot be normalized stably.
DEGENERATE_NORM = 1e-8


def _is_unit(mean, norm):
    """Whether a vector with this mean and L2 norm counts as normalized;
    elementwise on arrays, and False for a NaN mean or norm."""
    return (abs(mean) <= NORMALIZATION_TOL) & (abs(norm - 1.0) <= NORMALIZATION_TOL)


@dataclass(frozen=True)
class ImagePatch:
    """A flat real-valued pixel vector.

    The ``normalized`` flag is trusted by downstream detector code, so it is
    verified at construction time: a patch may only claim to be normalized if
    its mean is 0 and its L2 norm is 1 (within ``NORMALIZATION_TOL``).
    ``degenerate`` marks patches whose contrast was too small to normalize.
    """

    values: np.ndarray
    normalized: bool = False
    degenerate: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            raise ValueError("empty patch")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.normalized:
            mean = float(values.mean())
            norm = float(np.linalg.norm(values))
            if not _is_unit(mean, norm):
                raise ValueError(
                    f"patch flagged normalized but mean={mean:.3g}, norm={norm:.6g}"
                )

    @property
    def dim(self) -> int:
        return self.values.size


def as_rows(data, dim, name) -> np.ndarray:
    """``data`` as float64 ``(n, dim)`` rows: an ``ImagePatch`` or a 1-D
    array is one row, a 2-D array one row per row.

    ``DimensionError`` for another rank or a width other than ``dim`` (any
    width when ``dim`` is None); ``DataError`` naming the first row that
    holds a NaN or an infinity.  One whole-array test finds that the rows
    are finite; the bad row is looked for only when it fails.  A float64
    2-D array comes back as the same object, so ``ys is xs`` still holds
    after both pass the gate.
    """
    values = np.asarray(data.values if isinstance(data, ImagePatch) else data, np.float64)
    rows = values[None, :] if values.ndim == 1 else values
    if rows.ndim != 2 or (dim is not None and rows.shape[1] != dim):
        width = "rows" if dim is None else f"rows of width {dim}"
        raise DimensionError(f"{name} has shape {values.shape}, expected {width}")
    if not np.isfinite(rows).all():
        row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise DataError(f"{name} row {row} holds non-finite values")
    return rows


def as_row(data, dim, name) -> np.ndarray:
    """One image, an ``ImagePatch`` or a 1-D array, through ``as_rows``: a
    float64 vector of length ``dim``; ``DimensionError`` for another rank."""
    values = data.values if isinstance(data, ImagePatch) else np.asarray(data, np.float64)
    if values.ndim != 1:
        raise DimensionError(f"{name} must be one 1-D image, got shape {values.shape}")
    return as_rows(values, dim, name)[0]


def contrast_normalize(raw) -> ImagePatch:
    """``normalize_rows`` of one vector, as a verified ``ImagePatch``.

    A constant vector comes back as an all-zero patch with
    ``degenerate=True``; non-finite or empty input raises ``DataError``.
    """
    (values,), (flag,) = normalize_rows(np.asarray(raw, dtype=float).reshape(1, -1))
    return ImagePatch(values, normalized=not flag, degenerate=bool(flag))


def _row_means(rows: np.ndarray, keepdims=False) -> np.ndarray:
    # rows.mean(axis=1), the same sum and division, without its Python overhead
    return np.add.reduce(rows, axis=1, keepdims=keepdims) / rows.shape[1]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over any leading axes, one BLAS ddot per row:
    bit for bit a 1-D ``a @ b``, and the call ``np.linalg.norm`` makes."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def normalize_rows(raw, out=None):
    """Subtract each row's mean (twice, for the rounding residue) and divide
    by its L2 norm; empty or non-finite input raises ``DataError``.

    Returns ``(values, degenerate)``: the normalized rows and a mask of the
    rows with a centered norm below ``DEGENERATE_NORM``, which come back all
    zero.  A row's result does not depend on the other rows: numpy's per-row
    pairwise sum over axis 1 is the 1-D ``sum()`` on contiguous rows, and
    ``row_dots`` makes the ddot call of ``np.linalg.norm``.  Every
    non-degenerate row is checked as ``ImagePatch`` checks a patch flagged
    normalized.

    ``values`` is a new array, or ``out`` when given: a float64 array of the
    rows' shape whose rows are contiguous, such as ``raw`` itself or one
    frame ``clips[:, t]`` of a clip stack.  Every step after the first
    subtraction already runs in place, so the rows are bit for bit those of
    the copying call.  A wrong shape or layout of ``out`` raises
    ``DimensionError`` and another dtype ``DataError``, before anything is
    written.
    """
    values = np.ascontiguousarray(raw, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise DataError(f"need a non-empty (n, d) array, got shape {values.shape}")
    if out is not None:
        if out.dtype != np.float64:
            raise DataError(f"out must be float64, got {out.dtype}")
        if out.shape != values.shape or out.strides[1] != out.itemsize:
            raise DimensionError(
                f"out must be {values.shape} with contiguous rows, got shape "
                f"{out.shape} and strides {out.strides}"
            )
    if not np.isfinite(values).all():
        raise DataError("cannot normalize rows with non-finite values")
    centered = np.subtract(values, _row_means(values, keepdims=True), out=out)
    centered -= _row_means(centered, keepdims=True)
    norms = np.sqrt(row_dots(centered, centered))
    degenerate = norms < DEGENERATE_NORM
    centered /= np.where(degenerate, 1.0, norms)[:, None]
    centered[degenerate] = 0.0
    means = _row_means(centered)
    norms = np.sqrt(row_dots(centered, centered))
    off = ~(_is_unit(means, norms) | degenerate)
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise ValueError(
            f"row {row} normalized to mean={means[row]:.3g}, norm={norms[row]:.6g}"
        )
    return centered, degenerate
