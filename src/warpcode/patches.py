"""Image patches as flat vectors with explicit contrast-normalization state."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # one BLAS ddot per row, the call np.linalg.norm makes on a 1-D vector
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def normalize_rows(raw):
    """Subtract each row's mean (twice, for the rounding residue) and divide
    by its L2 norm; empty or non-finite input raises ``DataError``.

    Returns ``(values, degenerate)``: the normalized rows and a mask of the
    rows with a centered norm below ``DEGENERATE_NORM``, which come back all
    zero.  A row's result does not depend on the other rows: numpy's per-row
    pairwise sum over axis 1 is the 1-D ``sum()`` on C-contiguous rows, and
    ``_row_norms`` makes the ddot call of ``np.linalg.norm``.  Every
    non-degenerate row is checked as ``ImagePatch`` checks a patch flagged
    normalized.
    """
    values = np.ascontiguousarray(raw, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise DataError(f"need a non-empty (n, d) array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DataError("cannot normalize rows with non-finite values")
    centered = values - _row_means(values, keepdims=True)
    centered -= _row_means(centered, keepdims=True)
    norms = _row_norms(centered)
    degenerate = norms < DEGENERATE_NORM
    centered /= np.where(degenerate, 1.0, norms)[:, None]
    centered[degenerate] = 0.0
    means = _row_means(centered)
    norms = _row_norms(centered)
    off = ~(_is_unit(means, norms) | degenerate)
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise ValueError(
            f"row {row} normalized to mean={means[row]:.3g}, norm={norms[row]:.6g}"
        )
    return centered, degenerate
