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
    """Subtract the mean and divide by the L2 norm.

    Inputs whose centered norm falls below ``DEGENERATE_NORM`` (constant
    vectors, for instance) cannot be normalized; they come back as an
    all-zero patch with ``degenerate=True``.  Non-finite input raises
    ``DataError``.
    """
    values = np.asarray(raw, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("empty patch")
    if not np.isfinite(values).all():
        raise DataError("cannot normalize a patch with non-finite values")
    centered = values - values.mean()
    centered -= centered.mean()  # second pass kills rounding residue of the mean
    norm = float(np.linalg.norm(centered))
    if norm < DEGENERATE_NORM:
        return ImagePatch(np.zeros_like(centered), normalized=False, degenerate=True)
    return ImagePatch(centered / norm, normalized=True)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # one BLAS ddot per row, the call np.linalg.norm makes on a 1-D vector
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def normalize_rows(raw):
    """``contrast_normalize`` applied to each row of an (n, d) array at once.

    Returns ``(values, degenerate)``: the normalized rows, bit for bit what
    ``contrast_normalize(row).values`` gives, and a boolean mask of the
    degenerate rows, which come back all zero.  On C-contiguous rows numpy's
    per-row pairwise ``mean(axis=1)`` is the 1-D ``mean()``, and
    ``_row_norms`` makes the same ddot call as ``np.linalg.norm``.  Every
    non-degenerate row is checked as ``ImagePatch`` checks a patch flagged
    normalized.
    """
    values = np.ascontiguousarray(raw, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise DataError(f"need a non-empty (n, d) array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DataError("cannot normalize rows with non-finite values")
    centered = values - values.mean(axis=1, keepdims=True)
    centered -= centered.mean(axis=1, keepdims=True)
    norms = _row_norms(centered)
    degenerate = norms < DEGENERATE_NORM
    centered /= np.where(degenerate, 1.0, norms)[:, None]
    centered[degenerate] = 0.0
    means = centered.mean(axis=1)
    norms = _row_norms(centered)
    off = ~(_is_unit(means, norms) | degenerate)
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise ValueError(
            f"row {row} normalized to mean={means[row]:.3g}, norm={norms[row]:.6g}"
        )
    return centered, degenerate
