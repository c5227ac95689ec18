"""Exception types shared across the package."""


class WarpcodeError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(WarpcodeError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class OrthogonalityError(WarpcodeError, ValueError):
    """A warp is not orthogonal enough for the exact decomposition path."""


class SingularWarpError(WarpcodeError, ValueError):
    """A warp is rank-deficient; no orthogonal polar factor exists."""


class MissingComponentError(WarpcodeError, ValueError):
    """A one-dimensional invariant subspace was queried for its imaginary part."""


class SharedSubspaceError(WarpcodeError, ValueError):
    """A warp family does not share invariant subspaces within tolerance."""

    def __init__(self, leakage):
        self.leakage = float(leakage)
        super().__init__(
            f"warp family does not share invariant subspaces "
            f"(max leakage or commutation residual {self.leakage:.3g})"
        )


class NormalizationError(WarpcodeError, ValueError):
    """An operation requiring contrast-normalized inputs received raw ones."""


class ModelConfigError(WarpcodeError, ValueError):
    """A model is configured inconsistently with the requested operation."""


class DataError(WarpcodeError, ValueError):
    """Input data contains non-finite values or is otherwise unusable."""


class DivergenceError(WarpcodeError, RuntimeError):
    """Training diverged (loss exploded or became non-finite)."""

    def __init__(self, epoch, loss):
        self.epoch = int(epoch)
        self.loss = float(loss)
        super().__init__(f"training diverged at epoch {self.epoch} (loss {self.loss:.4g})")


class FormatError(WarpcodeError, ValueError):
    """A binary file does not conform to the expected on-disk format."""


class ConfigError(WarpcodeError, ValueError):
    """An experiment configuration is invalid."""


class LockError(WarpcodeError, RuntimeError):
    """Another experiment already holds the output-directory lock."""
