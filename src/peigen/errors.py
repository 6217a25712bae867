"""Exception and warning types shared across the package."""


class PeigenError(Exception):
    """Base class for all package errors."""


class DimensionError(PeigenError):
    """Shape/dimension mismatch, or arrays over the memory budget."""


class ValidationError(PeigenError):
    """Input violates a structural invariant (hermiticity, norm, positivity)."""


class EigenDecompositionError(PeigenError):
    """Dense eigendecomposition failed to converge."""

    def __init__(self, dim: int, detail: str) -> None:
        super().__init__(f"eigendecomposition failed (dim={dim}): {detail}")
        self.dim = dim


class CutoffError(PeigenError):
    """A Fock-space cutoff is too small for the requested construction."""


class UndefinedOperatorError(PeigenError):
    """The ejection unitary is undefined (vanishing reference energy)."""


class CertainFailureError(PeigenError):
    """A post-selection branch has numerically zero probability."""


class ConfigError(PeigenError):
    """Malformed or inconsistent run configuration."""


class TruncationLeakageError(PeigenError):
    """Bosonic truncation leaks too much amplitude for a conclusive check."""


class NegativeShiftWarning(UserWarning):
    """The shifted spectrum dips below zero; the cooling guarantee is void."""
