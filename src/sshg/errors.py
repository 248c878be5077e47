"""Exception hierarchy shared across the solver."""


class SSHGError(Exception):
    """Base class for all solver errors."""


class ConfigError(SSHGError):
    """Invalid configuration value or inconsistent option combination."""


class ResolutionError(SSHGError):
    """Requested feature cannot be represented on the given grid."""


class SpectralGapError(SSHGError):
    """rho sits within the hard 1e-9 guard of a computed Dirac eigenvalue."""


class OverflowGuardError(SSHGError):
    """max|u| exceeded the cosh/sinh overflow cap; evaluation refused."""


class ConditioningError(SSHGError):
    """An inner iterative solve hit its iteration cap or a non-finite right-hand side."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CapacityError(SSHGError):
    """Problem dimension (K, grid, ...) exceeds the supported desk scale."""


class ConeStarvationError(SSHGError):
    """Rejection sampling outside the linking cone failed to produce samples."""


class CheckpointFormatError(SSHGError):
    """Checkpoint container failed magic/version/shape validation."""


class CertificationError(SSHGError):
    """A constructed object failed its defining numerical certificate."""
