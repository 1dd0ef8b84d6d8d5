"""Exception taxonomy shared by all solver backends."""


class DwellDosError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DwellDosError, ValueError):
    """Invalid constructor input or configuration value."""


class ThresholdProximityError(DwellDosError):
    """Energy too close to a channel-opening threshold for a reliable solve."""


class NoOpenChannelError(DwellDosError):
    """No propagating channel exists at the requested energy."""


class ClosedChannelError(DwellDosError):
    """The requested incident channel is evanescent at this energy."""


class BoundStatePoleError(DwellDosError):
    """Green's function pole hit: the energy coincides with a bound state."""


class NumericalFailureError(DwellDosError):
    """A linear solve or eigensolve did not meet its residual requirement."""


class StepTooLargeError(DwellDosError):
    """Finite-difference potential step too large to unwrap S-matrix phases."""


class CoverageError(DwellDosError):
    """Spectral weight support extends outside the sampled energy grid."""


class InsufficientDataError(DwellDosError):
    """Too few grid points for the requested operation."""


class ConfigError(ValidationError):
    """Malformed run configuration document."""
