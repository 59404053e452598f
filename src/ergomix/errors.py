"""Exception types shared across the package."""


class ErgomixError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ErgomixError):
    """Invalid, missing, or out-of-range configuration input."""


class SingularInputError(ErgomixError):
    """A map was evaluated on its singular set (e.g. the baker discontinuity line)."""


class IntegrationDivergedError(ErgomixError):
    """The tangent integration blew up; the step size is too coarse for the field."""


class DegenerateCocycleError(ErgomixError):
    """A cocycle step was exactly singular (determinant 0)."""


class UndersampledError(ConfigError):
    """Too few samples for a meaningful plug-in entropy estimate."""
