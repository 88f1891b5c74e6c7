"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedModulationError(ParameterError):
    """Modulation order is not usable for the requested operation."""


class UndefinedPaprError(ParameterError):
    """PAPR requested for an all-zero frame."""


class CorruptedStateError(ValueError):
    """A precoded symbol amplitude is neither A nor 2A."""


class InstanceTooLargeError(ParameterError):
    """An exhaustive search or a dense oracle requested beyond its size guard."""


class EqualizerError(RuntimeError):
    """The MMSE linear solve failed or produced non-finite estimates."""
