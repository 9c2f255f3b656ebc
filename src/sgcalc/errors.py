"""Exception types shared across the package."""


class SgcalcError(Exception):
    """Base class for all package errors."""


class AllZeroError(SgcalcError):
    """The transform is numerically zero everywhere sampled."""


class OrderNotFoundError(SgcalcError):
    """No nonzero Taylor coefficient found up to the index cap."""


class NoCircleFoundError(SgcalcError):
    """Every candidate circle contains a near-zero of the transform."""


class ComponentClosedError(SgcalcError):
    """The level-set component never reached the imaginary axis at max grid extent."""


class SimplicityRepairFailedError(SgcalcError):
    """Could not produce a simple polygonal path."""


class WindowViolationError(SgcalcError):
    """The scaling window u * R_m < r does not hold."""


class NotQuasinilpotentError(SgcalcError):
    """Backend is not flagged quasinilpotent."""


class NoGeneratorError(SgcalcError):
    """Backend does not expose a (bounded) generator."""


class SingularGeneratorError(SgcalcError):
    """Generator is not invertible to working precision."""


class NotDiagonalError(SgcalcError):
    """Operation requires a diagonal backend."""


class DivergentIntegralError(SgcalcError):
    """Resolvent integral does not converge for the requested argument."""


class MassNotZeroError(SgcalcError):
    """Measure must have total mass zero."""


class ConfigError(SgcalcError):
    """Invalid run configuration."""
