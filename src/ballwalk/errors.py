"""Exception types shared across the package.

Every error the package raises on purpose lives here, under two roots:
ConfigError for inputs outside a contract's domain, NumericalError for
a solver, quadrature or sampler that missed its accuracy target.
"""


class BallwalkError(Exception):
    """Base class for all package errors."""


class ConfigError(BallwalkError):
    """Invalid configuration or parameters outside a contract's domain."""


class NumericalError(BallwalkError):
    """A solver or quadrature failed to reach its accuracy target."""


class QuadratureNotConverged(NumericalError):
    """Adaptive quadrature hit max refinement without meeting tolerance."""


class KernelUnderResolved(ConfigError):
    """Grid too coarse for the ball radius: h < 3*delta."""


class WrongDensityKind(ConfigError):
    """Operation requires the other density family."""


class WitnessHypothesisViolated(ConfigError):
    """Finite-speed witness needs |x| >= tau + (n+1)h."""


class InsufficientHPoints(ConfigError):
    """Order fitting needs at least three h values."""


class NoConvergence(NumericalError):
    """Iterative eigensolver exhausted its iteration budget."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class RejectionBudgetExceeded(NumericalError):
    """Rejection sampler used up its trial budget; config is pathological."""
