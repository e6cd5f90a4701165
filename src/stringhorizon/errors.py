"""Exception types shared across the library."""


class StringHorizonError(Exception):
    """Base class for all library-specific errors."""


class DomainError(StringHorizonError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Argument within tolerance of a gamma-function pole."""


class ConvergenceError(StringHorizonError, ArithmeticError):
    """A series failed to certify its tail bound within the iteration budget."""


class SlowConvergenceError(ConvergenceError):
    """A truncated sum could not certify the requested tolerance."""


class QuadratureError(StringHorizonError, ArithmeticError):
    """A quadrature rule reported a failure or an error estimate above its bound."""


class CoincidenceError(DomainError):
    """Point pair too close to coincidence (or a null-separated image)."""


class StiffnessError(StringHorizonError, ArithmeticError):
    """ODE step control failed."""


class SeriesRadiusError(DomainError):
    """Frobenius start offset lies outside the series' convergence radius."""


class ExtrapolationError(StringHorizonError, ArithmeticError):
    """A limit sequence shows no convergent trend."""
