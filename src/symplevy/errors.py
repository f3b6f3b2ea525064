"""Exception types shared across the package."""

__all__ = [
    "SymplevyError",
    "InvalidSpecError",
    "DomainError",
    "NonConvergenceError",
    "DivergenceError",
]


class SymplevyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(SymplevyError, ValueError):
    """A specification object carries non-finite or out-of-range fields."""


class DomainError(SymplevyError, ValueError):
    """An argument lies outside an operation's documented domain."""


class NonConvergenceError(SymplevyError, RuntimeError):
    """The implicit solve did not reach its residual tolerance.

    Attributes
    ----------
    residual : float or None
        Max-norm residual at the last iterate.
    step : int or None
        Driver step index, set when raised inside an integration loop.
    """

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step


class DivergenceError(SymplevyError, RuntimeError):
    """A state component left the finite range the integrators allow.

    Attributes
    ----------
    step : int or None
        Offending step or substep index.
    time : float or None
        Time at which the blow-up was detected.
    partial : Trajectory or None
        States computed before the failure, kept so callers can still
        write partial output.
    """

    def __init__(self, message, step=None, time=None, partial=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.partial = partial
