"""Exception types shared across the package."""


class IsoresError(Exception):
    """Base class for all package errors."""


class DomainError(IsoresError, ValueError):
    """Evaluation requested outside the open domain of a potential."""


class NumericsError(IsoresError, RuntimeError):
    """A numerical procedure (root finding, quadrature, ...) failed to meet
    its tolerance or could not be completed."""


class IntegrationError(IsoresError, RuntimeError):
    """ODE integration aborted.  Carries the solution computed so far in
    ``trajectory``: an integrate.RawSolution, as a finished solve returns."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConfigError(IsoresError, ValueError):
    """Invalid run configuration; the message names the offending field."""
