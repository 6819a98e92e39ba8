"""Exception types shared across the package."""


class QuadPencilError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(QuadPencilError, ValueError):
    """Inputs violate a documented precondition (bad dimensions, zero vectors, ...)."""


class FormOrderError(InvalidArgumentError):
    """A pencil pair is not ordered as compare_eigenvalues requires
    (a0 >= a0_hat and d <= d_hat as quadratic forms)."""


class ConfigError(QuadPencilError, ValueError):
    """Problem configuration failed to parse or validate."""


class ComputationError(QuadPencilError, RuntimeError):
    """A numerical routine failed to converge or a solver broke down.

    Carries optional diagnostics in ``details`` (e.g. an eigenvalue bracket
    whose inertia counts do not certify it, or condition estimates).
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details
