"""Exception types shared across the package."""


class DefbondError(Exception):
    """Base class for all defbond errors."""


class DomainError(DefbondError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ScheduleError(DefbondError, ValueError):
    """A date schedule is malformed (ordering, bounds, or lengths)."""


class CovarianceError(DefbondError, ValueError):
    """A covariance matrix is unusable: not positive definite beyond the
    tolerated near-degeneracy."""

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ScenarioError(DefbondError, ValueError):
    """A scenario file failed validation.  ``code`` is a stable short
    identifier suitable for scripting against CLI output."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
