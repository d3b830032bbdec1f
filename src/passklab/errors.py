"""Exception types shared across the package."""


class PassKLabError(Exception):
    """Base class for all package errors."""


class DomainError(PassKLabError, ValueError):
    """An argument violates a documented precondition."""


class AlignmentError(PassKLabError, ValueError):
    """Two inputs that must share prompt ids or dimensions do not."""


class IdentityCheckError(PassKLabError):
    """An internal cross-check (two routes to the same value) failed."""
