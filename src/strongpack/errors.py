"""Exception hierarchy shared across the package."""


class StrongpackError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(StrongpackError, ValueError):
    """An operation was called on input violating its stated preconditions."""


class GraphFormatError(StrongpackError, ValueError):
    """A text-format parse failed; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SizeLimitError(StrongpackError, ValueError):
    """An exact solver refused an instance above its configured size limits."""


class InfeasibleError(PreconditionError):
    """The requested object provably does not exist for this input."""


class UnsupportedCaseError(PreconditionError):
    """The object exists but this implementation has no construction for it."""
