"""Exception types shared across the package."""


class CoversatError(Exception):
    """Base class for all package errors."""


class ParseError(CoversatError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseWarning(UserWarning):
    """Recoverable input oddity (e.g. header clause-count mismatch)."""


class ResourceCapError(CoversatError):
    """A desk-scale resource cap would be exceeded; nothing was computed."""


class CodeConstructionError(CoversatError):
    """A constructed cover failed its check: a random code exhausted its
    retry budget, or a greedy or shipped code or 2-box block did not cover
    its space."""


class UsageError(CoversatError):
    """Bad CLI arguments or configuration."""
