"""Exception types shared across the package."""


class AgmodError(Exception):
    """Base class for all package errors; ``details`` lists any offending fields."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = list(details or [])


class StructuralError(AgmodError):
    """Malformed or mismatched algebraic data (bad moduli, wrong component counts)."""


class DomainError(AgmodError):
    """An operation's precondition does not hold for the given arguments."""


class ResourceLimitError(AgmodError):
    """A configured size cap was exceeded; carries the cap that fired."""

    def __init__(self, message, limit):
        super().__init__(message)
        self.limit = limit

    def __reduce__(self):
        """Rebuild from (message, limit), then restore ``details``, so the
        error crosses a process boundary; ``args`` stays (message,)."""
        return type(self), (*self.args, self.limit), {"details": self.details}


class InternalCheckError(AgmodError):
    """A verified postcondition failed.  This is a bug, never a valid outcome."""


class SpecError(AgmodError):
    """Invalid instance specification; ``details`` lists every offending field."""
