"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size limit would be exceeded."""


class TruncationError(RuntimeError):
    """A truncated series is too short for the requested computation."""


class InfeasibleRegionError(ValueError):
    """A geometric region has no area."""
