"""Shared exception types.

The CLI maps these onto exit codes: configuration problems exit 2, failed
numerical checks exit 3, resource caps exit 4.
"""


class CapacityError(RuntimeError):
    """An enumeration or allocation would exceed a configured cap."""


class InvalidInputError(ValueError):
    """Structurally invalid input (malformed partition, off-shell chain, ...)."""


class NumericsError(RuntimeError):
    """A numerical routine could not meet its contract."""


class TailBoundError(NumericsError):
    """Truncated integration tail exceeds the requested tolerance."""
