"""Shared exception types; the CLI maps these onto exit codes."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Structurally invalid parameter (bad sizes, empty ranges, caps)."""


class PreconditionError(RuntimeError):
    """A stated hypothesis of an operation fails on the given input."""


class NotInterpolatingError(PreconditionError):
    """Restriction matrix is rank deficient at the given truncation."""


class VerificationError(RuntimeError):
    """A numerical verification that should succeed did not."""


class ResourceError(RuntimeError):
    """A configured resource cap (memory, matrix size) was exceeded."""
