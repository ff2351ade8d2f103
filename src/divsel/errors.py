"""Exception hierarchy shared across the package."""


class DivselError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(DivselError):
    """Malformed document: wrong JSON structure or field types."""


class InvariantError(DivselError):
    """Structurally valid data violating a semantic invariant; names the field."""


class ShapeError(DivselError):
    """Mismatched shapes between an instance and a fractional solution."""


class DomainError(DivselError):
    """A numeric input outside its admissible range."""


class SizeError(DivselError):
    """Problem too large for the machine's physical memory."""


class DegenerateError(DivselError):
    """A statistic is undefined for this instance (e.g. a dimension never arrives)."""


class DimensionError(DivselError):
    """Invalid dimension count for the requested construction."""


class ContractError(DivselError):
    """A policy's information contract cannot be satisfied by the instance."""
