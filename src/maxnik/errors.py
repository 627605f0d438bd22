"""Exception types shared across the package."""


class MaxnikError(Exception):
    """Base class for all package errors."""


class ParseError(MaxnikError):
    """Malformed graph6 input."""


class OrderOverflowError(MaxnikError):
    """An operation would create a graph with more than 64 vertices."""


class ValidationError(MaxnikError):
    """A named graph or certificate failed its mandatory assertions."""


class PreconditionError(MaxnikError):
    """A gluing lemma hypothesis does not hold for the given operands."""


class ConstructionInvariantError(MaxnikError):
    """A constructed graph failed a per-instance structural assertion."""


class UnrepresentableSizeError(MaxnikError):
    """No maximal knotless graph of the requested size exists."""


class SizeOutOfRangeError(MaxnikError):
    """Requested size outside the range the constructions cover."""
