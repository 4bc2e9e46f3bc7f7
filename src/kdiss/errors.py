"""Exception types shared across the package."""


class KdissError(Exception):
    """Base class for all kdiss errors."""


class DomainError(KdissError):
    """A numeric input is outside the domain an operation accepts."""


class SchemaError(KdissError):
    """Objects or tables do not share the structure an operation requires."""


class DegenerateSymmetryError(KdissError):
    """A matrix is too symmetric to split: the decisive entries are tied."""


class NonPolarizedError(KdissError):
    """Iterative averaging did not separate the objects into two groups."""


class NotSwitchedError(KdissError):
    """switch_weight's search hit its weight cap before the clone regrouped.

    Only switch_weight raises it; the closed form behind compare does not.
    """


class StoreLookupError(KdissError, KeyError):
    """An increment-store key (query, target, delta, parameter) is absent."""
