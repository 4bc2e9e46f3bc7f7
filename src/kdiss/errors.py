"""Exception types shared across the package, and the UTF-8 decode that raises one."""

from . import _HOMES

__all__ = _HOMES["errors"]


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

    def __str__(self) -> str:
        # the message as given, not KeyError's repr of it
        return Exception.__str__(self)


def decode_utf8(data: bytes, path: object, csv_lines: bool = False) -> str:
    """data as UTF-8 text; a bad byte raises SchemaError naming path and its line.

    Lines end at each LF, as the increment store splits them; with csv_lines,
    at each CRLF, CR or LF, as a CSV reader splits them.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        if csv_lines:  # a CR ends a line too, unless an LF follows it
            lineno += data.count(b"\r", 0, exc.start) - data.count(b"\r\n", 0, exc.start)
        raise SchemaError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from exc
