"""The increment store: per-parameter K increments persisted as text.

``kdiss store combine`` loads it without the engine, and ``kdiss store put``
appends to it without loading it.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from . import _HOMES
from .errors import SchemaError, StoreLookupError, decode_utf8

if TYPE_CHECKING:
    from .kernel import ComparisonResult

__all__ = _HOMES["store"]


def _line_fault(line: str) -> str | ValueError | None:
    """Why one store line, newline excluded, is not a record (five fields, a
    delta that is a finite number > 0 and a finite increment): its field
    count, the ValueError of the first number that does not parse, or the
    number out of range; None for a record."""
    fields = line.split("\t")
    if len(fields) != 5:
        return f"expected 5 tab-separated fields, got {len(fields)}"
    try:
        delta, value = float(fields[2]), float(fields[4])
    except ValueError as exc:
        return exc
    if not 0.0 < delta < math.inf:
        return f"delta must be a finite number > 0, got {fields[2]}"
    if not math.isfinite(value):
        return f"increment {fields[3]!r} is not finite: {fields[4]}"
    return None


def _is_record(line: bytes) -> bool:
    """Whether one store line, newline excluded, is valid UTF-8 and a record."""
    try:
        return _line_fault(line.decode("utf-8")) is None
    except UnicodeDecodeError:
        return False


def _encodes(text: str) -> bool:
    """Whether text encodes as UTF-8: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# O_BINARY (Windows only) keeps the bytes from newline translation
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


# the warning for a final line cut short by a crash, with its path and line number
_TORN = "{}:{}: skipped a torn final line (no newline, does not parse)"


def _end_last_line(fd: int) -> tuple[bytes, int]:
    """Ready a store opened with _APPEND for a run of lines: return the newline
    an intact unterminated final line lacks, and the number of a torn one, cut
    off (0 if none)."""
    size = os.lseek(fd, 0, os.SEEK_END)
    if size == 0:
        return b"", 0
    os.lseek(fd, size - 1, os.SEEK_SET)
    if os.read(fd, 1) == b"\n":
        return b"", 0
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, size):
        chunks.append(chunk)
    data = b"".join(chunks)
    start = data.rfind(b"\n") + 1
    if _is_record(data[start:]):
        return b"\n", 0
    os.ftruncate(fd, start)
    return b"", data.count(b"\n") + 1


def _checked(result: ComparisonResult) -> tuple[str, str, float, dict[str, float]]:
    """The query, target, float delta and float increments put stores, or the
    SchemaError of the first bad name, the delta or the first bad value."""
    query, target, increments = result.query, result.target, result.increments
    names = "".join([query, target, *increments])
    if "\t" in names or "\n" in names or not (names.isascii() or _encodes(names)):
        for token in (query, target, *increments):  # the first bad name is the one reported
            if "\t" in token or "\n" in token:
                raise SchemaError(f"store field {token!r} may not contain tabs or newlines")
            if not _encodes(token):
                raise SchemaError(f"store field {token!r} cannot be encoded as UTF-8")
    try:
        delta = float(result.delta)  # the repr of a numpy float would not parse back
    except (TypeError, ValueError, OverflowError):
        delta = math.nan
    if not (0.0 < delta < math.inf):
        raise SchemaError(f"store delta must be a finite number > 0, got {result.delta!r}")
    floats = {}  # the values indexed and written, so the two agree
    for param, value in increments.items():
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"store increment {param!r} is not a number: {value!r}") from None
        if not math.isfinite(number):
            raise SchemaError(f"store increment {param!r} is not finite: {value!r}")
        floats[param] = number
    return query, target, delta, floats


def _append(path: Path, query: str, target: str, delta: float, floats: Mapping[str, float]) -> None:
    """Append one pair's run of lines, as _checked returned them, to the store
    at path without loading it: only its last line is checked, so a bad line
    before that one is reported by the next load."""
    head = f"{query}\t{target}\t{delta!r}\t"
    data = "".join([f"{head}{p}\t{v!r}\n" for p, v in floats.items()]).encode("utf-8")
    fd = os.open(path, _APPEND, 0o666)
    try:
        newline, torn = _end_last_line(fd)
        data = newline + data
        while data:  # a write may be partial
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    if torn:  # after the write, so that a warning raised as an error leaves the put done
        warnings.warn(_TORN.format(path, torn))


# combine's lookup default, so that no dict is built per call; nothing writes to it
_NO_RECORDS: dict = {}


class IncrementStore:
    """Persisted per-parameter K increments, recombinable by summation.

    File format (append-only, UTF-8, one record per line, tab-separated,
    in this exact field order)::

        query <TAB> target <TAB> delta <TAB> param_name <TAB> k_increment

    Floats are written with repr so they round-trip exactly.  A later
    record for the same (query, target, delta, param_name) key replaces
    the earlier one on load.  The load interns each parameter name
    (sys.intern), so all records of one parameter key on one shared
    string.  A line that is not a record (five fields, a delta that is a
    finite number > 0, a finite increment) fails the load with its number,
    except a final line without its newline, as a crash mid-write leaves it:
    that one is skipped with a warning, and the next put cuts it off with the
    same warning.  A put checks its names in one pass,
    then converts its delta and its values with float(), rejecting a delta
    that is not finite and > 0 and a value that is not finite; only then does
    it index those floats and append the pair's run of lines through one file
    descriptor, after the check of the file's last line; it does not fsync.
    Records are indexed by (query, target), so every lookup touches one
    pair's records, whatever the store's size.  Writers must be serialized by the caller;
    concurrent reads of a loaded store are safe.
    """

    def __init__(self, path: str | Path | None = None):
        # (query, target) -> delta -> param_name -> k_increment
        self._index: dict[tuple[str, str], dict[float, dict[str, float]]] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        lines = decode_utf8(data[:end], path).split("\n")
        tail = data[end:]
        if _is_record(tail):
            lines[-1] = tail.decode("utf-8")
        elif tail:
            warnings.warn(_TORN.format(path, len(lines)))
        index, intern = self._index, sys.intern
        # put writes a pair's records as consecutive lines behind one "query\ttarget\tdelta" head:
        # split a line once from the right, and resolve and check its delta only when the head changes
        head = None
        try:
            for key, param, value in map(str.rsplit, filter(None, lines), repeat("\t"), repeat(2)):
                if key != head:
                    query, target, delta_text = key.split("\t")
                    delta = float(delta_text)
                    if not 0.0 < delta < math.inf:
                        raise ValueError
                    incs = index.setdefault((query, target), {}).setdefault(delta, {})
                    head = key
                incs[intern(param)] = number = float(value)
                if number - number:  # nan, not 0.0, for a nan or an infinity
                    raise ValueError
            return
        except ValueError:  # a wrong field count, or a number that does not parse or is out of range
            pass
        # out of the handler, so that a field-count error has no context; next() has no
        # default, as the loop stopped at a bad line, so _load cannot return part of the file
        lineno, fault = next((n, f) for n, line in enumerate(lines, start=1) if line and (f := _line_fault(line)))
        if isinstance(fault, ValueError):
            raise SchemaError(f"{path}:{lineno}: bad numeric field ({fault})") from fault
        raise SchemaError(f"{path}:{lineno}: {fault}")

    def put(self, result: ComparisonResult) -> None:
        """Record every per-parameter increment of one comparison."""
        query, target, delta, floats = _checked(result)
        if floats:  # an empty delta dict would make deltas_for list a delta without records
            self._index.setdefault((query, target), {}).setdefault(delta, {}).update(floats)
        if self._path is not None:
            _append(self._path, query, target, delta, floats)

    def deltas_for(self, query: str, target: str) -> list[float]:
        return sorted(self._index.get((query, target), ()))

    def combine(
        self,
        query: str,
        target: str,
        params: Iterable[str] | None = None,
        delta: float | None = None,
    ) -> float:
        """Sum of stored increments over a parameter subset.

        params=None sums everything recorded for the pair; an explicit
        subset, read once, requires every named parameter to be present (the
        first one missing is reported), and counts a repeated name each time
        it is named.  delta may be omitted only when the store holds a single
        delta for the pair.
        """
        deltas = self._index.get((query, target), _NO_RECORDS)
        if delta is None:
            if len(deltas) == 0:
                raise StoreLookupError(f"no records for ({query!r}, {target!r})")
            if len(deltas) > 1:
                raise StoreLookupError(
                    f"({query!r}, {target!r}) recorded at {len(deltas)} deltas; pass delta explicitly"
                )
            (delta,) = deltas
        incs = deltas.get(delta, _NO_RECORDS)
        if params is None:
            if not incs:
                raise StoreLookupError(f"no records for ({query!r}, {target!r}, delta={delta!r})")
            return math.fsum(incs.values())
        try:  # map stops at the first missing name, in the caller's order
            return math.fsum(map(incs.__getitem__, params))
        except KeyError as exc:
            raise StoreLookupError(
                f"no record for ({query!r}, {target!r}, delta={delta!r}, {exc.args[0]!r})"
            ) from None

    def __len__(self) -> int:
        return sum(len(incs) for deltas in self._index.values() for incs in deltas.values())

    def as_mapping(self) -> Mapping[tuple[str, str, float, str], float]:
        pairs = self._index.items()
        return {(q, t, d, p): v for (q, t), deltas in pairs for d, incs in deltas.items() for p, v in incs.items()}
