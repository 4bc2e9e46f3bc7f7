"""The increment store: per-parameter K increments persisted as text.

``kdiss store combine`` loads it without the engine.
"""

from __future__ import annotations

import math
import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import SchemaError, StoreLookupError, decode_utf8

if TYPE_CHECKING:
    from .kernel import ComparisonResult

__all__ = ["IncrementStore"]


def _is_record(line: bytes) -> bool:
    """Whether one store line, newline excluded, holds five fields with both numbers valid."""
    try:
        _, _, delta, _, inc = line.decode("utf-8").split("\t")
        float(delta), float(inc)
    except ValueError:  # includes a decoding error and a wrong field count
        return False
    return True


def _encodes(text: str) -> bool:
    """Whether text encodes as UTF-8: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# O_BINARY (Windows only) keeps the bytes from newline translation
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _end_last_line(fd: int) -> bytes:
    """Ready a store opened with _APPEND for a run of lines: cut off a torn
    final line, and return the newline an intact unterminated one lacks."""
    size = os.lseek(fd, 0, os.SEEK_END)
    if size == 0:
        return b""
    os.lseek(fd, size - 1, os.SEEK_SET)
    if os.read(fd, 1) == b"\n":
        return b""
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, size):
        chunks.append(chunk)
    data = b"".join(chunks)
    start = data.rfind(b"\n") + 1
    if _is_record(data[start:]):
        return b"\n"
    os.ftruncate(fd, start)
    return b""


# combine's lookup default, so that no dict is built per call; nothing writes to it
_NO_RECORDS: dict = {}


class IncrementStore:
    """Persisted per-parameter K increments, recombinable by summation.

    File format (append-only, UTF-8, one record per line, tab-separated,
    in this exact field order)::

        query <TAB> target <TAB> delta <TAB> param_name <TAB> k_increment

    Floats are written with repr so they round-trip exactly.  A later
    record for the same (query, target, delta, param_name) key replaces
    the earlier one on load.  A final line without its newline that does
    not parse, as a crash mid-write leaves it, is skipped with a warning,
    and the next put writes over it.  A put checks its names in one pass,
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
            warnings.warn(f"{path}:{len(lines)}: skipped a torn final line (no newline, does not parse)")
        index = self._index
        # put writes a pair's records as consecutive lines behind one "query\ttarget\tdelta" head:
        # split a line once from the right, and resolve its dict only when the head changes
        head = None
        try:
            for lineno, line in enumerate(lines, start=1):
                if line:
                    key, param, value = line.rsplit("\t", 2)
                    if key != head:
                        query, target, delta = key.split("\t")
                        incs = index.setdefault((query, target), {}).setdefault(float(delta), {})
                        head = key
                    incs[param] = float(value)
            return
        except ValueError as exc:  # a wrong field count, or a number that does not parse
            fields = line.count("\t") + 1
            if fields == 5:
                raise SchemaError(f"{path}:{lineno}: bad numeric field ({exc})") from exc
        raise SchemaError(f"{path}:{lineno}: expected 5 tab-separated fields, got {fields}")

    def put(self, result: ComparisonResult) -> None:
        """Record every per-parameter increment of one comparison."""
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
        if floats:  # an empty delta dict would make deltas_for list a delta without records
            self._index.setdefault((query, target), {}).setdefault(delta, {}).update(floats)
        if self._path is not None:
            head = f"{query}\t{target}\t{delta!r}\t"
            data = "".join([f"{head}{p}\t{v!r}\n" for p, v in floats.items()]).encode("utf-8")
            fd = os.open(self._path, _APPEND, 0o666)
            try:
                data = _end_last_line(fd) + data
                while data:  # a write may be partial
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)

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
