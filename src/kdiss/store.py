"""The increment store: per-parameter K increments persisted as text.

It needs no numpy, so ``kdiss store combine`` starts without loading it.
``kdiss.dissimilarity.IncrementStore`` is the same class.
"""

from __future__ import annotations

import math
import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Mapping

from .errors import SchemaError, StoreLookupError, decode_utf8

if TYPE_CHECKING:
    from .dissimilarity import ComparisonResult

__all__ = ["IncrementStore"]


def _is_record(line: bytes) -> bool:
    """Whether one store line, newline excluded, holds five fields with both numbers valid."""
    try:
        _, _, delta, _, inc = line.decode("utf-8").split("\t")
        float(delta), float(inc)
    except ValueError:  # includes a decoding error and a wrong field count
        return False
    return True


class IncrementStore:
    """Persisted per-parameter K increments, recombinable by summation.

    File format (append-only, UTF-8, one record per line, tab-separated,
    in this exact field order)::

        query <TAB> target <TAB> delta <TAB> param_name <TAB> k_increment

    Floats are written with repr so they round-trip exactly.  A later
    record for the same (query, target, delta, param_name) key replaces
    the earlier one on load.  A final line without its newline that does
    not parse, as a crash mid-write leaves it, is skipped with a warning,
    and the next put writes over it.  Records are indexed by (query,
    target), so every lookup touches one pair's records, whatever the
    store's size.  Writers must be serialized by the caller; concurrent
    reads of a loaded store are safe.
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
        # put writes a pair's records as consecutive lines: resolve their dict once per run
        run: list[str] | None = None
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise SchemaError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
            try:
                if parts[:3] != run:
                    delta = float(parts[2])
                    run = parts[:3]
                    incs = index.setdefault((parts[0], parts[1]), {}).setdefault(delta, {})
                incs[parts[3]] = float(parts[4])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad numeric field ({exc})") from exc

    @staticmethod
    def _check_token(token: str) -> str:
        if "\t" in token or "\n" in token:
            raise SchemaError(f"store field {token!r} may not contain tabs or newlines")
        return token

    @staticmethod
    def _start_line(fh: BinaryIO) -> None:
        """Leave an append-mode file ending in a newline: end an intact final
        line, or cut off a torn one."""
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        if _is_record(data[start:]):
            fh.write(b"\n")
        else:
            fh.truncate(start)

    def put(self, result: ComparisonResult) -> None:
        """Record every per-parameter increment of one comparison."""
        query = self._check_token(result.query)
        target = self._check_token(result.target)
        for param in result.increments:
            self._check_token(param)
        delta = float(result.delta)  # the repr of a numpy float would not parse back
        if result.increments:  # an empty delta dict would make deltas_for list a delta without records
            self._index.setdefault((query, target), {}).setdefault(delta, {}).update(result.increments)
        if self._path is not None:
            lines = [f"{query}\t{target}\t{delta!r}\t{p}\t{float(v)!r}\n" for p, v in result.increments.items()]
            with open(self._path, "a+b") as fh:
                self._start_line(fh)
                fh.write("".join(lines).encode("utf-8"))

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
        subset requires every named parameter to be present.  delta may be
        omitted only when the store holds a single delta for the pair.
        """
        deltas = self._index.get((query, target), {})
        if delta is None:
            if len(deltas) == 0:
                raise StoreLookupError(f"no records for ({query!r}, {target!r})")
            if len(deltas) > 1:
                raise StoreLookupError(
                    f"({query!r}, {target!r}) recorded at {len(deltas)} deltas; pass delta explicitly"
                )
            (delta,) = deltas
        incs = deltas.get(delta, {})
        if params is None:
            if not incs:
                raise StoreLookupError(f"no records for ({query!r}, {target!r}, delta={delta!r})")
            return math.fsum(incs.values())
        values = []
        for param in params:
            if param not in incs:
                raise StoreLookupError(f"no record for ({query!r}, {target!r}, delta={delta!r}, {param!r})")
            values.append(incs[param])
        return math.fsum(values)

    def __len__(self) -> int:
        return sum(len(incs) for deltas in self._index.values() for incs in deltas.values())

    def as_mapping(self) -> Mapping[tuple[str, str, float, str], float]:
        pairs = self._index.items()
        return {(q, t, d, p): v for (q, t), deltas in pairs for d, incs in deltas.items() for p, v in incs.items()}
