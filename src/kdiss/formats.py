"""Text formats that need no numpy: cohort names, CSV sources, the index CSV.

The report path (``kdiss report``) and the increment store read and write
only these formats, so they start without loading numpy.  ``kdiss.pyramids``
and ``kdiss.indexes`` re-export the names defined here.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

from .errors import SchemaError, decode_utf8

__all__ = [
    "AGE_STARTS",
    "MALE_COHORTS",
    "FEMALE_COHORTS",
    "COHORTS",
    "INDEX_COLUMNS",
    "IndexRow",
    "read_index_csv",
    "write_index_csv",
]

AGE_STARTS = tuple(range(0, 85, 5))
MALE_COHORTS = tuple(f"m{age:02d}" for age in AGE_STARTS)
FEMALE_COHORTS = tuple(f"f{age:02d}" for age in AGE_STARTS)
COHORTS = MALE_COHORTS + FEMALE_COHORTS

INDEX_COLUMNS = ("name", "k_mt", "k_ut", "k_m_male", "k_m_female", "mu", "d_un", "d_e30", "p_un")


@contextmanager
def _open_source(source: str | Path | IO[str]) -> Iterator[IO[str]]:
    """A CSV source as a text stream: a path is read whole and decoded as
    UTF-8 (a BOM is dropped), an open stream is used as it is."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes().removeprefix(b"\xef\xbb\xbf")
        yield io.StringIO(decode_utf8(data, source), newline="")
    else:
        yield source


@dataclass(frozen=True)
class IndexRow:
    """Per-target index values against two polar queries and the two models."""

    name: str
    k_mt: float
    k_ut: float
    k_m_male: float
    k_m_female: float
    mu: float
    d_un: float
    d_e30: float
    p_un: float


def _format(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return f"{value:.6f}"


def write_index_csv(rows: Sequence[IndexRow], sink: str | Path | IO[str]) -> None:
    """Write rows as CSV with the fixed column order of INDEX_COLUMNS."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(INDEX_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.name,
                _format(row.k_mt),
                _format(row.k_ut),
                _format(row.k_m_male),
                _format(row.k_m_female),
                _format(row.mu),
                _format(row.d_un),
                _format(row.d_e30),
                _format(row.p_un),
            ]
        )
    text = buffer.getvalue()
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)


def read_index_csv(source: str | Path | IO[str]) -> list[IndexRow]:
    """Read back an index CSV produced by write_index_csv."""
    with _open_source(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: missing header row") from None
        if tuple(h.strip() for h in header) != INDEX_COLUMNS:
            raise SchemaError(f"bad header: expected {','.join(INDEX_COLUMNS)}")
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != len(INDEX_COLUMNS):
                raise SchemaError(f"row {rownum}: expected {len(INDEX_COLUMNS)} fields")
            try:
                rows.append(IndexRow(row[0], *(float(v) for v in row[1:])))
            except ValueError as exc:
                raise SchemaError(f"row {rownum}: non-numeric value ({exc})") from None
        return rows
