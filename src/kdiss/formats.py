"""Text formats that need no numpy: cohort names, CSV sources, the index CSV.

The report path (``kdiss report``) and the increment store read and write
only these formats, so they start without loading numpy.  ``kdiss.pyramids``
and ``kdiss.indexes`` re-export the names defined here.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

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


def _csv_rows(source: str | Path | IO[str], columns: Sequence[str], bad_header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row of a CSV after its header.

    A path is read whole and decoded as UTF-8 (a BOM is dropped), an open
    stream is used as it is.  A header that, stripped, is not ``columns``
    raises SchemaError(bad_header), with ``{n}`` in it set to its length.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes().removeprefix(b"\xef\xbb\xbf")
        source = io.StringIO(decode_utf8(data, source), newline="")
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: missing header row")
    if [h.strip() for h in header] != list(columns):
        raise SchemaError(bad_header.format(n=len(header)))
    for rownum, row in enumerate(reader, start=2):
        if row and not (len(row) == 1 and row[0].strip() == ""):
            yield rownum, row


def _write_text(text: str, sink: str | Path | IO[str]) -> None:
    """Write text to a path (UTF-8, newlines as given) or to an open stream."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)


class IndexRow(NamedTuple):
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


def write_index_csv(rows: Sequence[IndexRow], sink: str | Path | IO[str]) -> None:
    """Write rows as CSV with the fixed column order of INDEX_COLUMNS."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(INDEX_COLUMNS)
    writer.writerows([row.name, *(format(value, ".6f") for value in row[1:])] for row in rows)
    _write_text(buffer.getvalue(), sink)


def read_index_csv(source: str | Path | IO[str]) -> list[IndexRow]:
    """Read back an index CSV produced by write_index_csv."""
    rows = []
    for rownum, row in _csv_rows(source, INDEX_COLUMNS, f"bad header: expected {','.join(INDEX_COLUMNS)}"):
        if len(row) != len(INDEX_COLUMNS):
            raise SchemaError(f"row {rownum}: expected {len(INDEX_COLUMNS)} fields")
        try:
            rows.append(IndexRow(row[0], *(float(v) for v in row[1:])))
        except ValueError as exc:
            raise SchemaError(f"row {rownum}: non-numeric value ({exc})") from None
    return rows
