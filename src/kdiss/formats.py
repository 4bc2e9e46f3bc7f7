"""Text formats: cohort names, CSV sources, the index CSV.

The report path (``kdiss report``) and the increment store read and write
only these formats, so they start without loading the engine.  Every command
output but the increment store leaves through ``_write_text``, every
message through ``_write_stderr``, and every output CSV is ``_csv_text``.
"""

from __future__ import annotations

import csv
import io
import sys
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

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

    A path is read whole and decoded as UTF-8, an open stream is used as it
    is; a BOM is dropped from either.  A header that, stripped, is not
    ``columns`` raises SchemaError: naming its first wrong column if it has
    the right length, else bad_header with ``{n}`` in it set to its length.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes().removeprefix(b"\xef\xbb\xbf")
        source = io.StringIO(decode_utf8(data, source), newline="")
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: missing header row")
    if header:  # a blank first line is an empty header
        header[0] = header[0].removeprefix("\ufeff")  # a stream keeps the BOM a path loses
    names = [h.strip() for h in header]
    if names != list(columns):
        if len(names) != len(columns):
            raise SchemaError(bad_header.format(n=len(header)))
        col, got, want = next((i, h, c) for i, (h, c) in enumerate(zip(names, columns), start=1) if h != c)
        raise SchemaError(f"bad header: column {col} is {got!r}, expected {want!r}")
    for rownum, row in enumerate(reader, start=2):
        if row and not (len(row) == 1 and row[0].strip() == ""):
            yield rownum, row


class _Lines(list):
    """A list that csv.writer writes to: each row it writes is one item."""

    write = list.append


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV text, each line ended by "\n".

    The rows are all of one length, two fields or more.  csv.writer writes
    the header and quotes each row's first field, the label, by the rules of
    the running Python (3.13 quotes a bare CR, 3.10 to 3.12 do not).  Every
    other field is a number or the text of one, which holds no character
    that needs quoting, so it is written as str(field): the text csv.writer
    would write, without its per-character check.  The rows are taken apart
    into columns, so that no Python code runs per row.
    """
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(header)
    labels, *columns = list(zip(*rows)) or [()]
    writer.writerows(zip(labels, repeat("")))  # each label as csv.writer quotes it, then ",\n"
    head, *starts = lines
    if not starts:
        return head
    starts = map(str.removesuffix, starts, repeat("\n"))
    bodies = map(",".join, zip(*[map(str, column) for column in columns]))
    return head + "\n".join(map(str.__add__, starts, bodies)) + "\n"


def _six_places(column: Iterable[float]) -> Iterator[str]:
    """Each value in the "%.6f" format of the numeric output columns."""
    return map(format, column, repeat(".6f"))


def _write_text(text: str, sink: str | Path | IO[str] | None = None) -> None:
    """Write text as UTF-8 to a path or, with sink None, to stdout; or to an open text stream.

    Newlines are written as given, and stdout and stderr get the bytes a path
    would, whatever the locale's encoding (a stream put in their place that
    has no byte buffer, such as a StringIO, gets the text).
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    sink = sys.stdout if sink is None else sink
    if sink in (sys.stdout, sys.stderr) and hasattr(sink, "buffer"):
        sink.flush()
        sink.buffer.write(text.encode("utf-8"))
        sink.buffer.flush()
    else:
        sink.write(text)


def _write_stderr(lines: Iterable[str]) -> None:
    """Write each line, ended by "\n", to stderr, as _write_text writes stdout."""
    _write_text("".join(f"{line}\n" for line in lines), sys.stderr)


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


def write_index_csv(rows: Sequence[IndexRow], sink: str | Path | IO[str] | None) -> None:
    """Write rows as CSV with the fixed column order of INDEX_COLUMNS (sink None: stdout)."""
    names, *values = list(zip(*rows)) or [()] * len(INDEX_COLUMNS)
    _write_text(_csv_text(INDEX_COLUMNS, zip(names, *map(_six_places, values))), sink)


def read_index_csv(source: str | Path | IO[str]) -> list[IndexRow]:
    """Read back an index CSV produced by write_index_csv."""
    rows = []
    for rownum, row in _csv_rows(source, INDEX_COLUMNS, f"bad header: expected {','.join(INDEX_COLUMNS)}"):
        if len(row) != len(INDEX_COLUMNS):
            raise SchemaError(f"row {rownum}: expected {len(INDEX_COLUMNS)} fields, got {len(row)}")
        try:
            rows.append(IndexRow(row[0], *(float(v) for v in row[1:])))
        except ValueError as exc:
            raise SchemaError(f"row {rownum}: non-numeric value ({exc})") from None
    return rows
