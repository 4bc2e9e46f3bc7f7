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
from itertools import count, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _HOMES
from .errors import SchemaError, decode_utf8

__all__ = _HOMES["formats"]

AGE_STARTS = tuple(range(0, 85, 5))
MALE_COHORTS = tuple(f"m{age:02d}" for age in AGE_STARTS)
FEMALE_COHORTS = tuple(f"f{age:02d}" for age in AGE_STARTS)
COHORTS = MALE_COHORTS + FEMALE_COHORTS


def _csv_rows(
    source: str | Path | IO[str], columns: Sequence[str], bad_header: str, skip: Callable[[str], None] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row of a CSV after its header.

    A path is read whole and checked as UTF-8 first, so that a bad byte
    anywhere fails the file before any row does; csv.reader then reads the
    bytes through a TextIOWrapper, which decodes them a chunk at a time and
    splits lines as a StringIO with newline="" would, without holding the
    whole text at 4 bytes a character.  An open stream is used as it is; a
    BOM is dropped from either.  A header that, stripped, is not ``columns``
    raises SchemaError: naming its first wrong column if it has the right
    length, else bad_header with ``{n}`` in it set to its length.  A row
    csv.reader cannot read (a field too large, a NUL on 3.10) raises
    SchemaError naming the row, or with ``skip`` given is passed to it as
    ``row N: ...`` and the rows after it are read on.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes().removeprefix(b"\xef\xbb\xbf")
        decode_utf8(data, source, csv_lines=True)
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    reader = csv.reader(source)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise SchemaError(f"row 1: {exc}") from None
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
    for rownum in count(2):  # not enumerate, which gives a row read after a csv.Error the failed row's number
        try:
            row = next(reader, None)
        except csv.Error as exc:
            if skip is None:
                raise SchemaError(f"row {rownum}: {exc}") from None
            skip(f"row {rownum}: {exc}")
            continue
        if row is None:
            return
        if row and not (len(row) == 1 and row[0].strip() == ""):
            yield rownum, row


class _Lines(list):
    """A list that csv.writer writes to: each row it writes is one item."""

    write = list.append


def _csv_text(header: Sequence[str], rows: Iterable[tuple], fmt: str) -> str:
    """A header and rows as CSV text, each line ended by "\n".

    Each row is a tuple of a label and one or more values, and ``fmt`` is the
    format of the values, one ``%`` conversion each, joined by commas
    ("%d,%.6f").  csv.writer writes the header and quotes each label by the
    rules of the running Python (3.13 quotes a bare CR, 3.10 to 3.12 do not);
    the values are written as ``fmt % values``, the text of numbers, which
    holds no character that needs quoting, so each row costs one ``%`` and
    no call per field.
    """
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(header)
    rows = list(rows)
    writer.writerows(zip(map(itemgetter(0), rows), repeat("")))  # each label as csv.writer quotes it, then ",\n"
    head, *starts = lines
    bodies = map(f"{fmt}\n".__mod__, map(itemgetter(slice(1, None)), rows))
    return head + "".join(map(str.__add__, map(str.removesuffix, starts, repeat("\n")), bodies))


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


INDEX_COLUMNS = IndexRow._fields


def write_index_csv(rows: Sequence[IndexRow], sink: str | Path | IO[str] | None) -> None:
    """Write rows as CSV with the fixed column order of INDEX_COLUMNS (sink None: stdout)."""
    _write_text(_csv_text(INDEX_COLUMNS, rows, ",".join(["%.6f"] * (len(INDEX_COLUMNS) - 1))), sink)


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
