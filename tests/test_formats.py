"""CSV text out and in.

Out: ``_csv_text`` lets ``csv.writer`` quote only each row's first field,
the label, and writes the values as one ``fmt % values``.  The reference
below formats each value with its own ``%`` spec and runs ``csv.writer`` on
every field, on the same Python, since its quoting rules differ by version.

In: a CSV path is read through a ``TextIOWrapper`` over its bytes; every
reader must get the rows ``csv.reader(io.StringIO(text, newline=""))`` gives.
"""

import csv
import io
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kdiss.cli
import kdiss.formats
import kdiss.pyramids
import kdiss.report
from kdiss.cli import main
from kdiss.errors import SchemaError
from kdiss.formats import COHORTS, INDEX_COLUMNS, _csv_rows, _csv_text, read_index_csv
from kdiss.pyramids import ingest, long_to_wide
from kdiss.report import read_indicators


def reference_csv_text(header, rows, fmt):
    """csv.writer on every field, each value first formatted by its own spec in fmt."""
    specs = fmt.split(",")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for label, *values in rows:
        writer.writerow([label, *(spec % (value,) for spec, value in zip(specs, values, strict=True))])
    return buffer.getvalue()


ODD_LABELS = [",", '"', "\r", "\n", "a\r\nb", " leading space", "", "Việt Nam", 'Korea, "Rep."', "x,\"y\"\n"]
labels = st.text() | st.sampled_from(ODD_LABELS)
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16]
)
# the values each spec takes: "%d" whole numbers, the float specs floats and ints a float holds, "%s" text
VALUES_BY_SPEC = {
    "%d": st.integers() | st.sampled_from([1e16, -0.0]),
    "%.6f": floats | st.integers(min_value=-(2**64), max_value=2**64),
    "%.10g": floats | st.integers(min_value=-(2**64), max_value=2**64),
    "%r": floats | st.integers(),
    "%s": floats.map(lambda value: f"{value:.6f}"),
}
tables = st.lists(st.sampled_from(list(VALUES_BY_SPEC)), min_size=1, max_size=6).flatmap(
    lambda specs: st.tuples(
        st.just(",".join(specs)), st.lists(st.tuples(labels, *[VALUES_BY_SPEC[spec] for spec in specs]), max_size=8)
    )
)


@given(header=st.lists(st.text() | st.sampled_from(ODD_LABELS), min_size=2, max_size=5), table=tables)
def test_csv_text_matches_csv_writer(header, table):
    fmt, rows = table
    assert _csv_text(header, iter(rows), fmt) == reference_csv_text(header, rows, fmt)


def test_csv_text_matches_csv_writer_on_odd_labels():
    rows = [(label, 1.5, -0.0, math.nan, -math.inf, 5e-324, 7, "0.100000") for label in ODD_LABELS]
    fmt = "%r,%r,%r,%r,%r,%d,%s"
    text = _csv_text(["name", "a", "b", "c", "d", "e", "f", "g"], rows, fmt)
    assert text == reference_csv_text(["name", "a", "b", "c", "d", "e", "f", "g"], rows, fmt)
    assert '\n"Korea, ""Rep.""",1.5,-0.0,nan,-inf,5e-324,7,0.100000\n' in text


@pytest.mark.parametrize(
    "spec, want",
    [
        ("%d", "7,-3,0,100000000000000000000,10000000000000000,0"),
        ("%.6f", "7.000000,nan,inf,-inf,-0.000000,10000000000000000.000000,0.000000"),
        ("%.10g", "7,nan,inf,-inf,-0,1e+16,4.940656458e-324"),
        ("%r", "7,nan,inf,-inf,-0.0,1e+16,5e-324"),
    ],
)
def test_csv_text_formats_every_value_with_its_spec(spec, want):
    """Ints, nan, both infinities, -0.0 and 1e16 under each format the outputs use
    ("%d" takes whole numbers only: nan and the infinities have no integer)."""
    values = (7, -3, 0, 10**20, 1e16, -0.0) if spec == "%d" else (7, math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324)
    fmt = ",".join([spec] * len(values))
    rows = [("a", *values), ('b,"c"', *values)]
    text = _csv_text(["name", *map(str, range(len(values)))], rows, fmt)
    assert text == reference_csv_text(["name", *map(str, range(len(values)))], rows, fmt)
    assert text.splitlines()[1:] == [f"a,{want}", f'"b,""c""",{want}']


def test_csv_text_of_no_rows_is_its_header():
    assert _csv_text(["name", "a"], iter([]), "%r") == "name,a\n"


def test_csv_rows_of_empty_input_name_the_missing_header():
    with pytest.raises(SchemaError, match="^empty input: missing header row$"):
        list(_csv_rows(io.StringIO(""), ["name"], "bad header"))


NAMES = ['Korea, "Rep."', "Việt Nam", "Lao\nPDR", "Côte d'Ivoire", "Chile"]


def _run_every_writer(raw, out):
    """Run each command that writes an output CSV; {file name: bytes}."""
    out.mkdir()
    data = out / "normalized.csv"
    commands = [
        ("ingest", raw, "--out", data),
        ("batch", data, "--model", "exp:0.30", "--delta", "0.001", "--out", out / "batch.csv"),
        ("batch", data, "--query", NAMES[1], "--delta", "0.001", "--out", out / "batch-query.csv"),
        ("punif", data, "--delta", "0.001", "--out", out / "punif.csv"),
        ("mu", data, NAMES[0], NAMES[4], "--delta", "0.001", "--out", out / "index.csv"),
        ("compare", data, NAMES[0], NAMES[2], "--delta", "0.001", "--out", out / "increments.csv"),
        ("model", "exp:0.30", "--out", out / "model.csv"),
        ("report", "--indexes", out / "index.csv", "--x", "mu", "--y", "p_un", "--out", out / "report.csv"),
    ]
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0, argv
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_odd_names_pass_through_the_cli_as_csv_writer_writes_them(tmp_path, monkeypatch):
    raw = tmp_path / "raw.csv"
    rows = [[name, *(str(10 + (3 * i + 7 * j) % 17) for j in range(len(COHORTS)))] for i, name in enumerate(NAMES)]
    text = reference_csv_text(["name", *COHORTS], rows, ",".join(["%s"] * len(COHORTS)))
    raw.write_text(text, encoding="utf-8", newline="")
    got = _run_every_writer(raw, tmp_path / "got")
    for module in (kdiss.cli, kdiss.formats, kdiss.pyramids, kdiss.report):
        monkeypatch.setattr(module, "_csv_text", reference_csv_text)
    want = _run_every_writer(raw, tmp_path / "want")
    assert got == want
    for name in ("normalized.csv", "batch.csv", "batch-query.csv", "punif.csv", "index.csv", "report.csv"):
        assert '"Korea, ""Rep."""'.encode() in got[name] and '"Lao\nPDR"'.encode() in got[name], name


# Each reader: its header, the data lines of one named object, and what it reads
# back as a comparable value.  A name may hold any character, so it is quoted.
def _quoted(name):
    return '"' + name.replace('"', '""') + '"'


READERS = {
    ingest: (
        ",".join(["name", *COHORTS]),
        lambda name, i: [_quoted(name) + "".join(f",{(i * 7 + j) % 13 + 1}" for j in range(34))],
        lambda table: (table.names, table.values, table.row_errors),
    ),
    long_to_wide: (
        "name,sex,cohort,value",
        lambda name, i: [f"{_quoted(name)},{c[0]},{c[1:]},{(i * 7 + j) % 13 + 1}" for j, c in enumerate(COHORTS)],
        lambda table: (table.names, table.values, table.row_errors),
    ),
    read_index_csv: (
        ",".join(INDEX_COLUMNS),
        lambda name, i: [_quoted(name) + "".join(f",{i + j / 8}" for j in range(8))],
        list,
    ),
    read_indicators: (
        "name,indicator,value",
        lambda name, i: [f"{_quoted(name)},gdp,{i}", f"{_quoted(name)},birth_rate,{i + 0.5}"],
        lambda table: table.values,
    ),
}
CHUNK = 8192  # the bytes TextIOWrapper decodes at a time


def _csv_bytes(reader, names, newline, pad=0):
    header, lines_of, _ = READERS[reader]
    names = ["p" * pad + names[0], *names[1:]]
    lines = [header, *(line for i, name in enumerate(names) for line in lines_of(name, i))]
    return (newline.join(lines) + newline).encode("utf-8")


def _straddling(reader, names, newline, piece):
    """The CSV bytes, its first name padded so that piece starts one byte before the end of the first chunk."""
    for pad in range(400):
        data = _csv_bytes(reader, names, newline, pad)
        if data[CHUNK - 1 : CHUNK - 1 + len(piece)] == piece:
            return data
    raise AssertionError("no padding puts the piece across the chunk boundary")


PLAIN = [f"n{i:03d}" for i in range(3)]
MANY = [f"Việt Nam {i:03d}" for i in range(200)]  # past the first chunk for every reader
CASES = {
    "LF": lambda reader: _csv_bytes(reader, PLAIN, "\n"),
    "CRLF": lambda reader: _csv_bytes(reader, PLAIN, "\r\n"),
    "CR": lambda reader: _csv_bytes(reader, PLAIN, "\r"),
    "quoted CR and LF": lambda reader: _csv_bytes(reader, ["a\rb", "c\nd", "e\r\nf", 'g,"h"\r'], "\r\n"),
    "quoted CR and LF, CR ends": lambda reader: _csv_bytes(reader, ["a\rb", "c\nd", "e\r\nf"], "\r"),
    "BOM": lambda reader: b"\xef\xbb\xbf" + _csv_bytes(reader, PLAIN, "\n"),
    "CRLF across the first chunk": lambda reader: _straddling(reader, MANY, "\r\n", b"\r\n"),
    "character across the first chunk": lambda reader: _straddling(reader, MANY, "\n", "ệ".encode()),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("reader", list(READERS), ids=lambda reader: reader.__name__)
def test_path_reader_gets_the_rows_of_a_string_stream(tmp_path, reader, case):
    """Read from a path, a CSV gives the rows, and the reader the result, that
    csv.reader over io.StringIO(text, newline="") gives."""
    data = CASES[case](reader)
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    text = data.decode("utf-8")  # a stream keeps the BOM, which the reader drops
    columns = READERS[reader][0].split(",")
    got = list(_csv_rows(path, columns, "bad header"))
    assert got == list(_csv_rows(io.StringIO(text, newline=""), columns, "bad header"))
    reference = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    assert [row for _, row in got] == [row for row in reference[1:] if row]
    comparable = READERS[reader][2]
    assert comparable(reader(path)) == comparable(reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize("reader", list(READERS), ids=lambda reader: reader.__name__)
def test_bad_byte_past_the_first_chunk_fails_the_file_before_any_row(tmp_path, reader, newline):
    """A bad byte beyond the first chunk fails the whole file, naming its line,
    although a row before it has the wrong number of fields."""
    data = _csv_bytes(reader, MANY, newline)
    lines = data.split(newline.encode())
    lines[2] += b",1"  # a row error on line 3
    at = next(i for i in range(len(lines)) if sum(map(len, lines[: i + 1])) > CHUNK) + 5
    lines[at] = lines[at].replace("ệ".encode(), b"\xea", 1)  # Latin-1, not UTF-8
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.encode().join(lines))
    message = re.escape(f"{path}:{at + 1}: not UTF-8 (invalid continuation byte)")
    with pytest.raises(SchemaError, match=message):
        reader(path)
    if reader is ingest:
        with pytest.raises(SchemaError, match=message):
            ingest(path, lenient=True)


# Each reader: its CSV text with two numeric cells spelled a and b, and those two cells as it reads them back
NUMERIC_CELLS = {
    ingest: (
        lambda a, b: f"{READERS[ingest][0]}\nx,{a},{b}{',1' * 32}\n",
        lambda table: table.values[0][:2],
    ),
    long_to_wide: (
        lambda a, b: "name,sex,cohort,value\n"
        + "".join(f"x,{c[0]},{c[1:]},{v}\n" for c, v in zip(COHORTS, [a, b, *["1"] * 32])),
        lambda table: table.values[0][:2],
    ),
    read_index_csv: (
        lambda a, b: f"{READERS[read_index_csv][0]}\nx,{a},{b}{',0' * 6}\n",
        lambda rows: (rows[0].k_mt, rows[0].k_ut),
    ),
    read_indicators: (
        lambda a, b: f"name,indicator,value\nx,u,{a}\nx,v,{b}\n",
        lambda table: (table.get("x", "u"), table.get("x", "v")),
    ),
}


@pytest.mark.parametrize("reader", list(NUMERIC_CELLS), ids=lambda reader: reader.__name__)
def test_every_reader_reads_a_numeric_cell_with_float(tmp_path, reader):
    """A numeric cell is read by float(), so "1_0" reads as 10.0 and " 1 " as 1.0."""
    text_of, cells = NUMERIC_CELLS[reader]
    path = tmp_path / "in.csv"
    got = []
    for a, b in (("1_0", " 1 "), ("10", "1")):
        path.write_text(text_of(a, b), encoding="utf-8")
        got.append(cells(reader(path)))
    assert got[0] == got[1]
    assert got[0][0] == pytest.approx(10 * got[0][1])
