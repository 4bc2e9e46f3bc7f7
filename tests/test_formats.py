"""Output CSV text: ``_csv_text`` writes what ``csv.writer`` writes.

``_csv_text`` lets ``csv.writer`` quote only each row's first field, the
label, and writes the numeric fields as ``str``.  The reference below runs
``csv.writer`` on every field, on the same Python, since its quoting rules
differ by version.
"""

import csv
import io
import math

from hypothesis import given
from hypothesis import strategies as st

import kdiss.cli
import kdiss.formats
import kdiss.pyramids
import kdiss.report
from kdiss.cli import main
from kdiss.formats import COHORTS, _csv_text


def reference_csv_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


ODD_LABELS = [",", '"', "\r", "\n", "a\r\nb", " leading space", "", "Việt Nam", 'Korea, "Rep."', "x,\"y\"\n"]
labels = st.text() | st.sampled_from(ODD_LABELS)
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
numbers = (
    floats
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308])
    | st.integers()
    | floats.map(lambda value: f"{value:.6f}")
)
rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.tuples(labels, *[numbers] * width), max_size=8)
)


@given(header=st.lists(st.text() | st.sampled_from(ODD_LABELS), min_size=2, max_size=5), rows=rows)
def test_csv_text_matches_csv_writer(header, rows):
    assert _csv_text(header, iter(rows)) == reference_csv_text(header, rows)


def test_csv_text_matches_csv_writer_on_odd_labels():
    rows = [(label, 1.5, -0.0, math.nan, -math.inf, 5e-324, 7, "0.100000") for label in ODD_LABELS]
    text = _csv_text(["name", "a", "b", "c", "d", "e", "f", "g"], rows)
    assert text == reference_csv_text(["name", "a", "b", "c", "d", "e", "f", "g"], rows)
    assert '\n"Korea, ""Rep.""",1.5,-0.0,nan,-inf,5e-324,7,0.100000\n' in text


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
        ("model", "--kind", "exp", "--out", out / "model.csv"),
        ("report", "--indexes", out / "index.csv", "--x", "mu", "--y", "p_un", "--out", out / "report.csv"),
    ]
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0, argv
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_odd_names_pass_through_the_cli_as_csv_writer_writes_them(tmp_path, monkeypatch):
    raw = tmp_path / "raw.csv"
    rows = [[name, *(str(10 + (3 * i + 7 * j) % 17) for j in range(len(COHORTS)))] for i, name in enumerate(NAMES)]
    raw.write_text(reference_csv_text(["name", *COHORTS], rows), encoding="utf-8", newline="")
    got = _run_every_writer(raw, tmp_path / "got")
    for module in (kdiss.cli, kdiss.formats, kdiss.pyramids, kdiss.report):
        monkeypatch.setattr(module, "_csv_text", reference_csv_text)
    want = _run_every_writer(raw, tmp_path / "want")
    assert got == want
    for name in ("normalized.csv", "batch.csv", "batch-query.csv", "punif.csv", "index.csv", "report.csv"):
        assert '"Korea, ""Rep."""'.encode() in got[name] and '"Lao\nPDR"'.encode() in got[name], name
