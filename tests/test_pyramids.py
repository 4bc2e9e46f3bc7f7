import csv
import io
import math
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiss.cli import main
from kdiss.errors import DomainError, SchemaError
from kdiss.formats import COHORTS, INDEX_COLUMNS, read_index_csv
from kdiss.pyramids import (
    PyramidTable,
    _normalize_row,
    cohort_totals,
    exponential_model,
    ingest,
    long_to_wide,
    normalize,
    uniform_model,
    write_pyramid_csv,
)
from kdiss.report import read_indicators

from conftest import allclose


def wide_csv(rows):
    lines = ["name," + ",".join(COHORTS)]
    for name, values in rows:
        lines.append(name + "," + ",".join(str(v) for v in values))
    return io.StringIO("\n".join(lines) + "\n")


class TestNormalize:
    def test_equal_values(self):
        out = normalize([1.0] * 34)
        assert allclose(out, 100.0 / 34.0)

    def test_single_mass(self):
        out = normalize([2.0] + [0.0] * 33)
        assert out[0] == 100.0
        assert all(v == 0.0 for v in out[1:])

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_invariant(self, c):
        base = [3.0, 1.0, 0.0, 5.5]
        assert allclose(normalize([v * c for v in base]), normalize(base), rtol=1e-12)

    def test_sum_is_100(self, rng):
        out = normalize([rng.uniform(0, 10) for _ in range(34)])
        assert type(out) is tuple and set(map(type, out)) == {float}
        assert abs(math.fsum(out) - 100.0) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=1e-300, max_value=1e300),
                st.floats(min_value=0.0, max_value=sys.float_info.min, allow_subnormal=True),
                st.floats(min_value=1e300, max_value=sys.float_info.max),
            ),
            min_size=1,
            max_size=34,
        ).filter(any)
    )
    def test_extreme_magnitudes(self, raw):
        # a sum that overflows, or one whose reciprocal does, must not zero
        # or blow up the row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(raw)
        assert all(map(math.isfinite, out))
        assert math.fsum(out) == pytest.approx(100.0, rel=1e-12)

    def test_overflowing_sum(self):
        out = normalize([1e308, 1e308, 1.0])
        assert out[0] == out[1] == 50.0
        assert 0.0 < out[2] < 1e-300

    @pytest.mark.parametrize(
        "values, problem",
        [
            ([math.nan, -1.0], "values must be finite"),
            ([-1.0, math.nan], "values must be finite"),
            ([math.inf, -math.inf], "values must be finite"),  # math.fsum raises ValueError
            ([math.inf, -1.0], "values must be finite"),
            ([1e308, 1e308, -1.0], "values must be non-negative"),  # math.fsum overflows
            ([0.0, -0.0], "cannot normalize an all-zero row"),
        ],
    )
    def test_row_problems_keep_their_order(self, values, problem):
        """A non-finite value is named before a negative one, and a negative one
        before an all-zero row, whatever the sum of the row does."""
        assert _normalize_row(values) == ((), problem)

    def test_overflowing_row_keeps_its_shares(self):
        shares, problem = _normalize_row([1e308, 1e308, 1.0])
        assert problem == "" and [v.hex() for v in shares] == [v.hex() for v in (50.0, 50.0, 4.999999999999999e-307)]

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            normalize([0.0] * 34)

    def test_text_is_not_a_sequence_of_values(self):
        with pytest.raises(SchemaError, match="^expected a non-empty 1-d sequence of values$"):
            normalize("ab")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            normalize([1.0] * 33 + [-0.1])


class TestIngest:
    def test_equal_counts(self):
        table = ingest(wide_csv([("aa", [7] * 34)]))
        assert allclose(table.record("aa").param_values, 100.0 / 34.0)
        assert round(table.record("aa").param_values[0], 4) == 2.9412

    def test_exact_shares_unchanged(self):
        values = [50.0, 25.0, 25.0] + [0.0] * 31
        table = ingest(wide_csv([("aa", values)]))
        assert table.record("aa").param_values == tuple(values)

    def test_negative_cell_names_row(self):
        stream = wide_csv([("ok", [1] * 34), ("bad", [1] * 33 + [-2])])
        with pytest.raises(DomainError, match="row 3"):
            ingest(stream)

    def test_all_zero_row_rejected(self):
        with pytest.raises(DomainError, match="row 2"):
            ingest(wide_csv([("zz", [0] * 34)]))

    def test_missing_columns(self):
        stream = io.StringIO("name,m00,m05\naa,1,2\n")
        with pytest.raises(SchemaError, match=r"\(35 columns\), got 3 columns"):
            ingest(stream)

    def test_wrong_column_name_is_named(self):
        text = wide_csv([("aa", [1] * 34)]).getvalue().replace(",m05,", ",m06,", 1)
        with pytest.raises(SchemaError, match=r"^bad header: column 3 is 'm06', expected 'm05'$"):
            ingest(io.StringIO(text))

    def test_utf8_bom_accepted_on_a_stream(self):
        stream = io.StringIO("\ufeff" + wide_csv([("aa", [7] * 34)]).getvalue())
        assert ingest(stream).names == ("aa",)

    def test_duplicate_name(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ingest(wide_csv([("aa", [1] * 34), ("aa", [2] * 34)]))

    def test_non_numeric_value(self):
        stream = wide_csv([("aa", ["x"] + [1] * 33)])
        with pytest.raises(SchemaError, match="row 2"):
            ingest(stream)

    def test_lenient_collects_errors(self):
        stream = wide_csv([("ok", [1] * 34), ("bad", [0] * 34), ("ok2", [2] * 34)])
        table = ingest(stream, lenient=True)
        assert table.names == ("ok", "ok2")
        assert len(table.row_errors) == 1
        assert "row 3" in table.row_errors[0]

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + wide_csv([("aa", [7] * 34)]).getvalue().encode("utf-8"))
        assert ingest(path).names == ("aa",)

    def test_roundtrip_idempotent(self, table):
        # re-normalizing an already-normalized row can move values by at
        # most one rounding step (the float sum is within an ulp of 100)
        buffer = io.StringIO()
        write_pyramid_csv(table, buffer)
        again = ingest(io.StringIO(buffer.getvalue()))
        for name in table.names:
            assert allclose(table.record(name).param_values, again.record(name).param_values, rtol=1e-13, atol=0.0)


class TestLongToWide:
    def test_roundtrip(self):
        lines = ["name,sex,cohort,value"]
        for sex in ("m", "f"):
            for age in range(0, 85, 5):
                lines.append(f"aa,{sex},{age:02d},{1 + age / 100}")
        table = long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert table.names == ("aa",)
        assert abs(math.fsum(table.record("aa").param_values) - 100.0) < 1e-9

    def test_utf8_bom_accepted(self, tmp_path):
        lines = ["name,sex,cohort,value"]
        lines += [f"aa,{sex},{age:02d},1" for sex in ("m", "f") for age in range(0, 85, 5)]
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode("utf-8"))
        assert long_to_wide(path).names == ("aa",)

    def test_missing_cohort(self):
        lines = ["name,sex,cohort,value", "aa,m,00,5"]
        with pytest.raises(SchemaError, match="missing"):
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))

    def test_duplicate_cell(self):
        lines = ["name,sex,cohort,value", "aa,m,00,5", "aa,m,00,6"]
        with pytest.raises(SchemaError, match="duplicate"):
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("name", ["", " ", "\t"])
    def test_empty_name_names_its_row(self, name):
        # the message ingest gives the same row of a wide CSV
        lines = ["name,sex,cohort,value", "aa,m,00,5", f"{name},m,00,5"]
        with pytest.raises(SchemaError) as exc_info:
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc_info.value) == "row 3: empty name"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("aa,m,00", "row 3: expected 4 fields, got 3"),
            ("aa,x,00,5", "row 3: sex must be 'm' or 'f', got 'x'"),
            ("aa,m,07,5", "row 3: unknown cohort '07'"),
            ("aa,m,05,lots", "row 3: non-numeric value 'lots'"),
            ("aa,m,00,6", "row 3: duplicate cell ('aa', m00)"),
        ],
    )
    def test_row_error_message(self, line, message):
        lines = ["name,sex,cohort,value", "aa,m,00,5", line]
        with pytest.raises(SchemaError) as exc_info:
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "first, rest, problem",
        [
            ("0", "0", "cannot normalize an all-zero row"),
            ("inf", "1", "values must be finite"),
            ("-1", "1", "values must be non-negative"),
        ],
    )
    def test_bad_pyramid_is_named(self, first, rest, problem):
        rows = {"A": ["1"] * 34, "B": [first] + [rest] * 33, "C": ["1"] * 34}
        lines = ["name,sex,cohort,value"]
        lines += [f"{name},{c[0]},{c[1:]},{v}" for name, row in rows.items() for c, v in zip(COHORTS, row)]
        with pytest.raises(DomainError) as exc_info:
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc_info.value) == f"pyramid 'B': {problem}"


def reference_normalize(raw):
    """normalize() as one row at a time in numpy, the way ingest worked before it
    normalized whole tables in one array pass; the total is the exact sum rounded once."""
    import numpy as np

    values = np.asarray(raw, dtype=float)
    if np.any(~np.isfinite(values)):
        raise DomainError("values must be finite")
    if np.any(values < 0):
        raise DomainError("values must be non-negative")
    try:  # the exact sum, rounded once
        total = float(sum(map(Fraction, values.tolist())))
    except OverflowError:
        total = math.inf
    if total == 0.0:
        raise DomainError("cannot normalize an all-zero row")
    scale = 100.0 / total
    if not (math.isfinite(total) and math.isfinite(scale)):
        values = values / values.max()
        scale = 100.0 / float(sum(map(Fraction, values.tolist())))
    return values * scale


def reference_ingest(text, lenient):
    """ingest() one row at a time: (names, (N, 34) shares, row_errors)."""
    import numpy as np

    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows, errors = {}, []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        try:
            if len(row) != 35:
                raise SchemaError(f"expected 35 fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise SchemaError("empty name")
            if name in rows:
                raise SchemaError(f"duplicate name {name!r}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise SchemaError(f"non-numeric value ({exc})") from None
            rows[name] = reference_normalize(values)
        except (SchemaError, DomainError) as exc:
            if not lenient:
                raise type(exc)(f"row {rownum}: {exc}") from None
            errors.append(f"row {rownum}: {exc}")
    return tuple(rows), np.array(list(rows.values()), dtype=float).reshape(len(rows), 34), tuple(errors)


# each row's values are all of one magnitude, so some sums overflow and some
# are so small that their reciprocal does
_MAGNITUDES = (
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=1e300, max_value=sys.float_info.max),
    st.floats(min_value=0.0, max_value=sys.float_info.min, allow_subnormal=True),
)
_BAD_CELLS = {"text": ["x1", ""], "negative": ["-0.5", "-1e300"], "nonfinite": ["inf", "-inf", "nan", "1e400"]}
_DEFECTS = ("none", "none", "none", "short", "long", "empty name", "all zero", "blank", *_BAD_CELLS)


@st.composite
def wide_line(draw):
    """One data line of a wide CSV: a good row, or a row with one injected defect."""
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "blank":
        return draw(st.sampled_from(["", " "]))
    # a small name pool repeats names, so rows duplicate accepted and skipped rows
    name = "" if defect == "empty name" else draw(st.sampled_from(["aa", "bb", "cc", " aa ", "dd"]))
    cells = [repr(v) for v in draw(st.lists(draw(st.sampled_from(_MAGNITUDES)), min_size=34, max_size=34))]
    at = draw(st.integers(0, 33))
    if defect == "short":
        cells = cells[:at]
    elif defect == "long":
        cells.append("1")
    elif defect == "all zero":
        cells = ["0"] * 34
    elif defect in _BAD_CELLS:
        cells[at] = draw(st.sampled_from(_BAD_CELLS[defect]))
    return ",".join([name, *cells])


class TestIngestReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(wide_line(), max_size=12), st.booleans())
    def test_ingest_matches_per_row_reference(self, lines, lenient):
        np = pytest.importorskip("numpy")
        text = "\n".join(["name," + ",".join(COHORTS), *lines]) + "\n"
        try:
            want = reference_ingest(text, lenient)
        except (SchemaError, DomainError) as exc:
            with pytest.raises(type(exc)) as got:
                ingest(io.StringIO(text), lenient=lenient)
            assert str(got.value) == str(exc)
            return
        table = ingest(io.StringIO(text), lenient=lenient)
        assert table.names == want[0]
        got = np.array(table.values, dtype=float).reshape(len(table), 34)
        assert got.shape == want[1].shape
        assert got.tobytes() == want[1].tobytes()
        assert table.row_errors == want[2]

    def test_normalize_rows_matches_per_row_reference(self):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(20260808)
        # every magnitude from subnormal to near the float max, one per row
        raw = rng.uniform(0.0, 1.0, (2000, 34)) * 10.0 ** rng.uniform(-320, 306, (2000, 1))
        for row in raw:
            got, problem = _normalize_row(row.tolist())
            assert problem == ""
            assert np.array(got).tobytes() == reference_normalize(row).tobytes()


class TestPyramidTable:
    def test_from_rows_keeps_order_and_values(self):
        rows = {"bb": normalize(range(1, 35)), "aa": normalize([1.0] * 34)}
        table = PyramidTable.from_rows(rows)
        assert table.names == ("bb", "aa")
        assert repr(table.values) == repr(tuple(rows.values()))
        assert len(PyramidTable.from_rows({})) == 0

    def test_rejects_mismatched_or_repeated_names(self):
        with pytest.raises(SchemaError):
            PyramidTable(("aa", "aa"), [[1.0] * 34] * 2)
        with pytest.raises(SchemaError):
            PyramidTable(("aa",), [[1.0] * 34] * 2)
        with pytest.raises(SchemaError, match="name not found"):
            PyramidTable(("aa",), [[1.0] * 34]).record("bb")
        with pytest.raises(SchemaError):
            PyramidTable._of_floats(("aa", "aa"), ((1.0,) * 34,) * 2)

    def test_rows_are_tuples_of_floats(self, table):
        # ingest's rows are kept as it built them; rows a caller passes in are converted
        long = io.StringIO("name,sex,cohort,value\n" + "".join(f"aa,{c[0]},{c[1:]},2\n" for c in COHORTS))
        for built in (table, long_to_wide(long)):
            assert all(type(row) is tuple and set(map(type, row)) == {float} for row in built.values)
        np = pytest.importorskip("numpy")  # last, as it skips without numpy
        converted = PyramidTable(("aa", "bb"), np.arange(68).reshape(2, 34))
        assert converted.values == tuple(tuple(map(float, range(i, i + 34))) for i in (0, 34))
        assert all(set(map(type, row)) == {float} for row in converted.values)


def test_non_utf8_names_its_line(tmp_path, capsys):
    cote = "C\xf4te".encode("latin-1")  # Latin-1, not UTF-8
    index_header = b"\xef\xbb\xbf" + ",".join(INDEX_COLUMNS).encode()  # a BOM must not shift the line count
    sources = {
        ingest: wide_csv([("aa", [1] * 34)]).getvalue().encode() + cote + b"," + b",".join([b"1"] * 34) + b"\n",
        long_to_wide: b"name,sex,cohort,value\naa,m,00,1\n" + cote + b",m,00,1\n",
        read_index_csv: index_header + b"\naa" + b",1" * 8 + b"\n" + cote + b",1" * 8,
        read_indicators: b"name,indicator,value\naa,gdp,1\n" + cote + b",gdp,2\n",
    }
    for reader, data in sources.items():
        path = tmp_path / f"{reader.__name__}.csv"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: not UTF-8 (invalid continuation byte)")):
            reader(path)
    for lenient in ([], ["--lenient"]):
        assert main(["ingest", str(tmp_path / "ingest.csv"), *lenient]) == 1
        assert "ingest.csv:3: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"], ids=["LF", "CR", "CRLF"])
def test_non_utf8_line_counts_every_csv_line_end(tmp_path, capsys, newline):
    """A bad byte on line 4 is named as on line 4 whether the lines end in LF,
    a bare CR or CRLF: the line ends a CSV reader splits at."""
    cote = "C\xf4te".encode("latin-1")  # Latin-1, not UTF-8
    sources = {
        ingest: [",".join(("name", *COHORTS)).encode(), b"aa" + b",1" * 34, b"bb" + b",2" * 34, cote + b",1" * 34],
        long_to_wide: [b"name,sex,cohort,value", b"aa,m,00,1", b"aa,m,05,1", cote + b",m,00,1"],
        read_index_csv: [",".join(INDEX_COLUMNS).encode(), b"aa" + b",1" * 8, b"bb" + b",1" * 8, cote + b",1" * 8],
        read_indicators: [b"name,indicator,value", b"aa,gdp,1", b"bb,gdp,1", cote + b",gdp,2"],
    }
    for reader, lines in sources.items():
        path = tmp_path / f"bad-{reader.__name__}.csv"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:4: not UTF-8 (invalid continuation byte)")):
            reader(path)
    assert main(["ingest", str(tmp_path / "bad-ingest.csv")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'bad-ingest.csv'}:4: not UTF-8 (invalid continuation byte)\n"


def test_blank_first_line_is_a_bad_header(tmp_path, capsys):
    """A CSV whose first line is blank has an empty header, which each reader rejects as such."""
    headers = {
        ingest: ",".join(("name", *COHORTS)),
        long_to_wide: "name,sex,cohort,value",
        read_index_csv: ",".join(INDEX_COLUMNS),
        read_indicators: "name,indicator,value",
    }
    for reader, header in headers.items():
        path = tmp_path / f"{reader.__name__}.csv"
        path.write_text(f"\n{header}\n", encoding="utf-8")
        for source in (path, io.StringIO(path.read_text(encoding="utf-8"), newline="")):
            with pytest.raises(SchemaError, match="^bad header: expected "):
                reader(source)
    argvs = (["ingest", "ingest.csv"], ["report", "--indexes", "read_index_csv.csv", "--x", "mu", "--y", "k_mt"])
    for argv in argvs:
        assert main([str(tmp_path / a) if a.endswith(".csv") else a for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad header: expected ") and err.count("\n") == 1


class TestUniformModel:
    def test_shares(self):
        values = uniform_model().param_values
        assert all(v == 100.0 / 34.0 for v in values)
        assert abs(math.fsum(values) - 100.0) < 1e-9
        assert round(values[0], 4) == 2.9412

    def test_equals_exponential_zero(self):
        assert uniform_model().params == exponential_model(0.0).params

    @pytest.mark.parametrize("rate", [1e-20, 2.0**-54])
    def test_equals_exponential_at_rates_that_leave_q_at_one(self, rate):
        # 1 - rate rounds to 1.0, where the shrinking shares would be 0 / 0
        assert exponential_model(rate).param_values == uniform_model().param_values


class TestExponentialModel:
    def test_pinned_combined_shares(self):
        record = exponential_model(0.30)
        totals = dict(cohort_totals(record))
        assert totals["00"] == pytest.approx(30.07, abs=0.01)
        assert totals["05"] == pytest.approx(21.05, abs=0.01)

    def test_successive_ratio_exact(self):
        record = exponential_model(0.30)
        values = record.param_values
        male = values[:17]
        for k in range(16):
            assert male[k + 1] / male[k] == pytest.approx(0.7, rel=1e-12)

    def test_sum_and_monotone(self):
        for rate in (0.05, 0.2, 0.3, 0.9):
            values = exponential_model(rate).param_values
            assert abs(math.fsum(values) - 100.0) < 1e-9
            assert all(b < a for a, b in zip(values[:16], values[1:17]))

    # rates at which the shares keep the bits of the former 1 - q**17 denominator (0.225: demo 04)
    KEPT_RATES = (0.05, 0.1, 0.15, 0.2, 0.225, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    @pytest.mark.parametrize("rate", (1e-5, 1e-9, 1e-12, 2.0**-53, 0.01, *KEPT_RATES))
    def test_shares_sum_to_100_at_every_rate(self, rate):
        assert abs(math.fsum(exponential_model(rate).param_values) - 100.0) <= 1e-12

    @pytest.mark.parametrize("rate", KEPT_RATES)
    def test_shares_keep_the_bits_of_one_minus_q_to_the_17(self, rate):
        q = 1.0 - rate
        factor = 50.0 * (1.0 - q) / (1.0 - q**17)
        want = [factor * q**k for k in range(17)] * 2
        assert [v.hex() for v in exponential_model(rate).param_values] == [v.hex() for v in want]

    def test_rate_validation(self):
        for rate in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                exponential_model(rate)
