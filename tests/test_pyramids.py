import csv
import io
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiss.cli import main
from kdiss.errors import DomainError, SchemaError
from kdiss.indexes import INDEX_COLUMNS, read_index_csv
from kdiss.pyramids import (
    COHORTS,
    FEMALE_COHORTS,
    MALE_COHORTS,
    PyramidTable,
    _normalize_rows,
    cohort_totals,
    exponential_model,
    ingest,
    long_to_wide,
    normalize,
    sex_slice,
    uniform_model,
    write_pyramid_csv,
)
from kdiss.report import read_indicators


def wide_csv(rows):
    lines = ["name," + ",".join(COHORTS)]
    for name, values in rows:
        lines.append(name + "," + ",".join(str(v) for v in values))
    return io.StringIO("\n".join(lines) + "\n")


class TestNormalize:
    def test_equal_values(self):
        out = normalize([1.0] * 34)
        assert np.allclose(out, 100.0 / 34.0)

    def test_single_mass(self):
        out = normalize([2.0] + [0.0] * 33)
        assert out[0] == 100.0
        assert np.all(out[1:] == 0.0)

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_invariant(self, c):
        base = np.array([3.0, 1.0, 0.0, 5.5])
        assert np.allclose(normalize(base * c), normalize(base), rtol=1e-12)

    def test_sum_is_100(self, rng):
        out = normalize(rng.uniform(0, 10, 34))
        assert abs(out.sum() - 100.0) < 1e-9

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
        assert np.all(np.isfinite(out))
        assert math.fsum(out) == pytest.approx(100.0, rel=1e-12)

    def test_overflowing_sum(self):
        out = normalize([1e308, 1e308, 1.0])
        assert out[0] == out[1] == 50.0
        assert 0.0 < out[2] < 1e-300

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            normalize([0.0] * 34)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            normalize([1.0] * 33 + [-0.1])


class TestIngest:
    def test_equal_counts(self):
        table = ingest(wide_csv([("aa", [7] * 34)]))
        assert np.allclose(table.record("aa").values(), 100.0 / 34.0)
        assert round(float(table.record("aa").values()[0]), 4) == 2.9412

    def test_exact_shares_unchanged(self):
        values = [50.0, 25.0, 25.0] + [0.0] * 31
        table = ingest(wide_csv([("aa", values)]))
        assert np.array_equal(table.record("aa").values(), np.array(values))

    def test_negative_cell_names_row(self):
        stream = wide_csv([("ok", [1] * 34), ("bad", [1] * 33 + [-2])])
        with pytest.raises(DomainError, match="row 3"):
            ingest(stream)

    def test_all_zero_row_rejected(self):
        with pytest.raises(DomainError, match="row 2"):
            ingest(wide_csv([("zz", [0] * 34)]))

    def test_missing_columns(self):
        stream = io.StringIO("name,m00,m05\naa,1,2\n")
        with pytest.raises(SchemaError):
            ingest(stream)

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
            assert np.allclose(table.record(name).values(), again.record(name).values(), rtol=1e-13, atol=0.0)


class TestLongToWide:
    def test_roundtrip(self):
        lines = ["name,sex,cohort,value"]
        for sex in ("m", "f"):
            for age in range(0, 85, 5):
                lines.append(f"aa,{sex},{age:02d},{1 + age / 100}")
        table = long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert table.names == ("aa",)
        assert abs(table.record("aa").values().sum() - 100.0) < 1e-9

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


def reference_normalize(raw):
    """normalize() as one row at a time, the way ingest worked before it
    normalized whole tables in one array pass."""
    values = np.asarray(raw, dtype=float)
    if np.any(~np.isfinite(values)):
        raise DomainError("values must be finite")
    if np.any(values < 0):
        raise DomainError("values must be non-negative")
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if total == 0.0:
        raise DomainError("cannot normalize an all-zero row")
    scale = 100.0 / total
    if not (math.isfinite(total) and math.isfinite(scale)):
        values = values / values.max()
        scale = 100.0 / float(values.sum())
    return values * scale


def reference_ingest(text, lenient):
    """ingest() one row at a time: (names, (N, 34) shares, row_errors)."""
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
        assert table.array().shape == want[1].shape
        assert table.array().tobytes() == want[1].tobytes()
        assert table.row_errors == want[2]

    def test_normalize_rows_matches_per_row_reference(self, rng):
        # every magnitude from subnormal to near the float max, one per row
        raw = rng.uniform(0.0, 1.0, (2000, 34)) * 10.0 ** rng.uniform(-320, 306, (2000, 1))
        shares, problems = _normalize_rows(raw)
        assert problems == [""] * 2000
        for row, got in zip(raw, shares):
            assert got.tobytes() == reference_normalize(row).tobytes()


class TestPyramidTable:
    def test_one_read_only_array(self, table):
        assert table.array() is table.array()
        assert table.array().shape == (len(table), 34)
        assert not table.array().flags.writeable
        i = table.names.index("country03")
        assert np.array_equal(table.record("country03").values(), table.array()[i])

    def test_from_rows_keeps_order_and_values(self):
        rows = {"bb": normalize(range(1, 35)), "aa": normalize([1.0] * 34)}
        table = PyramidTable.from_rows(rows)
        assert table.names == ("bb", "aa")
        assert table.array().tobytes() == np.array(list(rows.values())).tobytes()
        assert len(PyramidTable.from_rows({})) == 0

    def test_rejects_mismatched_or_repeated_names(self):
        with pytest.raises(SchemaError):
            PyramidTable(("aa", "aa"), np.ones((2, 34)))
        with pytest.raises(SchemaError):
            PyramidTable(("aa",), np.ones((2, 34)))
        with pytest.raises(SchemaError, match="name not found"):
            PyramidTable(("aa",), np.ones((1, 34))).record("bb")


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


class TestUniformModel:
    def test_shares(self):
        record = uniform_model()
        values = record.values()
        assert np.all(values == 100.0 / 34.0)
        assert abs(values.sum() - 100.0) < 1e-9
        assert round(float(values[0]), 4) == 2.9412

    def test_equals_exponential_zero(self):
        assert uniform_model().params == exponential_model(0.0).params


class TestExponentialModel:
    def test_pinned_combined_shares(self):
        record = exponential_model(0.30)
        totals = dict(cohort_totals(record))
        assert totals["00"] == pytest.approx(30.07, abs=0.01)
        assert totals["05"] == pytest.approx(21.05, abs=0.01)

    def test_successive_ratio_exact(self):
        record = exponential_model(0.30)
        values = record.values()
        male = values[:17]
        for k in range(16):
            assert male[k + 1] / male[k] == pytest.approx(0.7, rel=1e-12)

    def test_sum_and_monotone(self):
        for rate in (0.05, 0.2, 0.3, 0.9):
            values = exponential_model(rate).values()
            assert abs(values.sum() - 100.0) < 1e-9
            assert np.all(np.diff(values[:17]) < 0)

    def test_rate_validation(self):
        for rate in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                exponential_model(rate)


class TestSexSlice:
    def test_partition_of_params(self):
        record = uniform_model()
        male = sex_slice(record, "m")
        female = sex_slice(record, "f")
        assert male.param_names == MALE_COHORTS
        assert female.param_names == FEMALE_COHORTS
        assert set(male.param_names) | set(female.param_names) == set(COHORTS)

    def test_values_kept_as_is(self):
        record = exponential_model(0.2)
        male = sex_slice(record, "m")
        assert male.values()[0] == record.value_of("m00")

    def test_uniform_male_slice(self):
        male = sex_slice(uniform_model(), "male")
        assert np.all(male.values() == 100.0 / 34.0)
        assert len(male.params) == 17

    def test_bad_sex(self):
        with pytest.raises(DomainError):
            sex_slice(uniform_model(), "x")
