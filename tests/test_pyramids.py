import io
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiss.errors import DomainError, SchemaError
from kdiss.pyramids import (
    COHORTS,
    FEMALE_COHORTS,
    MALE_COHORTS,
    cohort_totals,
    exponential_model,
    ingest,
    long_to_wide,
    normalize,
    sex_slice,
    uniform_model,
    write_pyramid_csv,
)


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
        assert np.allclose(table.rows["aa"], 100.0 / 34.0)
        assert round(float(table.rows["aa"][0]), 4) == 2.9412

    def test_exact_shares_unchanged(self):
        values = [50.0, 25.0, 25.0] + [0.0] * 31
        table = ingest(wide_csv([("aa", values)]))
        assert np.array_equal(table.rows["aa"], np.array(values))

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
        assert table.names() == ["ok", "ok2"]
        assert len(table.row_errors) == 1
        assert "row 3" in table.row_errors[0]

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + wide_csv([("aa", [7] * 34)]).getvalue().encode("utf-8"))
        assert ingest(path).names() == ["aa"]

    def test_roundtrip_idempotent(self, table):
        # re-normalizing an already-normalized row can move values by at
        # most one rounding step (the float sum is within an ulp of 100)
        buffer = io.StringIO()
        write_pyramid_csv(table, buffer)
        again = ingest(io.StringIO(buffer.getvalue()))
        for name in table.names():
            assert np.allclose(table.rows[name], again.rows[name], rtol=1e-13, atol=0.0)


class TestLongToWide:
    def test_roundtrip(self):
        lines = ["name,sex,cohort,value"]
        for sex in ("m", "f"):
            for age in range(0, 85, 5):
                lines.append(f"aa,{sex},{age:02d},{1 + age / 100}")
        table = long_to_wide(io.StringIO("\n".join(lines) + "\n"))
        assert table.names() == ["aa"]
        assert abs(table.rows["aa"].sum() - 100.0) < 1e-9

    def test_utf8_bom_accepted(self, tmp_path):
        lines = ["name,sex,cohort,value"]
        lines += [f"aa,{sex},{age:02d},1" for sex in ("m", "f") for age in range(0, 85, 5)]
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode("utf-8"))
        assert long_to_wide(path).names() == ["aa"]

    def test_missing_cohort(self):
        lines = ["name,sex,cohort,value", "aa,m,00,5"]
        with pytest.raises(SchemaError, match="missing"):
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))

    def test_duplicate_cell(self):
        lines = ["name,sex,cohort,value", "aa,m,00,5", "aa,m,00,6"]
        with pytest.raises(SchemaError, match="duplicate"):
            long_to_wide(io.StringIO("\n".join(lines) + "\n"))


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
