import io
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdiss.errors import DomainError, SchemaError
from kdiss.formats import INDEX_COLUMNS, read_index_csv, write_index_csv
from kdiss.indexes import build_index_rows, mu_index, p_uniform, sex_split_k, sum_constancy
from kdiss.kernel import ProbeConfig, compare
from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model

from conftest import synthetic_table

positive_k = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)


class TestMuIndex:
    def test_pole_endpoints(self):
        assert mu_index(45.311, 0.0) == 100.0
        assert mu_index(0.0, 45.310) == 0.0

    def test_pinned_arithmetic(self):
        # 100 * 39.741 / (39.741 + 5.938)
        assert mu_index(39.741, 5.938) == pytest.approx(87.0, abs=0.05)

    def test_both_zero_undefined(self):
        with pytest.raises(DomainError):
            mu_index(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mu_index(-1.0, 2.0)

    def test_overflowing_sum(self):
        # k_ut + k_mt overflows to inf; the share is still taken
        assert mu_index(1e308, 1e308) == 50.0
        assert mu_index(1.5e308, 0.5e308) == 75.0

    @pytest.mark.parametrize("k_ut, k_mt", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_rejected(self, k_ut, k_mt):
        with pytest.raises(DomainError, match="finite"):
            mu_index(k_ut, k_mt)

    @given(positive_k, positive_k)
    def test_complement(self, a, b):
        assert mu_index(a, b) + mu_index(b, a) == pytest.approx(100.0, abs=1e-12)

    @given(positive_k, positive_k, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scaling_invariant(self, a, b, c):
        assert mu_index(c * a, c * b) == pytest.approx(mu_index(a, b), rel=1e-9)

    @given(positive_k, positive_k)
    def test_bounds(self, a, b):
        assert 0.0 <= mu_index(a, b) <= 100.0


class TestPUniform:
    def test_normalized(self):
        assert p_uniform(10.0, 30.0) == 75.0

    def test_overflowing_sum(self):
        # d_un + d_e overflows to inf; the share is still taken
        assert p_uniform(1e308, 1e308) == 50.0
        assert p_uniform(0.5e308, 1.5e308) == 75.0

    def test_pure_uniform_limit(self):
        assert p_uniform(0.0, 5.0) == 100.0

    def test_both_zero(self):
        with pytest.raises(DomainError):
            p_uniform(0.0, 0.0)

    NON_FINITE = [(math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf), (-math.inf, 1.0)]

    # the ids keep the name of the share p_uniform computes
    @pytest.mark.parametrize("d_un, d_e", NON_FINITE, ids=[f"normalized-{a}-{b}" for a, b in NON_FINITE])
    def test_non_finite_rejected(self, d_un, d_e):
        with pytest.raises(DomainError, match="finite"):
            p_uniform(d_un, d_e)

    @given(st.floats(min_value=0.0, max_value=1e308), st.floats(min_value=0.0, max_value=1e308))
    def test_is_mu_index_of_swapped_arguments(self, d_un, d_e):
        # drawn up to 1e308, so that some sums overflow
        assume(d_un or d_e)
        assert p_uniform(d_un, d_e) == mu_index(d_e, d_un)

    @given(positive_k, positive_k)
    def test_normalized_bounds(self, d_un, d_e):
        assert 0.0 <= p_uniform(d_un, d_e) <= 100.0

    def test_monotone_decreasing_in_d_un(self):
        values = [p_uniform(d, 10.0) for d in (0.0, 1.0, 5.0, 20.0)]
        assert values == sorted(values, reverse=True)


class TestSumConstancy:
    def test_constant_pairs(self):
        mean, std = sum_constancy([(1.0, 4.0), (2.0, 3.0), (0.5, 4.5)])
        assert mean == 5.0
        assert std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_constancy([])

    def test_statistics(self):
        mean, std = sum_constancy([(1.0, 1.0), (2.0, 2.0)])
        assert mean == pytest.approx(3.0)
        assert std == pytest.approx(1.0)


class TestSexSplitK:
    def test_sum_matches_full_k(self):
        table = synthetic_table(4)
        cfg = ProbeConfig(delta=1e-3)
        query = table.record("country00")
        target = table.record("country02")
        k_male, k_female = sex_split_k(query, target, cfg)
        full = compare(query, target, cfg).k_cont
        assert k_male + k_female == pytest.approx(full, rel=1e-12)

    def test_parts_add_back_within_the_rounding_bound(self):
        # each increment, each part's math.fsum and their addition round once, as do
        # k_cont's sum and product: 5 roundings, 2**-53 relative each
        table = synthetic_table(64)
        records = list(map(table.record, table.names))
        for i, (a, b) in enumerate(itertools.combinations(records, 2)):
            cfg = ProbeConfig(delta=(1e-1, 1e-3, 1e-4, 1e-6)[i % 4])
            k_male, k_female = sex_split_k(a, b, cfg)
            full = compare(a, b, cfg).k_cont
            assert abs(k_male + k_female - full) <= 5 * 2.0**-53 * full

    def test_symmetric_pyramid_splits_evenly(self):
        # model pyramids have identical male and female halves
        cfg = ProbeConfig(delta=1e-3)
        k_male, k_female = sex_split_k(uniform_model(), exponential_model(0.3), cfg)
        assert k_male == pytest.approx(k_female, rel=1e-12)

    def test_identical_pyramids(self):
        assert sex_split_k(uniform_model(), uniform_model(), ProbeConfig(delta=1e-3)) == (0.0, 0.0)

    def test_non_pyramid_schema_rejected(self):
        from kdiss.kernel import ObjectRecord

        q = ObjectRecord.from_values("q", ["a", "b"], [1.0, 2.0])
        t = ObjectRecord.from_values("t", ["a", "b"], [2.0, 1.0])
        with pytest.raises(SchemaError):
            sex_split_k(q, t, ProbeConfig(delta=1e-2))


class TestIndexRows:
    def test_build_and_roundtrip(self):
        table = synthetic_table(5)
        cfg = ProbeConfig(delta=1e-3)
        rows, problems = build_index_rows(table, table.record("country00"), table.record("country04"), cfg)
        assert problems == []
        assert tuple(r.name for r in rows) == table.names
        # query poles score the full 0/100 endpoints
        by_name = {r.name: r for r in rows}
        assert by_name["country00"].mu == 100.0
        assert by_name["country04"].mu == 0.0
        for row in rows:
            assert row.k_m_male + row.k_m_female == pytest.approx(row.k_mt, rel=1e-12)
            assert 0.0 <= row.p_un <= 100.0

        buffer = io.StringIO()
        write_index_csv(rows, buffer)
        text = buffer.getvalue()
        assert text.splitlines()[0] == ",".join(INDEX_COLUMNS)
        parsed = read_index_csv(io.StringIO(text))
        assert [r.name for r in parsed] == [r.name for r in rows]
        for before, after in zip(rows, parsed):
            assert after.mu == pytest.approx(before.mu, abs=5e-7)

    def test_read_utf8_bom_accepted(self, tmp_path):
        cfg = ProbeConfig(delta=1e-3)
        rows, _ = build_index_rows(synthetic_table(3), uniform_model(), exponential_model(0.3), cfg)
        buffer = io.StringIO()
        write_index_csv(rows, buffer)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + buffer.getvalue().encode("utf-8"))
        assert [r.name for r in read_index_csv(path)] == [r.name for r in rows]

    def test_undefined_mu_flagged(self):
        table = synthetic_table(3)
        cfg = ProbeConfig(delta=1e-3)
        query = table.record("country01")
        rows, problems = build_index_rows(table, query, query, cfg)
        assert any("MU undefined" in p for p in problems)
        bad = [r for r in rows if r.name == "country01"]
        assert math.isnan(bad[0].mu)

    def test_pole_without_the_cohorts_in_order_rejected(self):
        from kdiss.kernel import ObjectRecord

        table = synthetic_table(3)
        reordered = ObjectRecord("odd", reversed(table.record("country01").params))
        for poles in ((reordered, table.record("country00")), (table.record("country00"), reordered)):
            with pytest.raises(SchemaError, match="^object 'odd' does not carry the 34 cohorts in order$"):
                build_index_rows(table, *poles, ProbeConfig(delta=1e-3))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=34, max_size=34).filter(any),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([1e-2, 1e-4, 1e-6]),
)
def test_index_rows_bounded_on_random_tables(raw_rows, pole_a, pole_b, delta):
    # poles drawn from the table, sometimes the same row, so MU can be 0/0
    table = PyramidTable.from_rows({f"p{i}": normalize(raw) for i, raw in enumerate(raw_rows)})
    query_a, query_b = (table.record(table.names[i % len(table)]) for i in (pole_a, pole_b))
    rows, problems = build_index_rows(table, query_a, query_b, ProbeConfig(delta=delta))
    for row in rows:
        if math.isnan(row.mu):
            assert f"{row.name}: MU undefined (both K values are zero)" in problems
        else:
            assert 0.0 <= row.mu <= 100.0
        assert 0.0 <= row.p_un / 100.0 <= 1.0  # the normalized variant, in percent
        assert row.k_m_male + row.k_m_female == pytest.approx(row.k_mt, rel=1e-12, abs=0.0)
