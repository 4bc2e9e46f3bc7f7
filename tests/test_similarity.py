import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdiss.errors import DomainError, SchemaError
from kdiss.kernel import ObjectRecord, r_similarity
from kdiss.similarity import SimilarityMatrix, WeightedParameterSet, blend, blend_from_objects, parameter_matrix

from conftest import allclose

finite_nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestRSimilarity:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (2.0, 4.0, 0.5),
            (3.7, 3.7, 1.0),
            (0.0, 5.0, 0.0),
            (5.0, 0.0, 0.0),
            (0.0, 0.0, 1.0),
        ],
    )
    def test_values(self, a, b, expected):
        assert r_similarity(a, b) == expected

    @pytest.mark.parametrize("a,b", [(-1.0, 2.0), (2.0, -0.1), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            r_similarity(a, b)

    @given(finite_nonneg, finite_nonneg)
    def test_symmetric_and_bounded(self, a, b):
        s = r_similarity(a, b)
        assert s == r_similarity(b, a)
        assert 0.0 <= s <= 1.0

    # zero-or-normal values: scaling a subnormal can underflow to 0 and
    # legitimately flip the zero rule, which is not the property under test
    zero_or_normal = st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e12))

    @given(zero_or_normal, zero_or_normal, positive)
    def test_scale_invariant(self, a, b, c):
        assert r_similarity(c * a, c * b) == pytest.approx(r_similarity(a, b), rel=1e-12, abs=1e-12)

    @given(finite_nonneg, finite_nonneg)
    def test_one_iff_equal(self, a, b):
        if a == b:
            assert r_similarity(a, b) == 1.0
        else:
            assert r_similarity(a, b) < 1.0


class TestObjectRecord:
    def test_rejects_duplicates_and_bad_values(self):
        with pytest.raises(SchemaError):
            ObjectRecord("x", (("p", 1.0), ("p", 2.0)))
        with pytest.raises(DomainError):
            ObjectRecord("x", (("p", -1.0),))
        with pytest.raises(DomainError):
            ObjectRecord("x", (("p", float("nan")),))

    def test_with_param(self):
        rec = ObjectRecord.from_values("x", ["a"], [1.0])
        ext = rec.with_param("b", 2.0, name="y")
        assert ext.name == "y"
        assert ext.param_names == ("a", "b")
        with pytest.raises(SchemaError):
            rec.with_param("a", 3.0)


def objects_from_columns(values_by_object):
    n_params = len(next(iter(values_by_object.values())))
    names = [f"p{i}" for i in range(n_params)]
    return [ObjectRecord.from_values(name, names, vals) for name, vals in values_by_object.items()]


class TestParameterMatrix:
    def test_elementwise(self):
        objs = objects_from_columns({"a": [2.0], "b": [4.0], "c": [2.0]})
        m = parameter_matrix(objs, "p0")
        assert allclose(m.entries, [[1, 0.5, 1], [0.5, 1, 0.5], [1, 0.5, 1]])

    def test_all_equal(self):
        objs = objects_from_columns({"a": [3.0], "b": [3.0], "c": [3.0]})
        m = parameter_matrix(objs, "p0")
        assert m.entries == ((1.0,) * 3,) * 3

    def test_zero_rule(self):
        objs = objects_from_columns({"a": [1.0], "b": [0.0], "c": [2.0]})
        m = parameter_matrix(objs, "p0")
        assert allclose(m.entries, [[1, 0, 0.5], [0, 1, 0], [0.5, 0, 1]])

    def test_missing_param(self):
        objs = objects_from_columns({"a": [1.0], "b": [2.0]})
        with pytest.raises(SchemaError):
            parameter_matrix(objs, "nope")

    def test_schema_mismatch(self):
        a = ObjectRecord.from_values("a", ["x"], [1.0])
        b = ObjectRecord.from_values("b", ["y"], [1.0])
        with pytest.raises(SchemaError):
            parameter_matrix([a, b], "x")

    def test_one_object_or_repeated_names(self):
        a = ObjectRecord.from_values("a", ["x"], [1.0])
        with pytest.raises(SchemaError, match="^need at least two objects$"):
            parameter_matrix([a], "x")
        with pytest.raises(SchemaError, match="^object names are not unique$"):
            parameter_matrix([a, a], "x")


class TestBlend:
    def _mat(self, entry, labels=("a", "b")):
        return SimilarityMatrix(labels, [[1.0, entry], [entry, 1.0]])

    def test_mean_of_equals(self):
        m = self._mat(0.6)
        out = blend([m, m], [1.0, 5.0])
        assert allclose(out.entries, m.entries)

    def test_single_matrix(self):
        m = self._mat(0.3)
        assert allclose(blend([m], [2.0]).entries, m.entries)

    def test_weighted_mean(self):
        out = blend([self._mat(0.4), self._mat(0.8)], [1.0, 3.0])
        assert out.entries[0][1] == pytest.approx(0.7, rel=1e-15)

    def test_errors(self):
        with pytest.raises(SchemaError):
            blend([self._mat(0.4), self._mat(0.5, labels=("a", "c"))], [1.0, 1.0])
        with pytest.raises(DomainError):
            blend([self._mat(0.4)], [0.0])
        with pytest.raises(SchemaError):
            blend([self._mat(0.4)], [1.0, 2.0])

    def test_no_matrices(self):
        with pytest.raises(SchemaError, match="^need at least one matrix$"):
            blend([], [])

    def test_convex_combination(self, rng):
        mats = [self._mat(rng.uniform(0, 1)) for _ in range(5)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(5)]
        out = blend(mats, weights)
        entries = [m.entries[0][1] for m in mats]
        assert min(entries) - 1e-12 <= out.entries[0][1] <= max(entries) + 1e-12


class TestBlendFromObjects:
    def test_single_param_matches_parameter_matrix(self):
        objs = objects_from_columns({"a": [2.0], "b": [5.0]})
        pset = WeightedParameterSet.uniform(["p0"])
        assert blend_from_objects(objs, pset).entries == parameter_matrix(objs, "p0").entries

    def test_identical_objects(self):
        objs = objects_from_columns({"a": [2.0, 3.0], "b": [2.0, 3.0]})
        out = blend_from_objects(objs, WeightedParameterSet.uniform(["p0", "p1"]))
        assert out.entries == ((1.0,) * 2,) * 2

    def test_three_param_mean(self):
        a = ObjectRecord.from_values("A", ["p0", "p1", "p2"], [2.0, 1.0, 3.0])
        b = ObjectRecord.from_values("B", ["p0", "p1", "p2"], [4.0, 1.0, 6.0])
        out = blend_from_objects([a, b], WeightedParameterSet.uniform(["p0", "p1", "p2"]))
        assert out.entry("A", "B") == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_invariant_under_single_param_rescaling(self, rng):
        vals = [[rng.uniform(0.5, 2.0) for _ in range(4)] for _ in range(3)]
        names = [f"p{i}" for i in range(4)]
        objs = [ObjectRecord.from_values(f"o{j}", names, vals[j]) for j in range(3)]
        scaled = [[v * 7.5 if i == 2 else v for i, v in enumerate(row)] for row in vals]
        objs2 = [ObjectRecord.from_values(f"o{j}", names, scaled[j]) for j in range(3)]
        pset = WeightedParameterSet.uniform(names)
        m1 = blend_from_objects(objs, pset)
        m2 = blend_from_objects(objs2, pset)
        assert allclose(m1.entries, m2.entries, rtol=1e-12)

    def test_unknown_param(self):
        objs = objects_from_columns({"a": [2.0], "b": [5.0]})
        with pytest.raises(SchemaError, match="^parameter 'nope' not present in the shared schema$"):
            blend_from_objects(objs, WeightedParameterSet.uniform(["p0", "nope"]))


class TestWeightedParameterSetValidation:
    def test_rejects_repeated_names(self):
        with pytest.raises(SchemaError, match="^parameter set has duplicate names$"):
            WeightedParameterSet((("p", 1.0), ("p", 2.0)))

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_rejects_weight_not_above_zero(self, weight):
        with pytest.raises(DomainError, match=f"^parameter 'p': weight must be positive and finite, got {weight!r}$"):
            WeightedParameterSet((("p", weight),))


class TestSimilarityMatrixValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SimilarityMatrix(("a", "b"), [[1.0, 0.2], [0.4, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(DomainError):
            SimilarityMatrix(("a", "b"), [[0.9, 0.2], [0.2, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            SimilarityMatrix(("a", "b"), [[1.0, 1.2], [1.2, 1.0]])

    @pytest.mark.parametrize(
        "entries, shape",
        [([[1.0], [1.0]], "(2, 1)"), ([[1.0, 0.2]], "(1, 2)"), ([1.0, 0.2], "(2,)")],
        ids=["short-rows", "one-row", "not-rows"],
    )
    def test_rejects_bad_shape(self, entries, shape):
        with pytest.raises(SchemaError, match=rf"^matrix shape {re.escape(shape)} does not match 2 labels$"):
            SimilarityMatrix(("a", "b"), entries)

    def test_rejects_repeated_labels(self):
        with pytest.raises(SchemaError, match="^matrix labels are not unique$"):
            SimilarityMatrix(("a", "a"), [[1.0, 0.2], [0.2, 1.0]])

    def test_ndarray_is_converted(self):
        np = pytest.importorskip("numpy")
        m = SimilarityMatrix(("a", "b"), np.array([[1.0, 0.2], [0.2, 1.0]]))
        assert m.entries == ((1.0, 0.2), (0.2, 1.0)) and {type(x) for row in m.entries for x in row} == {float}
