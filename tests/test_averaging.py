import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdiss.averaging import AveragingConfig, _polarize3, average_once, bipartition, pair_max_split
from kdiss.errors import DegenerateSymmetryError, DomainError, NonPolarizedError, SchemaError
from kdiss.similarity import SimilarityMatrix

from conftest import allclose


def sym3(a, b, c, labels=("x", "y", "z")):
    return SimilarityMatrix(labels, [[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])


def random_symmetric(rng, n):
    """(raw + raw^T) / 2 of an n x n matrix of uniform [0, 1) draws, with a unit diagonal."""
    raw = [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)]
    return [[1.0 if i == j else (raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]


def brute_average(entries):
    """Independent reference for one sweep, written as plain loops."""
    n = len(entries)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            agreements = [1.0 - abs(entries[i][k] - entries[j][k]) for k in range(n)]
            out[i][j] = 1.0 if i == j else sum(agreements) / n
    return out


class TestAverageOnce:
    def test_block_binary_fixed_point(self):
        m = sym3(1.0, 0.0, 0.0)
        out = average_once(m)
        assert out.entries == m.entries

    def test_all_ones_fixed_point(self):
        m = SimilarityMatrix(("a", "b", "c"), [[1.0] * 3] * 3)
        assert average_once(m).entries == ((1.0,) * 3,) * 3

    def test_pinned_entry(self):
        # rows (1, .9, .2) vs (.9, 1, .2): agreements .9, .9, 1 -> mean 14/15
        m = sym3(0.9, 0.2, 0.2)
        out = average_once(m)
        assert out.entries[0][1] == pytest.approx(14.0 / 15.0, rel=1e-12)

    def test_matches_brute_force(self, rng):
        for n in (3, 4, 6):
            raw = random_symmetric(rng, n)
            m = SimilarityMatrix(tuple(f"o{i}" for i in range(n)), raw)
            assert allclose(average_once(m).entries, brute_average(raw), atol=1e-12)

    def test_preserves_invariants(self, rng):
        out = average_once(SimilarityMatrix(tuple("abcde"), random_symmetric(rng, 5)))
        e = out.entries
        assert all(e[i][j] == e[j][i] for i in range(5) for j in range(5))
        assert all(e[i][i] == 1.0 for i in range(5))
        assert all(0 <= x <= 1 for row in e for x in row)

    def test_two_block_binary_fixed_points(self):
        for split in (1, 2, 3):
            n = 5
            e = tuple(tuple(1.0 if (i < split) == (j < split) else 0.0 for j in range(n)) for i in range(n))
            m = SimilarityMatrix(tuple(f"o{i}" for i in range(n)), e)
            assert average_once(m).entries == e


UNIT = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=500, deadline=None)
@given(UNIT, UNIT, UNIT)
def test_polarize3_sweep_is_average_once(a, b, c):
    """One 3-object sweep, a -> (2a + 1 - |b - c|) / 3 and cyclically, is
    average_once within rounding, and _polarize3 allowed one sweep, fed the
    dissimilarities 1 - a, 1 - b and 1 - c, decides on the swept entries as
    average_once gives them."""
    swept = average_once(sym3(a, b, c)).entries
    got = swept[0][1], swept[0][2], swept[1][2]
    want = (2 * a + 1 - abs(b - c)) / 3, (2 * b + 1 - abs(a - c)) / 3, (2 * c + 1 - abs(a - b)) / 3
    assert all(math.isclose(x, y, rel_tol=0.0, abs_tol=1e-15) for x, y in zip(got, want))
    v0, v1, v2 = sorted(got)
    # a decision within rounding of a tie may go either way
    assume(v2 - v1 > 1e-12 and abs((v2 - v1) - (v1 - v0)) > 1e-12)
    if v2 - v1 > v1 - v0:
        assert _polarize3(1 - a, 1 - b, 1 - c, 1) == (got.index(v2), 1)
    else:
        with pytest.raises(NonPolarizedError):
            _polarize3(1 - a, 1 - b, 1 - c, 1)


class TestBipartition:
    def test_clear_pair(self):
        parts = bipartition(sym3(0.9, 0.2, 0.2))
        assert parts.group_a == {"x", "y"}
        assert parts.group_b == {"z"}

    def test_block_binary_one_iteration(self):
        parts = bipartition(sym3(1.0, 0.0, 0.0))
        assert parts.group_a == {"x", "y"}
        assert parts.iterations_used == 1

    def test_uniform_raises_degenerate(self):
        with pytest.raises(DegenerateSymmetryError):
            bipartition(sym3(0.6, 0.6, 0.6))

    def test_tied_leaders_raise_degenerate(self):
        with pytest.raises(DegenerateSymmetryError):
            bipartition(sym3(0.8, 0.8, 0.3))

    def test_leaders_one_ulp_apart_near_one(self):
        # the sweep runs on the dissimilarities 1 - s, which keep the ulp that
        # separates the two leaders, so the split is the closest pair's
        a = float.fromhex("0x1.ffffffffff884p-1")
        m = sym3(a, a, math.nextafter(a, 2.0))
        parts = bipartition(m)
        assert parts.group_a == {"x"} and parts.group_b == {"y", "z"}
        assert parts[:2] == pair_max_split(m)[:2]

    def test_two_objects(self):
        m = SimilarityMatrix(("a", "b"), [[1.0, 0.4], [0.4, 1.0]])
        parts = bipartition(m)
        assert parts.group_a == {"a"} and parts.group_b == {"b"}

    @pytest.mark.parametrize("n", [4, 5])
    def test_more_than_three_objects_raise_schema_error(self, n):
        e = [[1.0 if i == j else 0.5 + 0.05 * (i + j) for j in range(n)] for i in range(n)]
        with pytest.raises(SchemaError) as info:
            bipartition(SimilarityMatrix(tuple(f"o{i}" for i in range(n)), e))
        assert str(info.value) == f"bipartition splits two or three objects, got {n}"

    def test_relabeling_invariance(self, rng):
        for _ in range(50):
            a, b, c = (rng.uniform(0.01, 0.99) for _ in range(3))
            if min(abs(a - b), abs(a - c), abs(b - c)) < 1e-3:
                continue
            base = bipartition(sym3(a, b, c))
            # swap objects 0 and 2: entries permute accordingly
            swapped = bipartition(sym3(c, b, a, labels=("z", "y", "x")))
            assert {frozenset(base.group_a), frozenset(base.group_b)} == {
                frozenset(swapped.group_a),
                frozenset(swapped.group_b),
            }

    def test_max_iterations_respected(self):
        cfg = AveragingConfig(max_iterations=1)
        # needs several sweeps before the split is final
        with pytest.raises(NonPolarizedError):
            bipartition(sym3(0.5, 0.499, 0.1), cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AveragingConfig(max_iterations=0)


class TestPairMaxSplit:
    def test_groups_largest_pair(self):
        parts = pair_max_split(sym3(0.9, 0.2, 0.3))
        assert parts.group_a == {"x", "y"}

    def test_other_pair(self):
        parts = pair_max_split(sym3(0.2, 0.99, 0.3))
        assert parts.group_a == {"x", "z"}
        assert parts.group_b == {"y"}

    def test_tie_raises(self):
        with pytest.raises(DegenerateSymmetryError):
            pair_max_split(sym3(0.9, 0.9, 0.2))

    def test_first_object_alone_leads_the_split(self):
        m = sym3(0.2, 0.3, 0.9)
        assert pair_max_split(m)[:2] == bipartition(m)[:2] == (frozenset({"x"}), frozenset({"y", "z"}))

    def test_needs_exactly_three_objects(self):
        m = SimilarityMatrix(("a", "b"), [[1.0, 0.4], [0.4, 1.0]])
        with pytest.raises(SchemaError, match="^pair_max_split is defined for exactly three objects$"):
            pair_max_split(m)


def test_one_object_is_too_few_to_average_or_split():
    m = SimilarityMatrix(("a",), [[1.0]])
    for split in (average_once, bipartition):
        with pytest.raises(SchemaError, match="^need at least two objects$"):
            split(m)
