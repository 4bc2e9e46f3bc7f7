"""The closed-form kernel against the paper's mechanism.

compare, batch_compare and the index paths evaluate w* in closed form;
switch_weight keeps the bisection on a log scale between 1e-30 and 1e12 on
the grouping predicate.  D must agree exactly and K_cont within 1e-9 relative.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdiss.dissimilarity
from kdiss.cli import main
from kdiss.dissimilarity import switch_weight
from kdiss.indexes import build_index_rows
from kdiss.formats import COHORTS
from kdiss.kernel import ObjectRecord, ProbeConfig, batch_compare, closed_form_k, compare
from kdiss.kernel import _closed_form, _increment_columns, r_similarity
from kdiss.pyramids import PyramidTable, normalize, write_pyramid_csv
from kdiss.store import IncrementStore

from conftest import exact_d, pair_with_sims, random_pair, ratio_d, synthetic_table


def _increments(ds, delta):
    """The per-row reference for _increment_columns: K_cont split over the
    parameters of one comparison, each taking its ratio dissimilarity d times
    (1 + delta)."""
    return [d * (1.0 + delta) for d in ds]


DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
K_REL = 1e-9


def assert_matches_search(q, t, cfg):
    result = compare(q, t, cfg)
    w_search = switch_weight(q, t, cfg)
    assert result.d == max(1, math.ceil(w_search))
    assert result.k_cont == pytest.approx(w_search * cfg.delta, rel=K_REL, abs=0.0)


def test_random_pairs_match_search(rng):
    for i in range(1200):
        q, t = random_pair(rng, 34)
        assert_matches_search(q, t, ProbeConfig(delta=DELTAS[i % len(DELTAS)]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=34),
    st.sampled_from(DELTAS),
)
@example([0.5, 0.5], 1e-3)  # the bisection ends a hair above 1001, the exact w*'s ceiling
@example([0.5] * 12, 1e-6)  # it ends a hair below 6000006, which the exact w* exceeds
def test_property_matches_search(sims, delta):
    q, t = pair_with_sims(sims)
    assert_matches_search(q, t, ProbeConfig(delta=delta))


# parameters that differ, plus some identical ones (r = 1, zero increment)
SIMS = st.lists(st.one_of(st.floats(min_value=0.05, max_value=0.95), st.just(1.0)), min_size=1, max_size=34).filter(
    lambda sims: min(sims) < 1.0
)


@settings(max_examples=150, deadline=None)
@given(SIMS, st.sampled_from(DELTAS), st.sampled_from(DELTAS))
def test_property_k_delta_constancy(sims, delta_a, delta_b):
    """K_cont / (1 + delta) is the same at every delta, on the kernel and on the
    search, and the whole-step K = D * delta sits within one delta above K_cont
    up to K_cont's own rounding: D is the ceiling of the exact w*."""
    q, t = pair_with_sims(sims)
    kernel, search = [], []
    for delta in (delta_a, delta_b):
        cfg = ProbeConfig(delta=delta)
        result = compare(q, t, cfg)
        rounding = 1e-12 * result.k_cont
        assert -rounding <= result.k - result.k_cont <= delta + rounding
        kernel.append(result.k_cont / (1.0 + delta))
        w_search = switch_weight(q, t, cfg)
        assert 0.0 <= max(1, math.ceil(w_search)) * delta - w_search * delta <= delta * (1.0 + 1e-12)
        search.append(w_search * delta / (1.0 + delta))
    assert kernel[0] == pytest.approx(kernel[1], rel=K_REL, abs=0.0)
    assert search[0] == pytest.approx(search[1], rel=K_REL, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(SIMS, st.sampled_from(DELTAS), st.data())
def test_property_increment_additivity(sims, delta, data):
    """The increments add up to K_cont (1e-12) and to the search's w* * delta
    (1e-9), and any parameter subset plus its complement, recombined through
    the store, gives the whole."""
    q, t = pair_with_sims(sims)
    cfg = ProbeConfig(delta=delta)
    result = compare(q, t, cfg)
    assert math.fsum(result.increments.values()) == pytest.approx(result.k_cont, rel=1e-12, abs=0.0)
    w_search = switch_weight(q, t, cfg)
    assert math.fsum(result.increments.values()) == pytest.approx(w_search * delta, rel=K_REL, abs=0.0)
    names = list(result.increments)
    subset = data.draw(st.lists(st.sampled_from(names), unique=True), label="subset")
    rest = [n for n in names if n not in subset]
    store = IncrementStore()
    store.put(result)
    whole = store.combine("q", "t")
    assert whole == pytest.approx(result.k_cont, rel=1e-12, abs=0.0)
    assert store.combine("q", "t", subset) + store.combine("q", "t", rest) == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize(
    "sims, delta, d",
    [([0.5, 0.5], 0.01, 101), ([0.75] * 4, 0.25, 5), ([0.9, 0.8, 0.7, 0.6], 0.1, 11), ([0.5, 0.5], 1e-3, 1001)],
)
def test_integral_switch_weight_gives_d_equal_w_star(sims, delta, d):
    q, t = pair_with_sims(sims)
    cfg = ProbeConfig(delta=delta)
    assert compare(q, t, cfg).d == d
    assert switch_weight(q, t, cfg) == d


# deltas below DELTAS' floor, at which a search on similarities lost w* to the
# cancellation of entries near 1; the bisection stops at a relative width of 1e-12
SMALL_DELTAS = (1e-7, 1e-8, 1e-9, 1e-10, 1e-11)
W_REL = 2e-12


@pytest.mark.parametrize("delta", SMALL_DELTAS)
def test_search_matches_closed_form_at_small_delta(rng, delta):
    """At every delta the search holds D equal and w* to the bisection's width,
    on random pairs and near-identical ones whose closed-form w* is within the
    search's cap of 1e12."""
    cfg = ProbeConfig(delta=delta)
    checked = 0
    for i in range(40):
        q, t = random_pair(rng, (2, 10, 34)[i % 3])
        if i % 2:
            t = ObjectRecord.from_values("t", q.param_names, [v * rng.uniform(0.999, 1.001) for v in q.param_values])
        result = compare(q, t, cfg)
        if result.w_star > 1e12:
            continue
        w_search = switch_weight(q, t, cfg)
        assert max(1, math.ceil(w_search)) == result.d
        assert w_search == pytest.approx(result.w_star, rel=W_REL, abs=0.0)
        checked += 1
    assert checked >= 20


# from deltas at which the float switch test's rounding spans many whole weights up to 1
BRACKET_DELTAS = (1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.1, 1.0)


@settings(max_examples=300, deadline=None)
@given(SIMS, st.sampled_from(BRACKET_DELTAS))
@example([0.5, 0.5], 1e-3)  # float 1e-3 is a hair above 1e-3: w* is just below 1001, D = 1001
@example([0.5, 0.5], 1e-6)  # float 1e-6 is a hair below 1e-6: w* is just above 1000001, D = 1000002
@example([0.5, 0.5], 0.01)  # w* is just below 101 and computes as 101.00000000000001; D = 101
@example([0.94921875, 0.05078125], 1e-13)  # w* computes as 10000000000000.998; D = 10000000000001
@example([0.015625, 0.328125, 0.33984375, 0.3125], 1e-13)  # w* computes as 30039062500003.0; D = 30039062500004
def test_property_d_brackets_w_star(sims, delta):
    """D is max(1, ceil(w*)) of the exact w* for the exactly rounded sum of the
    ratio dissimilarities and delta, at every delta; so K_cont <= K up to
    K_cont's own rounding."""
    q, t = pair_with_sims(sims)
    result = compare(q, t, ProbeConfig(delta=delta))
    assert result.d == exact_d(q.param_values, t.param_values, delta)
    assert result.k_cont <= result.k * (1.0 + 4 * sys.float_info.epsilon)


def test_batch_paths_never_run_the_search(monkeypatch, tmp_path, capsys):
    def no_search(problem):
        raise AssertionError("the per-pair search ran on a batch path")

    monkeypatch.setattr(kdiss.dissimilarity, "_search_switch", no_search)
    table = synthetic_table(6)
    cfg = ProbeConfig(delta=1e-3)
    rows, _ = build_index_rows(table, table.record("country00"), table.record("country05"), cfg)
    assert len(rows) == 6
    query = table.record("country01")
    assert len(batch_compare(query, list(table.records()), cfg)) == 6

    path = tmp_path / "pyramids.csv"
    write_pyramid_csv(table, path)
    assert main(["punif", str(path), "--delta", "0.001"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7


def _spread_row(rng: random.Random, width: int) -> list[float]:
    """width values, each of its own magnitude from subnormal up to 1e300, a fifth zeros of either sign."""
    return [rng.choice((0.0, -0.0)) if rng.random() < 0.2 else rng.random() * 10.0 ** rng.uniform(-320, 300)
            for _ in range(width)]


def _exact_sum(values) -> float:
    """The exact sum of floats rounded once: every float is a whole multiple of
    2**-1074, so each scales to an integer exactly, and int / int rounds correctly."""
    scale = 2**1074
    return sum(n * (scale // d) for n, d in map(float.as_integer_ratio, values)) / scale


def test_similarity_sum_is_exactly_rounded():
    """The dissimilarity sum of one target is the exact sum of its ratio
    dissimilarities rounded once, bit for bit, at every width a pyramid or one
    of its halves can take and past the 128 at which a pairwise sum splits;
    zeros of both signs included."""
    rng = random.Random(20260808)
    for width in range(1, 131):
        for trial in range(24):
            query, target = _spread_row(rng, width), _spread_row(rng, width)
            if trial % 2:  # ties give dissimilarities of exactly 0.0
                target = [t if rng.random() < 0.5 else q for q, t in zip(query, target)]
            d_sum = _closed_form(query, [[t] for t in target], 1e-3)[2]
            want = _exact_sum(map(ratio_d, query, target))
            assert [s.hex() for s in d_sum] == [want.hex()], (width, trial)
    assert [s.hex() for s in _closed_form([-0.0] * 34, [[-0.0]] * 34, 1e-3)[2]] == [(0.0).hex()]


# every magnitude from subnormal to 1e300 and zeros of both signs, so that the rounding of the sum shows
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=4), st.data())
@example(width=1, n_rows=2, data=None)
@example(width=8, n_rows=1, data=None)
@example(width=34, n_rows=3, data=None)  # a pyramid
@example(width=128, n_rows=2, data=None)
@example(width=129, n_rows=2, data=None)
@example(width=300, n_rows=2, data=None)
def test_row_sums_are_exactly_rounded(width, n_rows, data):
    """Every dissimilarity sum of a closed-form pass over a table's columns is its
    row's exact sum rounded once, bit for bit, whatever the width; a duplicated
    row gets its twin's sum.  Drawn rows are a seeded spread of magnitudes with
    up to 16 drawn values written over random cells, so that an example costs a
    few draws and not one per value."""
    if data is None:  # an explicit example: values of every magnitude, and a row of -0.0
        rng = random.Random(width)
        query, pool = _spread_row(rng, width), [_spread_row(rng, width) for _ in range(n_rows)]
        pool.append([-0.0] * width)
    else:
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed"))
        query, *pool = [_spread_row(rng, width) for _ in range(n_rows + 1)]
        for value in data.draw(st.lists(VALUES, max_size=16), label="values"):
            rng.choice([query, *pool])[rng.randrange(width)] = value
    rows = pool + pool[:1]  # the first row twice
    d_sum = _closed_form(query, list(zip(*rows)), 1e-3)[2]
    want = [_exact_sum(map(ratio_d, query, row)) for row in rows]
    assert [s.hex() for s in d_sum] == [w.hex() for w in want]


# the values at which the one-comparison ratio rule could part from the reference's
# three branches: zeros of both signs (ingest admits -0.0 from a "-0" cell), the smallest
# subnormal, a pyramid share, the tie value 1.0 and a value near the float max
EDGE_VALUES = (0.0, -0.0, 5e-324, 100.0 / 34.0, 1.0, 1e308)


def test_similarity_columns_are_the_three_branch_rule_bit_for_bit():
    """Every ratio dissimilarity _closed_form computes is the three-branch
    reference's for its (q, t), sign of a zero included: each edge value as the
    query against every edge value."""
    rows = [list(row) for row in itertools.product(EDGE_VALUES, repeat=2)]
    for query in itertools.product(EDGE_VALUES, repeat=2):
        ds = _closed_form(list(query), list(zip(*rows)), 1e-3)[3]
        got = [[value.hex() for value in row] for row in zip(*ds)]
        assert got == [[value.hex() for value in map(ratio_d, query, row)] for row in rows], query


NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e300)
# few distinct values, so that rows tie with the query and with each other
SHARES = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 1.0 / 3.0, 100.0 / 34.0, 1e300])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda width: st.tuples(
            st.lists(SHARES, min_size=width, max_size=width),
            st.lists(st.lists(SHARES, min_size=width, max_size=width), max_size=4),
            st.lists(st.integers(min_value=0, max_value=3), max_size=8),
        )
    ),
    st.sampled_from(DELTAS),
)
def test_column_pass_matches_the_row_helpers(case, delta):
    """One closed-form pass over a table's columns gives, for every row, the
    dissimilarity sum math.fsum(map(ratio_d, q, t)) and the _increments of the
    per-row helpers, bit for bit: zeros of both signs, ties, duplicated rows
    and an empty table included."""
    query, pool, picks = case
    rows = [pool[i] for i in picks if i < len(pool)]  # a pool row picked twice is a duplicate
    columns = list(zip(*rows)) or [()] * len(query)
    k_cont, w_star, d_sum, ds = _closed_form(query, columns, delta)
    want = [list(map(ratio_d, query, row)) for row in rows]
    assert [s.hex() for s in d_sum] == [math.fsum(row).hex() for row in want]
    assert [list(column) for column in zip(*ds)] == want
    assert k_cont == [s * (1.0 + delta) for s in d_sum]
    assert w_star == [k / delta for k in k_cont]
    got = [[value.hex() for value in row] for row in zip(*_increment_columns(ds, delta))]
    assert got == [[value.hex() for value in _increments(row, delta)] for row in want]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NON_NEGATIVE, NON_NEGATIVE), min_size=1))
def test_similarity_sum_is_symmetric(pairs):
    """Swapping query and target leaves every ratio, and so the sum, unchanged."""
    q, t = zip(*pairs)
    assert math.fsum(map(r_similarity, q, t)).hex() == math.fsum(map(r_similarity, t, q)).hex()


PYRAMID = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)), min_size=34, max_size=34).filter(
    any
)


@settings(max_examples=300, deadline=None)
@given(PYRAMID, PYRAMID, PYRAMID, st.sampled_from(DELTAS))
def test_property_k_is_a_metric(a, b, c, delta):
    """K_cont / (1 + delta) = sum over cohorts of |q - t| / max(q, t) is a
    metric on pyramids: zero from a pyramid to itself, symmetric, and within
    rounding (a few ulps of the sums) it obeys the triangle inequality."""
    table = PyramidTable.from_rows({"a": normalize(a), "b": normalize(b), "c": normalize(c)})
    cfg = ProbeConfig(delta=delta)

    def dist(x, y):
        return compare(table.record(x), table.record(y), cfg).k_cont / (1.0 + delta)

    ab, bc, ac = dist("a", "b"), dist("b", "c"), dist("a", "c")
    assert ac <= ab + bc + 1e-12 * max(1.0, ab + bc)
    assert dist("a", "a") == 0.0
    assert ab == dist("b", "a")


def _pyramids(a, b, order=range(34)):
    """The query and target pyramids of shares a and b, their cohorts taken in the given order."""
    return [ObjectRecord.from_values(name, [COHORTS[i] for i in order], [shares[i] for i in order])
            for name, shares in (("q", normalize(a)), ("t", normalize(b)))]


@settings(max_examples=300, deadline=None)
@given(PYRAMID, PYRAMID, st.sampled_from(DELTAS))
@example([0.0] * 22 + [1.0] + [0.0] * 11, [0.0] * 22 + [2.0] + [0.0] * 10 + [1.0], 0.1)  # S = 32 + 2/3
def test_property_closed_form_k_is_the_engines(a, b, delta):
    """closed_form_k, from |q - t| / max(q, t) and one math.fsum per pair, gives the
    engine's K_cont bit for bit."""
    q, t = _pyramids(a, b)
    cfg = ProbeConfig(delta=delta)
    assert closed_form_k(q, t, cfg).hex() == compare(q, t, cfg).k_cont.hex()


# near-identical pairs: a similarity sum near P would cancel in P - S, a dissimilarity sum does not
NEAR_EPSILONS = (1e-8, 1e-10, 1e-12, 1e-14)


def _near_pairs(eps: float, count: int = 300):
    """count seeded 34-parameter pairs, each target value the query's times 1 + eps or 1 - eps."""
    rng = random.Random(20261020)
    for _ in range(count):
        q, _ = random_pair(rng, 34)
        values = [v * (1.0 + rng.choice((eps, -eps))) for v in q.param_values]
        yield q, ObjectRecord.from_values("t", q.param_names, values)


def _exact_gap(q, t) -> Fraction:
    """The exact rational sum of |q - t| / max(q, t) over the float values of a pair."""
    pairs = zip(map(Fraction, q.param_values), map(Fraction, t.param_values))
    return sum((abs(a - b) / max(a, b) for a, b in pairs), Fraction(0))


@pytest.mark.parametrize("eps", NEAR_EPSILONS)
def test_near_identical_pairs_keep_k_cont_to_a_few_ulps(eps):
    """K_cont of a near-identical pair is within 4 ulps of the exact sum of d times
    (1 + delta) for the float pair, and swapping query and target leaves it
    unchanged bit for bit."""
    cfg = ProbeConfig(delta=1e-4)
    for q, t in _near_pairs(eps):
        k_cont = compare(q, t, cfg).k_cont
        exact = _exact_gap(q, t) * (1 + Fraction(cfg.delta))
        assert abs(Fraction(k_cont) - exact) <= 4 * Fraction(math.ulp(k_cont)), (eps, k_cont, float(exact))
        assert compare(t, q, cfg).k_cont.hex() == k_cont.hex()


@pytest.mark.parametrize("eps, delta", [(1e-9, 1e-13), (1e-10, 1e-14)])
def test_near_identical_pairs_get_the_exact_d(eps, delta):
    """D of a near-identical pair is max(1, ceil(w*)) of the exact w* for the
    float pair and delta, with w* near 340,000, where P minus a similarity sum
    is off by whole counts."""
    for q, t in _near_pairs(eps):
        exact = max(1, math.ceil(_exact_gap(q, t) * (1 + Fraction(delta)) / Fraction(delta)))
        assert compare(q, t, ProbeConfig(delta=delta)).d == exact


@settings(max_examples=300, deadline=None)
@given(PYRAMID, PYRAMID, st.sampled_from(DELTAS), st.permutations(range(34)))
def test_property_k_cont_is_symmetric(a, b, delta, order):
    """Swapping query and target leaves K_cont unchanged bit for bit, also when
    the swapped pair lists its parameters in another order."""
    (q, t), (q_moved, t_moved) = _pyramids(a, b), _pyramids(a, b, order)
    cfg = ProbeConfig(delta=delta)
    k_cont = compare(q, t, cfg).k_cont
    assert compare(t, q, cfg).k_cont.hex() == k_cont.hex()
    assert compare(t_moved, q_moved, cfg).k_cont.hex() == k_cont.hex()


@settings(max_examples=300, deadline=None)
@given(PYRAMID, PYRAMID, st.sampled_from(DELTAS), st.permutations(range(34)))
def test_property_parameter_order_is_free(a, b, delta, order):
    """Permuting the parameters of query and target together leaves K_cont, D
    and every parameter's increment unchanged bit for bit."""
    cfg = ProbeConfig(delta=delta)
    result, moved = (compare(*_pyramids(a, b, cohorts), cfg) for cohorts in (range(34), order))
    assert (moved.k_cont.hex(), moved.d) == (result.k_cont.hex(), result.d)
    assert moved.increments == result.increments
