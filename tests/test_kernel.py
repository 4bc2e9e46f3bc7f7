"""The closed-form kernel against the paper's mechanism.

compare, batch_compare and the index paths evaluate w* in closed form;
switch_weight keeps the bracketing-plus-bisection search on the grouping
predicate.  D must agree exactly and K_cont within 1e-9 relative.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdiss.dissimilarity
from kdiss.cli import main
from kdiss.dissimilarity import switch_weight
from kdiss.indexes import build_index_rows
from kdiss.kernel import ProbeConfig, batch_compare, compare
from kdiss.kernel import _closed_form, _increment_columns, _ratio_sims, _row_sums, _sum8
from kdiss.pyramids import PyramidTable, normalize, write_pyramid_csv
from kdiss.store import IncrementStore

from conftest import pair_with_sims, random_pair, synthetic_table


def _increments(sims, k_cont):
    """The per-row reference for _increment_columns: K_cont split over the
    parameters of one comparison in proportion to 1 - r."""
    shortfalls = [1.0 - r for r in sims]
    total = _sum8(shortfalls)
    scale = k_cont / total if total > 0.0 and k_cont > 0.0 else 0.0
    return [s * scale for s in shortfalls]


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
    search, and the whole-step K = D * delta sits within one delta above K_cont,
    give or take the rounding of w*: D comes from the predicate, which can
    move a w* that lies within rounding of a whole number one step either way."""
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
    [([0.5, 0.5], 0.01, 101), ([0.75] * 4, 0.25, 5), ([0.9, 0.8, 0.7, 0.6], 0.1, 11)],
)
def test_integral_switch_weight_gives_d_equal_w_star(sims, delta, d):
    q, t = pair_with_sims(sims)
    cfg = ProbeConfig(delta=delta)
    assert compare(q, t, cfg).d == d
    assert switch_weight(q, t, cfg) == d


# from deltas at which the switch test's own rounding spans many whole weights up to 1
BRACKET_DELTAS = (1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.1, 1.0)


@settings(max_examples=300, deadline=None)
@given(SIMS, st.sampled_from(BRACKET_DELTAS))
@example([0.5, 0.5], 1e-3)  # w* = 1001 computes as 1000.9999999999999; the search gives D = 1002
@example([0.5, 0.5], 0.01)  # w* = 101 computes as 101.00000000000001; D = 101
def test_property_d_brackets_w_star(sims, delta):
    """D is max(1, ceil(w*)) but where w* lies within the switch test's rounding
    of a whole number and that rounding is below half a whole weight; there D
    may be one step off, as the search's is.  So K_cont <= K up to that rounding."""
    q, t = pair_with_sims(sims)
    result = compare(q, t, ProbeConfig(delta=delta))
    top = max(1, math.ceil(result.w_star))
    rounding = 4 * sys.float_info.epsilon * (len(sims) + result.w_star) * (1.0 + delta) / delta
    assert top - 1 <= result.d <= top + 1
    if result.d != top:
        assert rounding < 0.5 and abs(result.w_star - round(result.w_star)) <= rounding
    slack = delta * rounding if result.d < top else 0.0
    assert result.k_cont <= result.k * (1.0 + 4 * sys.float_info.epsilon) + slack


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


@pytest.fixture(scope="module")
def np():
    """numpy, the reference of the two tests below, which skip without it; a skip
    inside a hypothesis example would be reported as a falsifying example."""
    return pytest.importorskip("numpy")


def test_sum8_matches_numpy_bit_for_bit(np):
    """_sum8 adds in numpy's order: every sum the engine takes (a 34-value
    row, a 17-cohort half, any other length) must be numpy's to the bit."""
    rng = np.random.default_rng(20260808)
    for n in range(131):
        for trial in range(24):
            # each value of its own magnitude, from subnormal up to 1e300
            row = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-320, 300, n)
            if trial % 3 == 1:
                row[rng.random(n) < 0.3] = 0.0
            elif trial % 3 == 2:  # cancellation and signed zeros make the order show
                row *= rng.choice([-1.0, 1.0], n)
                row[rng.random(n) < 0.2] = -0.0
            want = np.add.reduce(row)
            got = _sum8(row.tolist())
            assert type(got) is float
            assert got.hex() == float(want).hex(), (n, trial)
    assert _sum8([-0.0] * 34).hex() == float(np.add.reduce(np.full(34, -0.0))).hex()


# signed, from subnormal to 1e300, so that cancellation and signed zeros make the order show
ADDENDS = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=4), st.data())
@example(width=1, n_rows=2, data=None)  # tail only
@example(width=8, n_rows=1, data=None)  # accumulators, no tail
@example(width=34, n_rows=3, data=None)  # a pyramid
@example(width=129, n_rows=2, data=None)  # the first split
@example(width=300, n_rows=2, data=None)  # a split of a split
def test_row_sums_match_numpy_bit_for_bit(np, width, n_rows, data):
    """_row_sums adds a table's columns in _sum8's order: every row sum is
    numpy's to the bit, whatever the width."""
    if data is None:  # an explicit example: values of every magnitude, zeros of both signs
        rng = np.random.default_rng(width)
        rows = rng.uniform(-1.0, 1.0, (n_rows, width)) * 10.0 ** rng.uniform(-320, 300, (n_rows, width))
        rows[rng.random((n_rows, width)) < 0.2] = -0.0
        rows[-1] = -0.0  # numpy's reduction starts from 0.0, so this row sums to 0.0
    else:
        rows = np.array(data.draw(st.lists(ADDENDS, min_size=width * n_rows, max_size=width * n_rows)))
        rows = rows.reshape(n_rows, width)
    got = _row_sums(list(zip(*rows.tolist())))
    assert [value.hex() for value in got] == [float(np.add.reduce(row)).hex() for row in rows]


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
    similarity sum _sum8(_ratio_sims(q, t)) and the _increments of the
    per-row helpers, bit for bit: zeros of both signs, ties, duplicated rows
    and an empty table included."""
    query, pool, picks = case
    rows = [pool[i] for i in picks if i < len(pool)]  # a pool row picked twice is a duplicate
    columns = list(zip(*rows)) or [()] * len(query)
    k_cont, w_star, sim_sum, sims = _closed_form(query, columns, delta)
    want = [_ratio_sims(query, row) for row in rows]
    assert [s.hex() for s in sim_sum] == [_sum8(row).hex() for row in want]
    assert [list(column) for column in zip(*sims)] == want
    assert k_cont == [(len(query) - s) * (1.0 + delta) for s in sim_sum]
    assert w_star == [k / delta for k in k_cont]
    got = [[value.hex() for value in row] for row in zip(*_increment_columns(sims, k_cont))]
    assert got == [[value.hex() for value in _increments(row, k)] for row, k in zip(want, k_cont)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NON_NEGATIVE, NON_NEGATIVE), min_size=1))
def test_similarity_sum_is_symmetric(pairs):
    """Swapping query and target leaves every ratio, and so the sum, unchanged."""
    q, t = zip(*pairs)
    assert _sum8(_ratio_sims(q, t)).hex() == _sum8(_ratio_sims(t, q)).hex()


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
