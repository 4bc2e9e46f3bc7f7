"""The closed-form kernel against the paper's mechanism.

compare, batch_compare and the index paths evaluate w* in closed form;
switch_weight keeps the bracketing-plus-bisection search on the grouping
predicate.  D must agree exactly and K_cont within 1e-9 relative.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdiss.dissimilarity
from kdiss.cli import main
from kdiss.dissimilarity import IncrementStore, ProbeConfig, batch_compare, compare, switch_weight
from kdiss.indexes import build_index_rows
from kdiss.pyramids import write_pyramid_csv

from conftest import pair_with_sims, random_pair, synthetic_table

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

