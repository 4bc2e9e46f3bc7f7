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
from kdiss.dissimilarity import ProbeConfig, batch_compare, compare, switch_weight
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

