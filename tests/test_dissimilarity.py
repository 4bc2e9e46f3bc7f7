import math

import numpy as np
import pytest

from kdiss.dissimilarity import (
    IncrementStore,
    ProbeConfig,
    batch_compare,
    closed_form_k,
    compare,
    grouped_with_target,
    switch_weight,
)
from kdiss.errors import DomainError, NotSwitchedError, SchemaError, StoreLookupError
from kdiss.similarity import ObjectRecord

from conftest import pair_with_sims, random_pair


class TestGroupedWithTarget:
    def test_clones_group_at_small_weight(self):
        q, t = pair_with_sims([0.5, 0.7])
        assert grouped_with_target(q, t, ProbeConfig(delta=0.01), weight=1e-6) is False

    def test_identical_target_any_weight(self):
        q, _ = pair_with_sims([0.5, 0.7])
        t = ObjectRecord("t", q.params)
        cfg = ProbeConfig(delta=0.01)
        for w in (1.0, 10.0, 1e6):
            assert grouped_with_target(q, t, cfg, weight=w) is True

    def test_monotone_in_weight(self, rng):
        cfg = ProbeConfig(delta=1e-2)
        for _ in range(20):
            q, t = random_pair(rng, 5)
            grid = np.geomspace(1e-3, 1e5, 25)
            flags = [grouped_with_target(q, t, cfg, w) for w in grid]
            first_true = flags.index(True) if True in flags else len(flags)
            assert all(flags[first_true:]), "once switched, stays switched"

    def test_weight_validation(self):
        q, t = pair_with_sims([0.5])
        with pytest.raises(DomainError):
            grouped_with_target(q, t, ProbeConfig(), weight=0.0)

    def test_matches_fast_predicate(self, rng):
        from kdiss.dissimilarity import _ProbeProblem

        cfg = ProbeConfig(delta=1e-3)
        for _ in range(10):
            q, t = random_pair(rng, 8)
            problem = _ProbeProblem(q, t, cfg)
            w_star = switch_weight(q, t, cfg)
            for w in (0.3 * w_star, 0.9 * w_star, 1.1 * w_star, 3.0 * w_star):
                if w <= 0:
                    continue
                assert grouped_with_target(q, t, cfg, w) == problem.anchor_with_target(w)


class TestSwitchWeight:
    def test_identical_gives_zero(self):
        q, _ = pair_with_sims([0.3, 0.9, 0.4])
        t = ObjectRecord("t", q.params)
        assert switch_weight(q, t, ProbeConfig(delta=1e-4)) == 0.0

    def test_two_param_example(self):
        # sims (0.5, 0.7), delta 0.01: w* = 2 * (1 - 0.6) * 1.01 / 0.01 = 80.8
        q, t = pair_with_sims([0.5, 0.7])
        w = switch_weight(q, t, ProbeConfig(delta=0.01))
        assert w == pytest.approx(80.8, rel=1e-9)

    def test_not_switched_when_capped(self):
        q, t = pair_with_sims([0.5, 0.7])
        with pytest.raises(NotSwitchedError):
            switch_weight(q, t, ProbeConfig(delta=1e-7, max_weight=10.0))

    def test_schema_mismatch(self):
        q = ObjectRecord.from_values("q", ["a"], [1.0])
        t = ObjectRecord.from_values("t", ["b"], [1.0])
        with pytest.raises(SchemaError):
            switch_weight(q, t, ProbeConfig())


class TestClosedFormK:
    def test_identical_is_zero(self):
        q, _ = pair_with_sims([1.0, 1.0])
        t = ObjectRecord("t", q.params)
        assert closed_form_k(q, t, ProbeConfig(delta=0.01)) == 0.0

    def test_two_param_value(self):
        q, t = pair_with_sims([0.5, 0.7])
        assert closed_form_k(q, t, ProbeConfig(delta=0.01)) == pytest.approx(0.808, rel=1e-12)

    def test_small_delta_limit(self):
        sims = [0.5] * 34
        q, t = pair_with_sims(sims)
        k = closed_form_k(q, t, ProbeConfig(delta=1e-9))
        assert k == pytest.approx(17.0, rel=1e-8)


class TestCompare:
    def test_identical_objects(self):
        q, _ = pair_with_sims([0.2, 0.9])
        t = ObjectRecord("t", q.params)
        for delta in (1e-1, 1e-4):
            res = compare(q, t, ProbeConfig(delta=delta))
            assert res.d == 1
            assert res.k == pytest.approx(delta, rel=1e-15)
            assert res.k_cont == 0.0
            assert all(v == 0.0 for v in res.increments.values())

    def test_two_param_increments(self):
        q, t = pair_with_sims([0.5, 0.7])
        res = compare(q, t, ProbeConfig(delta=0.01))
        assert res.d == 81
        assert res.k == pytest.approx(0.81, rel=1e-12)
        assert res.increments["p0"] == pytest.approx(0.505, rel=1e-9)
        assert res.increments["p1"] == pytest.approx(0.303, rel=1e-9)
        assert math.fsum(res.increments.values()) == pytest.approx(res.k_cont, rel=1e-13)

    def test_halving_delta_doubles_d(self, rng):
        q, t = random_pair(rng, 12)
        res1 = compare(q, t, ProbeConfig(delta=1e-3))
        res2 = compare(q, t, ProbeConfig(delta=5e-4))
        assert res2.d / res1.d == pytest.approx(2.0, rel=1e-2)
        assert res2.k_cont / (1 + 5e-4) == pytest.approx(res1.k_cont / (1 + 1e-3), rel=1e-6)

    def test_k_bracket_invariant(self, rng):
        for _ in range(20):
            q, t = random_pair(rng, 6)
            res = compare(q, t, ProbeConfig(delta=1e-3))
            assert res.d >= 1
            assert res.k_cont <= res.k <= res.k_cont + res.delta + 1e-15

    def test_k_cont_symmetric_under_default_design(self, rng):
        for _ in range(10):
            q, t = random_pair(rng, 7)
            fwd = compare(q, t, ProbeConfig(delta=1e-3))
            t2 = ObjectRecord("q2", t.params)
            q2 = ObjectRecord("t2", q.params)
            rev = compare(t2, q2, ProbeConfig(delta=1e-3))
            assert fwd.k_cont == rev.k_cont

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ProbeConfig(delta=0.0)


class TestBatchCompare:
    def test_empty(self):
        q, _ = pair_with_sims([0.5])
        assert batch_compare(q, [], ProbeConfig()) == []

    def test_singleton_matches_compare(self):
        q, t = pair_with_sims([0.5, 0.8])
        cfg = ProbeConfig(delta=1e-3)
        assert batch_compare(q, [t], cfg) == [compare(q, t, cfg)]

    def test_permutation_equivariant(self, rng):
        cfg = ProbeConfig(delta=1e-3)
        q, _ = random_pair(rng, 5)
        targets = []
        for i in range(6):
            _, t = random_pair(rng, 5)
            targets.append(ObjectRecord(f"t{i}", t.params))
        forward = batch_compare(q, targets, cfg)
        backward = batch_compare(q, targets[::-1], cfg)
        assert forward == backward[::-1]


class TestIncrementStore:
    def _result(self, delta=1e-3):
        q, t = pair_with_sims([0.5, 0.7, 0.9])
        return compare(q, t, ProbeConfig(delta=delta))

    def test_combine_full_set_reproduces_k_cont(self):
        res = self._result()
        store = IncrementStore()
        store.put(res)
        assert store.combine("q", "t") == pytest.approx(res.k_cont, rel=1e-13)

    def test_subset_sums(self):
        res = self._result()
        store = IncrementStore()
        store.put(res)
        part1 = store.combine("q", "t", ["p0"])
        part2 = store.combine("q", "t", ["p1", "p2"])
        assert part1 + part2 == pytest.approx(res.k_cont, rel=1e-12)

    def test_empty_subset_is_zero(self):
        store = IncrementStore()
        store.put(self._result())
        assert store.combine("q", "t", []) == 0.0

    def test_missing_key_raises(self):
        store = IncrementStore()
        store.put(self._result())
        with pytest.raises(StoreLookupError):
            store.combine("q", "t", ["nope"])
        with pytest.raises(StoreLookupError):
            store.combine("q", "zzz")

    def test_delta_disambiguation(self):
        store = IncrementStore()
        store.put(self._result(delta=1e-3))
        store.put(self._result(delta=1e-4))
        with pytest.raises(StoreLookupError):
            store.combine("q", "t")
        assert store.combine("q", "t", delta=1e-3) > 0

    def test_file_roundtrip_exact(self, tmp_path):
        path = tmp_path / "increments.tsv"
        res = self._result()
        store = IncrementStore(path)
        store.put(res)
        reloaded = IncrementStore(path)
        assert reloaded.as_mapping() == store.as_mapping()
        assert reloaded.combine("q", "t") == store.combine("q", "t")

    def test_append_last_write_wins(self, tmp_path):
        path = tmp_path / "increments.tsv"
        store = IncrementStore(path)
        res = self._result()
        store.put(res)
        store.put(res)
        reloaded = IncrementStore(path)
        assert len(reloaded) == len(res.increments)
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2 * len(res.increments)

    def test_rejects_tab_in_name(self):
        res = self._result()
        bad = type(res)(
            query="a\tb", target=res.target, delta=res.delta, w_star=res.w_star,
            d=res.d, k=res.k, k_cont=res.k_cont, increments=res.increments,
        )
        with pytest.raises(SchemaError):
            IncrementStore().put(bad)
