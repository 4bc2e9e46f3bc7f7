import math

import pytest

from kdiss.dissimilarity import grouped_with_target, switch_weight
from kdiss.errors import DomainError, NotSwitchedError, SchemaError
from kdiss.kernel import ObjectRecord, ProbeConfig, batch_compare, closed_form_k, compare

from conftest import grouped_by_records, pair_with_sims, random_pair

# The store's tests live in test_store.py; imported here, they are also collected
# under this module, where they were first written, so their old test ids still run.
from test_store import TestIncrementStore, test_store_matches_naive_model  # noqa: F401


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
            grid = [1e-3 * 10.0 ** (i / 3) for i in range(25)]  # 1e-3 to 1e5, three steps a decade
            flags = [grouped_with_target(q, t, cfg, w) for w in grid]
            first_true = flags.index(True) if True in flags else len(flags)
            assert all(flags[first_true:]), "once switched, stays switched"

    def test_weight_validation(self):
        q, t = pair_with_sims([0.5])
        with pytest.raises(DomainError):
            grouped_with_target(q, t, ProbeConfig(), weight=0.0)

    def test_matches_fast_predicate(self, rng):
        # the closed-form entries are the probe records' blend, and split as its bipartition does
        cfg = ProbeConfig(delta=1e-3)
        for _ in range(10):
            q, t = random_pair(rng, 8)
            w_star = switch_weight(q, t, cfg)
            for w in (0.3 * w_star, 0.9 * w_star, 1.1 * w_star, 3.0 * w_star):
                if w <= 0:
                    continue
                assert grouped_with_target(q, t, cfg, w) == grouped_by_records(q, t, cfg, w)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_matches_fast_predicate_near_switch_weight(self, rng, delta):
        # at w* and its float neighbours one ulp can decide, most often for a
        # target within 0.1% of the query: the blend's entries are the closed
        # form's bit for bit, so the two agree there too
        cfg = ProbeConfig(delta=delta)
        for i in range(40):
            q, t = random_pair(rng, 34)
            if i % 2:
                values = [v * rng.uniform(0.999, 1.001) for v in q.param_values]
                t = ObjectRecord.from_values("t", q.param_names, values)
            w_star = switch_weight(q, t, cfg)
            near = (math.nextafter(w_star, 0.0), w_star, math.nextafter(w_star, math.inf))
            for w in (0.3 * w_star, 0.9 * w_star, 1.1 * w_star, 3.0 * w_star, *near):
                if w <= 0:
                    continue
                assert grouped_with_target(q, t, cfg, w) == grouped_by_records(q, t, cfg, w)


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
        # w* = 0.8 * (1 + 1e-13) / 1e-13 lies above the search's fixed cap of 1e12
        q, t = pair_with_sims([0.5, 0.7])
        with pytest.raises(NotSwitchedError, match=r"no switch up to weight 1e\+12"):
            switch_weight(q, t, ProbeConfig(delta=1e-13))

    def test_switch_weight_near_the_cap(self):
        # w* = 70000 * (1 + 1e-6) / 1e-6 = 7.000007e10 lies below the cap of 1e12; the
        # predicate compares dissimilarities, which keep delta's digits, so K_cont holds
        # to 1e-9 here and test_switch_weight_keeps_d_at_small_delta checks D as well
        q, t = pair_with_sims([0.0] * 70_000)
        cfg = ProbeConfig(delta=1e-6)
        w = switch_weight(q, t, cfg)
        assert w * cfg.delta == pytest.approx(compare(q, t, cfg).k_cont, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "sims, delta", [([0.9] * 34, 1e-9), ([0.5] * 2, 1e-10), ([0.0] * 70_000, 1e-6)], ids=["0.9x34", "0.5x2", "0x70000"]
    )
    def test_switch_weight_keeps_d_at_small_delta(self, sims, delta):
        # a search that blended similarities lost these to the cancellation of entries
        # near 1: 1.3e-7 off at 0.9 x 34, and D 3 to 10364 counts short
        q, t = pair_with_sims(sims)
        cfg = ProbeConfig(delta=delta)
        result = compare(q, t, cfg)
        w = switch_weight(q, t, cfg)
        assert w == pytest.approx(result.w_star, rel=1e-12, abs=0.0)
        assert max(1, math.ceil(w)) == result.d

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
