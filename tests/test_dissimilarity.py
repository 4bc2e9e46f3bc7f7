import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiss.dissimilarity import grouped_with_target, switch_weight
from kdiss.errors import DomainError, NotSwitchedError, SchemaError, StoreLookupError
from kdiss.kernel import ComparisonResult, ObjectRecord, ProbeConfig, batch_compare, closed_form_k, compare
from kdiss.store import IncrementStore

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

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_matches_fast_predicate_near_switch_weight(self, rng, delta):
        # at w* and its float neighbours one ulp can decide, most often for a
        # target within 0.1% of the query: the blend adds in the search's
        # order, so the two agree there too
        from kdiss.dissimilarity import _ProbeProblem

        cfg = ProbeConfig(delta=delta)
        for i in range(40):
            q, t = random_pair(rng, 34)
            if i % 2:
                t = ObjectRecord.from_values("t", q.param_names, q.param_values * rng.uniform(0.999, 1.001, 34))
            problem = _ProbeProblem(q, t, cfg)
            w_star = switch_weight(q, t, cfg)
            near = (math.nextafter(w_star, 0.0), w_star, math.nextafter(w_star, math.inf))
            for w in (0.3 * w_star, 0.9 * w_star, 1.1 * w_star, 3.0 * w_star, *near):
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
        # w* = 0.8 * (1 + 1e-13) / 1e-13 lies above the search's fixed cap of 1e12
        q, t = pair_with_sims([0.5, 0.7])
        with pytest.raises(NotSwitchedError, match=r"no switch up to weight 1e\+12"):
            switch_weight(q, t, ProbeConfig(delta=1e-13))

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

    def test_numpy_floats_round_trip(self, tmp_path):
        path = tmp_path / "increments.tsv"
        q, t = pair_with_sims([0.5, 0.7, 0.9])
        res = compare(q, t, ProbeConfig(delta=np.float64(1e-3)))
        res.increments["p0"] = np.float64(res.increments["p0"])
        store = IncrementStore(path)
        store.put(res)
        assert IncrementStore(path).as_mapping() == store.as_mapping()

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

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("a\tb\t0.0001\tm00\t0.5\na\tb\t0.00", encoding="utf-8")
        with pytest.warns(UserWarning, match=r"inc\.tsv:2: skipped a torn final line"):
            store = IncrementStore(path)
        assert store.as_mapping() == {("a", "b", 0.0001, "m00"): 0.5}

    def test_torn_multibyte_character_skipped(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_bytes("a\tb\t0.0001\tm00\t0.5\n".encode("utf-8") + "\u00e9".encode("utf-8")[:1])
        with pytest.warns(UserWarning, match=r"inc\.tsv:2:"):
            assert len(IncrementStore(path)) == 1

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("a\tb\t0.00\na\tb\t0.0001\tm00\t0.5\n", 1),  # bad line before the end
            ("a\tb\t0.0001\tm00\t0.5\na\tb\t0.00\n", 2),  # bad final line with its newline
            ("a\tb\tx\tm00\t0.5\na\tb\t0.0001\tm00\t0.5", 1),
        ],
    )
    def test_other_bad_lines_fail_with_line_number(self, tmp_path, text, lineno):
        path = tmp_path / "inc.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"inc\.tsv:{lineno}: "):
            IncrementStore(path)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_bytes(b"a\tb\t0.0001\tm00\t0.5\na\tb\t0.0001\tm\xff05\t0.5\n")
        with pytest.raises(SchemaError, match=r"inc\.tsv:2: not UTF-8"):
            IncrementStore(path)

    def test_carriage_return_in_name_round_trips(self, tmp_path):
        # put accepts any name without a tab or newline, so the loader splits lines on newlines only
        path = tmp_path / "inc.tsv"
        IncrementStore(path).put(ComparisonResult("a\rb", "t", 0.5, 1.0, 1, 0.5, 1.0, {"x": 1.0}))
        assert IncrementStore(path).as_mapping() == {("a\rb", "t", 0.5, "x"): 1.0}

    def test_put_after_torn_line_writes_over_it(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("q\tt\t0.5\tx\t1.0\nq\tt\t0.5\tx", encoding="utf-8")
        with pytest.warns(UserWarning):
            store = IncrementStore(path)
        res = self._result()
        store.put(res)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = IncrementStore(path)
        assert reloaded.as_mapping() == store.as_mapping()
        assert len(reloaded) == 1 + len(res.increments)

    def test_put_after_unterminated_record_keeps_it(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("q\tt\t0.5\tx\t1.0", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = IncrementStore(path)
            store.put(self._result())
            reloaded = IncrementStore(path)
        assert reloaded.as_mapping() == store.as_mapping()
        assert reloaded.combine("q", "t", delta=0.5) == 1.0

    def test_interleaved_runs_load_like_a_per_line_reference(self, tmp_path):
        # the pair (a, b) is interrupted by (c, d) and spells one delta two ways; (a, b, m00) is rewritten
        text = (
            "a\tb\t0.0001\tm00\t0.5\n"
            "a\tb\t0.0001\tm05\t0.25\n"
            "c\td\t0.001\tf80\t1.5\n"
            "\n"
            "a\tb\t1e-4\tm10\t2.0\n"
            "c\td\t1e-06\tm00\t3.0\n"
            "a\tb\t0.0001\tm00\t0.75\n"
            "c\td\t0.001\tf75\t-0.0\n"
        )
        path = tmp_path / "inc.tsv"
        path.write_text(text, encoding="utf-8")
        reference: dict = {}  # (query, target) -> delta -> param -> value, one line at a time
        for line in text.splitlines():
            if line:
                query, target, delta, param, value = line.split("\t")
                reference.setdefault((query, target), {}).setdefault(float(delta), {})[param] = float(value)
        expected = [
            ((q, t, d, p), v)
            for (q, t), deltas in reference.items()
            for d, incs in deltas.items()
            for p, v in incs.items()
        ]
        store = IncrementStore(path)
        assert list(store.as_mapping().items()) == expected
        # one (a, b, 1e-4) dict, in first-put order
        assert [key[3] for key, _ in expected[:3]] == ["m00", "m05", "m10"]
        assert store.deltas_for("c", "d") == [1e-6, 1e-3]
        assert store.combine("a", "b", ["m00", "m10"]) == 2.75

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("a\tb\t0.0001\tm05", "expected 5 tab-separated fields, got 4"),
            ("a\tb\t0.0001\tm05\t0.5\t1", "expected 5 tab-separated fields, got 6"),
            ("a\tb\t0.0001\tm05\t\t0.5", "expected 5 tab-separated fields, got 6"),
            ("a\tb", "expected 5 tab-separated fields, got 2"),
            ("a\tb\t1e-4x\tm05\t0.5", "bad numeric field (could not convert string to float: '1e-4x')"),
            ("a\tb\t0.0001\tm05\t0,5", "bad numeric field (could not convert string to float: '0,5')"),
        ],
    )
    def test_bad_line_messages(self, tmp_path, bad_line, message):
        # line 2 continues line 1's run of (a, b, 0.0001); a bad delta opens a new run
        path = tmp_path / "inc.tsv"
        path.write_text(f"a\tb\t0.0001\tm00\t0.5\n{bad_line}\na\tb\t0.0001\tm10\t0.5\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            IncrementStore(path)
        assert str(info.value) == f"{path}:2: {message}"
        if message.startswith("bad numeric"):
            assert type(info.value.__cause__) is ValueError
        else:  # raised outside any handler: no cause and no context
            assert info.value.__cause__ is None and info.value.__context__ is None

    def test_put_writes_one_line_per_increment(self, tmp_path):
        path = tmp_path / "inc.tsv"
        incs = {"m00": 0.1, "f80": np.float64(1e-300), "m05": 2}
        IncrementStore(path).put(ComparisonResult("q", "t", np.float64(1e-4), 1.0, 1, 1e-4, 1.0, incs))
        assert path.read_bytes() == b"q\tt\t0.0001\tm00\t0.1\nq\tt\t0.0001\tf80\t1e-300\nq\tt\t0.0001\tm05\t2.0\n"


_PAIRS = [("a", "b"), ("a", "c"), ("b", "a")]
_PARAMS = ["p0", "p1", "p2", "p3"]
_store_ops = st.lists(
    st.one_of(
        st.just("reopen"),
        st.tuples(
            st.sampled_from(_PAIRS),
            st.sampled_from([1e-4, 1e-6]),
            st.dictionaries(st.sampled_from(_PARAMS), st.floats(min_value=0.0, max_value=10.0), min_size=1),
        ),
    ),
    max_size=12,
)


def _expected_combine(model, query, target, params, delta):
    """What combine must return (or raise) by a scan of the flat record model."""
    if delta is None:
        deltas = sorted({d for (q, t, d, _) in model if (q, t) == (query, target)})
        if not deltas:
            return f"no records for ({query!r}, {target!r})"
        if len(deltas) > 1:
            return f"({query!r}, {target!r}) recorded at {len(deltas)} deltas; pass delta explicitly"
        delta = deltas[0]
    if params is None:
        values = [v for (q, t, d, _), v in model.items() if (q, t, d) == (query, target, delta)]
        return math.fsum(values) if values else f"no records for ({query!r}, {target!r}, delta={delta!r})"
    for param in params:
        if (query, target, delta, param) not in model:
            return f"no record for ({query!r}, {target!r}, delta={delta!r}, {param!r})"
    return math.fsum(model[(query, target, delta, p)] for p in params)


def _combine_or_message(store, *args):
    try:
        return store.combine(*args)
    except StoreLookupError as exc:
        return exc.args[0]


@settings(max_examples=150, deadline=None)
@given(_store_ops)
def test_store_matches_naive_model(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inc.tsv"
        store = IncrementStore(path)
        model: dict[tuple[str, str, float, str], float] = {}
        for op in ops:
            if op == "reopen":
                store = IncrementStore(path)
            else:
                (query, target), delta, incs = op
                store.put(ComparisonResult(query, target, delta, 1.0, 1, delta, math.fsum(incs.values()), incs))
                model.update({(query, target, delta, p): v for p, v in incs.items()})
            assert len(store) == len(model)
            assert store.as_mapping() == model
            for query, target in _PAIRS:
                deltas = sorted({d for (q, t, d, _) in model if (q, t) == (query, target)})
                assert store.deltas_for(query, target) == deltas
                for delta in (None, 1e-4, 1e-6):
                    for params in (None, _PARAMS[:2], _PARAMS, []):
                        got = _combine_or_message(store, query, target, params, delta)
                        assert got == _expected_combine(model, query, target, params, delta)
