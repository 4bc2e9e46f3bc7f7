"""The increment store: put, combine, the file format and its tail repair.

Needs no numpy: the two numpy-scalar cases skip without it.
"""

import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiss.errors import SchemaError, StoreLookupError
from kdiss.kernel import ComparisonResult, ProbeConfig, compare
from kdiss.store import IncrementStore

from conftest import pair_with_sims


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
        np = pytest.importorskip("numpy")
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

    @pytest.mark.parametrize("char", ["\t", "\n"], ids=["tab", "newline"])
    @pytest.mark.parametrize("field", ["query", "target", "param", "target-and-param"])
    def test_rejected_put_changes_nothing(self, tmp_path, field, char):
        path = tmp_path / "inc.tsv"
        store = IncrementStore(path)
        store.put(self._result())
        before, mapping = path.read_bytes(), store.as_mapping()
        bad = f"a{char}b"
        names = {"query": "q", "target": "t", "param": "p1"}
        for name in field.split("-and-"):
            names[name] = bad
        increments = {"p0": 0.25, names["param"]: 0.5}
        result = ComparisonResult(names["query"], names["target"], 1e-3, 1.0, 1, 1e-3, 0.75, increments)
        with pytest.raises(SchemaError) as info:
            store.put(result)
        # the first bad name in query, target, parameter order is the one named
        assert str(info.value) == f"store field {bad!r} may not contain tabs or newlines"
        assert path.read_bytes() == before
        assert store.as_mapping() == mapping

    @pytest.mark.parametrize("with_path", [True, False], ids=["path", "no-path"])
    @pytest.mark.parametrize(
        "names, message",
        [
            ({"query": "a\ud800"}, "store field 'a\\ud800' cannot be encoded as UTF-8"),
            ({"target": "a\ud800"}, "store field 'a\\ud800' cannot be encoded as UTF-8"),
            ({"param": "a\udfff"}, "store field 'a\\udfff' cannot be encoded as UTF-8"),
            ({"target": "a\ud800", "param": "b\udfff"}, "store field 'a\\ud800' cannot be encoded as UTF-8"),
            ({"target": "a\ud800", "param": "a\tb"}, "store field 'a\\ud800' cannot be encoded as UTF-8"),
            ({"target": "a\tb", "param": "a\ud800"}, "store field 'a\\tb' may not contain tabs or newlines"),
            ({"query": "é\ud800", "param": "ü"}, "store field 'é\\ud800' cannot be encoded as UTF-8"),
        ],
        ids=["query", "target", "param", "target-and-param", "target-before-tab", "tab-before-param", "non-ascii"],
    )
    def test_unencodable_put_changes_nothing(self, tmp_path, names, message, with_path):
        """A name with a lone surrogate is rejected before the index or the file
        is touched, with or without a path; the first bad name is the one named."""
        path = tmp_path / "inc.tsv"
        store = IncrementStore(path if with_path else None)
        store.put(self._result())
        before, mapping = path.read_bytes() if with_path else b"", store.as_mapping()
        names = {"query": "q", "target": "t", "param": "p1", **names}
        increments = {"p0": 0.25, names["param"]: 0.5}
        result = ComparisonResult(names["query"], names["target"], 1e-3, 1.0, 1, 1e-3, 0.75, increments)
        with pytest.raises(SchemaError) as info:
            store.put(result)
        assert str(info.value) == message
        assert (path.read_bytes() if with_path else b"") == before
        assert path.exists() == with_path
        assert store.as_mapping() == mapping

    @pytest.mark.parametrize("with_path", [True, False], ids=["path", "no-path"])
    @pytest.mark.parametrize(
        "delta, value, message",
        [
            (1e-3, "x", "store increment 'p1' is not a number: 'x'"),
            (1e-3, None, "store increment 'p1' is not a number: None"),
            (1e-3, "nan", "store increment 'p1' is not finite: 'nan'"),
            (1e-3, math.inf, "store increment 'p1' is not finite: inf"),
            (1e-3, "-inf", "store increment 'p1' is not finite: '-inf'"),
            ("x", 0.5, "store delta must be a finite number > 0, got 'x'"),
            (None, 0.5, "store delta must be a finite number > 0, got None"),
            (math.nan, 0.5, "store delta must be a finite number > 0, got nan"),
            ("nan", 0.5, "store delta must be a finite number > 0, got 'nan'"),
            (math.inf, 0.5, "store delta must be a finite number > 0, got inf"),
            (0.0, 0.5, "store delta must be a finite number > 0, got 0.0"),
            (-1e-3, 0.5, "store delta must be a finite number > 0, got -0.001"),
        ],
        ids=[
            "text", "none", "nan", "inf", "minus-inf-text",
            "delta-text", "delta-none", "delta-nan", "delta-nan-text", "delta-inf", "delta-zero", "delta-negative",
        ],
    )
    def test_non_numeric_put_changes_nothing(self, tmp_path, delta, value, message, with_path):
        """A value float() refuses or turns into nan or an infinity, and a delta
        that is not a finite number > 0, are rejected before the index or the
        file is touched, with or without a path, also after a good value in the
        same put."""
        path, fresh_path = tmp_path / "inc.tsv", tmp_path / "fresh.tsv"
        store = IncrementStore(path if with_path else None)
        store.put(self._result())
        before, mapping = path.read_bytes() if with_path else b"", store.as_mapping()
        fresh = IncrementStore(fresh_path if with_path else None)
        result = ComparisonResult("q", "t", delta, 1.0, 1, 1e-3, 0.75, {"p0": 0.25, "p1": value})
        for target in (store, fresh):
            with pytest.raises(SchemaError) as info:
                target.put(result)
            assert str(info.value) == message
        assert (path.read_bytes() if with_path else b"") == before
        assert path.exists() == with_path and not fresh_path.exists()
        assert store.as_mapping() == mapping and fresh.as_mapping() == {}

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("a\tb\t0.0001\tm00\t0.5\na\tb\t0.00", encoding="utf-8")
        with pytest.warns(UserWarning, match=r"inc\.tsv:2: skipped a torn final line"):
            store = IncrementStore(path)
        assert store.as_mapping() == {("a", "b", 0.0001, "m00"): 0.5}

    @pytest.mark.parametrize("tail", ["a\tb\t0.0001\tm05\tnan", "a\tb\t-1\tm05\t0.5"])
    def test_torn_final_line_is_one_put_would_refuse(self, tmp_path, tail):
        path = tmp_path / "inc.tsv"
        path.write_text(f"a\tb\t0.0001\tm00\t0.5\n{tail}", encoding="utf-8")
        with pytest.warns(UserWarning, match=r"inc\.tsv:2: skipped a torn final line"):
            assert IncrementStore(path).as_mapping() == {("a", "b", 0.0001, "m00"): 0.5}

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
            ("\n\na\tb\t0.00\na\tb\t0.0001\tm00\t0.5\n", 3),  # blank lines count
        ],
    )
    def test_other_bad_lines_fail_with_line_number(self, tmp_path, text, lineno):
        path = tmp_path / "inc.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"inc\.tsv:{lineno}: "):
            IncrementStore(path)

    def test_blank_lines_only_load_empty(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("\n\n\n", encoding="utf-8")
        store = IncrementStore(path)
        assert len(store) == 0 and store.as_mapping() == {}

    def test_load_interns_parameter_names(self, tmp_path):
        """Every record of one parameter, over pairs and deltas, keys on the one interned string."""
        path = tmp_path / "inc.tsv"
        lines = [f"{q}\t{t}\t{d}\t{p}\t0.5\n" for q, t in [("a", "b"), ("b", "a"), ("a", "c")]
                 for d in ("1e-4", "1e-6") for p in ("m00", "f80")]
        path.write_text("".join(lines), encoding="utf-8")
        keys = list(IncrementStore(path).as_mapping())
        assert len(keys) == 12
        for name in ("m00", "f80"):
            same = [key[3] for key in keys if key[3] == name]
            assert len(same) == 6
            assert all(key is sys.intern(name) for key in same)

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
        with pytest.warns(UserWarning, match=r"inc\.tsv:2: skipped a torn final line"):  # the put cuts it off
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
            # the first bad line is reported, not a worse one after it
            ("a\tb\t0.0001\tm05\tx\na\tb", "bad numeric field (could not convert string to float: 'x')"),
            # a number put would refuse: an increment that is not finite, in a run or rewritten by line 3
            ("a\tb\t0.0001\tm05\tnan", "increment 'm05' is not finite: nan"),
            ("a\tb\t0.0001\tm05\tinf", "increment 'm05' is not finite: inf"),
            ("a\tb\t0.0001\tm10\t-Infinity", "increment 'm10' is not finite: -Infinity"),
            ("c\td\t0.001\tm10\tNaN", "increment 'm10' is not finite: NaN"),
            # ... or a delta that is not a finite number > 0
            ("a\tb\tnan\tm05\t0.5", "delta must be a finite number > 0, got nan"),
            ("a\tb\tinf\tm05\t0.5", "delta must be a finite number > 0, got inf"),
            ("a\tb\t0\tm05\t0.5", "delta must be a finite number > 0, got 0"),
            ("a\tb\t-0.0\tm05\t0.5", "delta must be a finite number > 0, got -0.0"),
            ("a\tb\t-1\tm05\tinf", "delta must be a finite number > 0, got -1"),
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
        run = b"q\tt\t0.0001\tm00\t0.1\nq\tt\t0.0001\tf80\t1e-300\nq\tt\t0.0001\tm05\t2.0\n"
        record = b"a\tb\t0.5\tx\t1.0"
        # the file a put finds (None: no file), what it leaves before the put's own lines,
        # and the number of the torn line it cuts off with a warning (0: none)
        tails = {
            "missing": (None, b"", 0),
            "empty": (b"", b"", 0),
            "newline": (record + b"\n", record + b"\n", 0),
            "unterminated": (record, record + b"\n", 0),
            "torn": (record + b"\na\tb\t0.5\tx", record + b"\n", 2),
            "torn-only-line": (b"a\tb\t0.", b"", 1),
            "torn-nan-delta": (record + b"\na\tb\tnan\tx\t1.0", record + b"\n", 2),
            "torn-long-line": (b"a" * 10000 + b"\n" + b"b" * 10000, b"a" * 10000 + b"\n", 2),
            "unterminated-long": (b"\n" + b"q" * 10000 + record[1:], b"\n" + b"q" * 10000 + record[1:] + b"\n", 0),
        }
        for name, (found, kept, torn) in tails.items():
            for incs, written in (({"m00": 0.1, "f80": 1e-300, "m05": 2}, run), ({}, b"")):
                path = tmp_path / f"{name}-{len(incs)}.tsv"
                store = IncrementStore(path)  # opened before the tail is written, so no load warns
                if found is not None:
                    path.write_bytes(found)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    store.put(ComparisonResult("q", "t", 1e-4, 1.0, 1, 1e-4, 1.0, incs))
                assert path.read_bytes() == kept + written, (name, incs)
                message = f"{path}:{torn}: skipped a torn final line (no newline, does not parse)"
                assert [str(w.message) for w in caught] == ([message] if torn else []), (name, incs)
        # numpy scalars are written as the floats they hold; last, as it skips without numpy
        np = pytest.importorskip("numpy")
        path = tmp_path / "numpy.tsv"
        incs = {"m00": 0.1, "f80": np.float64(1e-300), "m05": 2}
        IncrementStore(path).put(ComparisonResult("q", "t", np.float64(1e-4), 1.0, 1, 1e-4, 1.0, incs))
        assert path.read_bytes() == run


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
                    # the first missing name in the caller's order, a name counted twice, a one-shot iterator
                    grid = [(p, p) for p in (None, _PARAMS[:2], _PARAMS, [], _PARAMS[::-1], ["p0", "p0"])]
                    for params, listed in [*grid, (iter(_PARAMS[:2]), _PARAMS[:2])]:
                        got = _combine_or_message(store, query, target, params, delta)
                        assert got == _expected_combine(model, query, target, listed, delta)


# store lines: interleaved pairs, keys rewritten, 1e-4 spelled two ways, and blank lines
_valid_lines = st.lists(
    st.just("")
    | st.tuples(
        st.sampled_from(_PAIRS),
        st.sampled_from(["0.0001", "1e-4", "1e-06"]),
        st.sampled_from(_PARAMS),
        st.floats(allow_nan=False, allow_infinity=False),
    ).map(lambda r: f"{r[0][0]}\t{r[0][1]}\t{r[1]}\t{r[2]}\t{r[3]!r}"),
    max_size=30,
)
_bad_lines = st.sampled_from(
    [
        ("a\tb\t1e-4\tp0", "expected 5 tab-separated fields, got 4"),
        ("a\tb\t1e-4\tp0\t0.5\t1", "expected 5 tab-separated fields, got 6"),
        ("\t", "expected 5 tab-separated fields, got 2"),
        ("a\tb\tx\tp0\t0.5", "bad numeric field (could not convert string to float: 'x')"),
        ("a\tb\t1e-4\tp0\t0,5", "bad numeric field (could not convert string to float: '0,5')"),
        ("a\tb\t1e-4\tp0\t", "bad numeric field (could not convert string to float: '')"),
    ]
)


def _load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inc.tsv"
        path.write_text(text, encoding="utf-8")
        try:
            return path, IncrementStore(path)
        except SchemaError as exc:
            return path, exc


@settings(max_examples=150, deadline=None)
@given(_valid_lines)
def test_load_matches_a_per_line_reference(lines):
    reference: dict = {}  # (query, target) -> delta -> param -> value, one line at a time
    for line in lines:
        if line:
            query, target, delta, param, value = line.split("\t")
            reference.setdefault((query, target), {}).setdefault(float(delta), {})[param] = float(value)
    expected = [
        ((q, t, d, p), v) for (q, t), deltas in reference.items() for d, incs in deltas.items() for p, v in incs.items()
    ]
    _, store = _load_text("".join(f"{line}\n" for line in lines))
    assert list(store.as_mapping().items()) == expected
    assert all(key[3] is sys.intern(key[3]) for key in store.as_mapping())


@settings(max_examples=150, deadline=None)
@given(_valid_lines, _bad_lines, st.data())
def test_one_bad_line_is_reported_at_its_number(lines, bad, data):
    bad_line, message = bad
    at = data.draw(st.integers(min_value=0, max_value=len(lines)))
    path, exc = _load_text("".join(f"{line}\n" for line in [*lines[:at], bad_line, *lines[at:]]))
    assert isinstance(exc, SchemaError)
    assert str(exc) == f"{path}:{at + 1}: {message}"
    if message.startswith("bad numeric"):
        assert type(exc.__cause__) is ValueError
    else:
        assert exc.__cause__ is None and exc.__context__ is None
