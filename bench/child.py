"""Child-process side of the benchmark: kdiss runs here, never in run.py.

    python3 bench/child.py cli OUT.json [--trace] -- ARGV...
    python3 bench/child.py store WORKDIR [--trace]
    python3 bench/child.py probes WORKDIR SEED OUT.json

``cli`` runs ``kdiss.cli.main(ARGV)`` in this process (optionally under
span wrappers) and records the import time, the wall time of ``main`` and
the exit code.  ``store`` keeps one ``IncrementStore`` open and, on each
request read from stdin, drives it through the next slice of the
generated operation stream, checking every result, or reopens it to
verify.  ``probes`` times single calls of the public engine functions on
a seeded sample of pairs.  ``cli`` and ``probes`` write one JSON object
to OUT.json; ``store`` answers each request with one JSON line.  kdiss
must be importable, e.g. with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import calib
import check
import spans

# Seconds of store operations between two in-process calibrations.
CALIBRATE_EVERY_S = 0.25


def _dump(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def run_cli(out: str, trace: bool, argv: list[str]) -> None:
    start = time.perf_counter()
    import kdiss.cli

    import_s = time.perf_counter() - start
    recorder = spans.Recorder(argv[0])
    if trace:
        for target in recorder.install(spans.CLI_TARGETS):
            print(f"not traced: {target} is gone", file=sys.stderr)
    start = time.perf_counter()
    code = kdiss.cli.main(argv)
    wall_s = time.perf_counter() - start
    _dump(out, {"import_s": import_s, "wall_s": wall_s, "exit": code, "spans": recorder.spans})


class StoreSession:
    """Library use of one ``IncrementStore``, driven slice by slice.

    ``model`` is what the store must hold: the generated file plus every
    increment put since, last write per key winning.  It is built from the
    generator's files only, never from what the program wrote.
    """

    KINDS = ("put", "combine_all", "combine_subset", "deltas_for")

    def __init__(self, work: Path, trace: bool):
        from kdiss.dissimilarity import IncrementStore

        self.recorder = spans.Recorder("store")
        if trace:
            for target in self.recorder.install(spans.STORE_TARGETS):
                print(f"not traced: {target} is gone", file=sys.stderr)
        self.open_store = IncrementStore
        self.pristine = work / "store.tsv"
        self.live = work / "store-live.tsv"
        with open(work / "ops.tsv", encoding="utf-8") as fh:
            self.ops = [line.rstrip("\n").split("\t") for line in fh]
        self.offset = 0
        self.model: dict[tuple[str, str, float], dict[str, float]] = {}
        with open(self.pristine, encoding="utf-8") as fh:
            for line in fh:
                query, target, delta, param, inc = line.rstrip("\n").split("\t")
                self.model.setdefault((query, target, float(delta)), {})[param] = float(inc)
        self.store = IncrementStore(self.live)

    def run_slice(self, seconds: float, need: dict[str, int]) -> dict:
        """Time two opens of the generated store, then run ops for ``seconds``
        and on until each kind has the sample count in ``need``.  Every
        timing is scaled by the in-process calibrations around it."""
        from kdiss.dissimilarity import ComparisonResult

        before = calib.kernel_s()
        opens = []
        for _ in range(2):
            start = time.perf_counter()
            records_loaded = len(self.open_store(self.pristine))
            opens.append(time.perf_counter() - start)
        after = calib.kernel_s()
        opens = [calib.scale(o, before, after, calib.REF_KERNEL_S) for o in opens]
        size_before = self.live.stat().st_size
        durations: dict[str, list[float]] = {k: [] for k in self.KINDS}
        # raw latencies since the last calibration, scaled when the next one is taken
        pending: dict[str, list[float]] = {k: [] for k in self.KINDS}

        def recalibrate() -> None:
            nonlocal before, after
            before, after = after, calib.kernel_s()
            for kind, raw in pending.items():
                durations[kind].extend(calib.scale(d, before, after, calib.REF_KERNEL_S) for d in raw)
                raw.clear()

        errors: list[str] = []
        store, model = self.store, self.model
        deadline = time.perf_counter() + seconds
        next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        while self.offset < len(self.ops):
            now = time.perf_counter()
            if now >= next_calibration:
                recalibrate()
                next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
            if now >= deadline and all(len(durations[k]) + len(pending[k]) >= n for k, n in need.items()):
                break
            kind, query, target, delta_s, extra = self.ops[self.offset]
            self.offset += 1
            try:
                if kind == "put":
                    delta = float(delta_s)
                    incs = dict(zip(check.COHORTS, (float(v) for v in extra.split(","))))
                    k_cont = math.fsum(incs.values())
                    d = max(1, math.ceil(k_cont / delta))
                    result = ComparisonResult(query, target, delta, k_cont / delta, d, d * delta, k_cont, incs)
                    start = time.perf_counter()
                    store.put(result)
                    pending[kind].append(time.perf_counter() - start)
                    model[(query, target, delta)] = incs
                    continue
                if kind == "combine_all":
                    start = time.perf_counter()
                    got = store.combine(query, target)
                    pending[kind].append(time.perf_counter() - start)
                    (want_incs,) = [v for (q, t, _), v in model.items() if (q, t) == (query, target)]
                    want = math.fsum(want_incs.values())
                elif kind == "combine_subset":
                    delta = float(delta_s)
                    params = list(check.MALE if extra == "male" else check.FEMALE)
                    start = time.perf_counter()
                    got = store.combine(query, target, params, delta=delta)
                    pending[kind].append(time.perf_counter() - start)
                    want = math.fsum(model[(query, target, delta)][p] for p in params)
                else:
                    start = time.perf_counter()
                    got = store.deltas_for(query, target)
                    pending[kind].append(time.perf_counter() - start)
                    want = sorted(d for (q, t, d) in model if (q, t) == (query, target))
                if got != want:
                    errors.append(f"{kind} {query} {target}: got {got!r} want {want!r}")
            except Exception as exc:  # a failed store call counts against the run
                errors.append(f"{kind} {query} {target}: {type(exc).__name__}: {exc}")
        recalibrate()
        spans_out, self.recorder.spans[:] = list(self.recorder.spans), []
        return {
            "open_s": opens,
            "records_loaded": records_loaded,
            "bytes_appended": self.live.stat().st_size - size_before,
            "durations": durations,
            "attempted": sum(len(v) for v in durations.values()),
            "errors": errors,
            "spans": spans_out,
        }

    def verify(self) -> dict:
        """Reopen the live store: every record, hence every sum, must be as written."""
        got = self.open_store(self.live).as_mapping()
        want = {(q, t, d, p): v for (q, t, d), incs in self.model.items() for p, v in incs.items()}
        errors = [] if got == want else [f"reopened store holds {len(got)} records, want {len(want)} equal ones"]
        return {"attempted": 1, "errors": errors}


def serve_store(work: str, trace: bool) -> None:
    """Answer one JSON request per stdin line until stdin closes:
    ``"ready"`` once the store is loaded, ``{"seconds": S, "need": {...}}``
    with a slice, ``"verify"`` with a reopen check."""
    session = StoreSession(Path(work), trace)
    for line in sys.stdin:
        request = json.loads(line)
        if request == "ready":
            reply = {"attempted": 0, "errors": []}
        elif request == "verify":
            reply = session.verify()
        else:
            reply = session.run_slice(request["seconds"], request["need"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def run_probes(work: str, seed: int, out: str) -> None:
    from kdiss import (
        AveragingConfig,
        ObjectRecord,
        ProbeConfig,
        WeightedParameterSet,
        bipartition,
        blend_from_objects,
        closed_form_k,
        compare,
        grouped_with_target,
        switch_weight,
    )

    names, shares = check.read_table(Path(work) / "input.csv")
    rng = np.random.default_rng([seed, 7])
    n_pairs, n_self = 300, 30
    qi = rng.integers(len(names), size=n_pairs)
    ti = rng.integers(len(names), size=n_pairs)
    ti[:n_self] = qi[:n_self]  # self-pairs time the D = 1 path
    cfg = ProbeConfig(delta=check.DELTA)
    averaging = AveragingConfig(max_iterations=500)
    timings: dict[str, list[float]] = {}
    sweeps: list[int] = []
    errors: list[str] = []

    def timed(key, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        timings.setdefault(key, []).append(time.perf_counter() - start)
        return value

    for i, (q, t) in enumerate(zip(qi, ti)):
        ref = check.reference(shares[q], shares[t])
        # below w* the clones still group together, as in most of the search
        weight = max(0.9 * float(ref["w_star"][0]), 1.0)
        try:
            query = timed("from_values", ObjectRecord.from_values, names[q], check.COHORTS, shares[q])
            target = query if q == t else ObjectRecord.from_values(names[t], check.COHORTS, shares[t])
            k_closed = timed("closed_form", closed_form_k, query, target, cfg)
            w_star = timed("switch_weight", switch_weight, query, target, cfg)
            result = timed("compare_self" if q == t else "compare", compare, query, target, cfg)
            timed("predicate", grouped_with_target, query, target, cfg, weight)
            records = [
                query.with_param("_probe", 1.0, name="clone-a"),
                query.with_param("_probe", 1.0 + cfg.delta, name="clone-b"),
                target.with_param("_probe", 1.0, name="target"),
            ]
            pset = WeightedParameterSet(tuple((p, 1.0) for p in check.COHORTS) + (("_probe", weight),))
            matrix = timed("blend", blend_from_objects, records, pset)
            sweeps.append(timed("bipartition", bipartition, matrix, averaging).iterations_used)
        except Exception as exc:  # a failed engine call counts against the run
            errors.append(f"pair {i}: {type(exc).__name__}: {exc}")
            continue
        want = float(ref["k_cont"][0])
        for label, got in (("closed_form_k", k_closed), ("switch_weight", w_star * cfg.delta), ("compare", result.k_cont)):
            if not check.close(got, want):
                errors.append(f"pair {i} {label}: {got!r} want {want!r}")
    _dump(
        out,
        {
            "timings": timings,
            "sweeps": sweeps,
            "attempted": n_pairs,
            "errors": errors,
        },
    )


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        split = argv.index("--")
        run_cli(argv[1], "--trace" in argv[2:split], argv[split + 1 :])
    elif mode == "store":
        serve_store(argv[1], "--trace" in argv[2:])
    elif mode == "probes":
        run_probes(argv[1], int(argv[2]), argv[3])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
