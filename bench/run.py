"""The kdiss benchmark: seeded workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload paper-220 --seed 1 --seconds 55 --trace 0

Inputs and outputs live under ``.bench_work/`` at the checkout root and
are removed afterwards.  A workload is one researcher session on a
generated pyramid table, run in rounds until ``--seconds`` are spent.
Each round is:

* two fresh interpreters that only import ``kdiss.cli`` (set-up time);
* one CLI pass: ``ingest``, ``mu``, ``batch --model`` (and ``batch
  --query`` on paper-220), ``punif`` and ``report`` (CSV, then SVG), each
  as its own ``python -m kdiss.cli`` process, every output row checked
  against the numpy reference in ``check.py``;
* one slice of the increment-store operation stream, in a child process
  that uses ``IncrementStore`` as a library, for a fifth of the round.

Spreading every kind of sample over the whole run keeps slow drifts in
machine speed from landing on one metric.  With ``--trace 0`` every timed
sample is also bracketed by calibrations (``calib.py``) and reported in
reference seconds, and the last stdout line holds the end-to-end metrics
(medians over the rounds); the raw medians go to stderr.  With
``--trace 1`` each round instead runs every command in-process in a fresh
child, once plain and once under span wrappers, then a traced store slice;
the engine probes follow, and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
STORE_SHARE = 0.2
# Fewest samples per store operation kind in one run: p90 of the default
# combine needs 10 samples beyond it.
STORE_NEED = {"put": 20, "combine_all": 100, "combine_subset": 20, "deltas_for": 20}
COMMAND_TIMEOUT_S = 150.0
ENGINE_GROUPS = ("mu", "batch", "punif")


def _env() -> dict[str, str]:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    The peak RSS comes from the child's own rusage, which covers the
    descendants it waited for, such as pool workers.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _child(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), mode, *args]


def commands(work: Path, plan: dict, parallel: int) -> list[tuple[str, list[str], object]]:
    """One CLI pass: (metric group, kdiss arguments, output check) in order."""
    pyr, index = str(work / "pyramids.csv"), str(work / "index.csv")
    report = ["report", "--indexes", index, "--indicators", str(work / "indicators.csv"), "--x", "mu"]
    out = {name: str(work / name) for name in ("batch_model.csv", "batch_query.csv", "punif.csv", "scatter.csv", "scatter.svg")}
    steps = [
        ("ingest", ["ingest", str(work / "input.csv"), "--out", pyr], lambda c: c.check_ingest(pyr)),
        (
            "mu",
            ["mu", pyr, *plan["poles"], "--out", index] + (["--parallel", str(parallel)] if parallel > 1 else []),
            lambda c: c.check_index(index),
        ),
        (
            "batch",
            ["batch", pyr, "--model", f"exp:{plan['model_rate']:.2f}", "--out", out["batch_model.csv"]],
            lambda c: c.check_batch(out["batch_model.csv"], "model"),
        ),
    ]
    if plan["query_batch"]:
        steps.append(
            (
                "batch",
                ["batch", pyr, "--query", plan["batch_query"], "--out", out["batch_query.csv"]],
                lambda c: c.check_batch(out["batch_query.csv"], "query"),
            )
        )
    return steps + [
        ("punif", ["punif", pyr, "--out", out["punif.csv"]], lambda c: c.check_punif(out["punif.csv"])),
        (
            "report",
            report + ["--y", "ppb", "--out", out["scatter.csv"]],
            lambda c: c.check_report_csv(out["scatter.csv"], index, "ppb"),
        ),
        (
            "report",
            report + ["--y", "gdp", "--logy", "--format", "svg", "--out", out["scatter.svg"]],
            lambda c: c.check_report_svg(out["scatter.svg"], index, "gdp"),
        ),
    ]


def _merge(summaries: list[dict]) -> dict[str, dict]:
    """Sum per-name span summaries of several processes."""
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            for key in ("calls", "total_s", "self_s"):
                into[key] += entry[key]
            into["durations"].extend(entry["durations"])
    return merged


class Session:
    """Inputs, failure counts and store state of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.seconds = seconds
        self.seed = seed
        self.work = work
        self.plan = gen.generate(workload, seed, self.work)
        shutil.copyfile(self.work / "store.tsv", self.work / "store-live.tsv")
        self.rows = self.plan["rows"]
        self.parallel = self.plan["parallel"] or min(len(os.sched_getaffinity(0)), 4)
        self.checker = check.Checker(self.work / "input.csv", self.work / "indicators.csv", self.plan)
        self.log = self.work / "stderr.log"
        self.attempted = 0
        self.errors: list[str] = []
        self.store: subprocess.Popen | None = None
        self.store_slices: list[dict] = []

    def record(self, what: str, exit_code: int, errors: list[str]) -> None:
        """Count one operation; it failed on a non-zero exit or a wrong output."""
        self.attempted += 1
        if exit_code != 0:
            errors = [f"exit {exit_code}", *errors]
        if errors:
            self.errors.append(f"{what}: {'; '.join(errors[:3])}")

    def child_json(self, what: str, argv: list[str], out: Path) -> dict:
        """Run a benchmark child and take over its operation counts."""
        code = spawn(argv, self.log)[1]
        if code != 0:
            self.record(what, code, [])
            return {}
        payload = json.loads(out.read_text(encoding="utf-8"))
        self.attempted += payload["attempted"]
        self.errors.extend(f"{what}: {e}" for e in payload["errors"])
        return payload

    def _ask_store(self, request) -> dict:
        """One request to the store child; a dead or silent child is a failure."""
        timer = threading.Timer(COMMAND_TIMEOUT_S, self.store.kill)
        timer.start()
        try:
            self.store.stdin.write(json.dumps(request) + "\n")
            self.store.stdin.flush()
            line = self.store.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            timer.cancel()
        if not line:
            self.record("store", self.store.poll() or -1, ["store child stopped"])
            return {}
        payload = json.loads(line)
        self.attempted += payload["attempted"]
        self.errors.extend(f"store: {e}" for e in payload["errors"])
        return payload

    def start_store(self, trace: bool) -> None:
        """Start the store child and wait until it has loaded the store."""
        argv = _child("store", str(self.work), *(["--trace"] if trace else []))
        with open(self.log, "ab") as err:
            self.store = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=_env(), text=True
            )
        self._ask_store("ready")

    def store_slice(self, seconds: float, need: dict[str, int]) -> None:
        payload = self._ask_store({"seconds": seconds, "need": need})
        if payload:
            self.store_slices.append(payload)

    def store_durations(self) -> dict[str, list[float]]:
        return {k: [d for sl in self.store_slices for d in sl["durations"][k]] for k in STORE_NEED}

    def finish_store(self) -> None:
        """Top up samples the rounds left short, then reopen and verify."""
        have = self.store_durations()
        short = {k: n - len(have[k]) for k, n in STORE_NEED.items() if len(have[k]) < n}
        if short:
            self.store_slice(0.0, short)
        self._ask_store("verify")
        self.stop_store()

    def stop_store(self) -> None:
        if self.store is not None:
            try:
                self.store.stdin.close()
            except BrokenPipeError:
                pass  # the child is gone already; wait() reaps it
            try:
                self.store.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.store.kill()
                self.store.wait()
            self.store.stdout.close()
            self.store = None

    def rounds(self, run_round) -> int:
        """Repeat ``run_round`` until the measured time is spent (at least once)."""
        deadline = time.perf_counter() + self.seconds
        count = 0
        while True:
            start = time.perf_counter()
            run_round()
            count += 1
            now = time.perf_counter()
            if now + 0.5 * (now - start) > deadline:
                return count

    def check_pass(self, cmds, codes: list[int], label: str = "") -> None:
        for (group, _, check_fn), code in zip(cmds, codes):
            try:
                errors = check_fn(self.checker)
            except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
                errors = [f"unreadable output ({type(exc).__name__}: {exc})"]
            self.record(group + label, code, errors)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _store_share(cli_seconds: float) -> float:
    return STORE_SHARE / (1.0 - STORE_SHARE) * cli_seconds


def run_plain(s: Session) -> dict:
    importer = [sys.executable, "-c", "import kdiss.cli"]
    calibrator = [sys.executable, str(BENCH / "calib.py")]
    spawn(importer, s.log)  # the first launch writes the bytecode cache; users pay that once
    s.start_store(trace=False)
    cmds = commands(s.work, s.plan, s.parallel)
    launches: list[float] = []
    walls: dict[str, list[float]] = {group: [] for group, _, _ in cmds}
    engine_walls: list[float] = []  # per round, summed over mu, batch and punif
    rss: list[float] = []
    cal_walls: list[float] = []
    raw_walls: dict[str, list[float]] = {group: [] for group in walls}

    def calibrate() -> float:
        cal_walls.append(spawn(calibrator, s.log)[0])
        return cal_walls[-1]

    def run_round():
        # every sample is scaled by the calibration processes just before and after it
        before = calibrate()
        pair = [spawn(importer, s.log)[0] for _ in range(2)]
        after = calibrate()
        launches.extend(calib.scale(w, before, after, calib.REF_PROCESS_S) for w in pair)
        start = time.perf_counter()
        codes = []
        engine = 0.0
        for group, argv, _ in cmds:
            before = after
            seconds, code, peak = spawn([sys.executable, "-m", "kdiss.cli", *argv], s.log)
            after = calibrate()
            raw_walls[group].append(seconds)
            seconds = calib.scale(seconds, before, after, calib.REF_PROCESS_S)
            walls[group].append(seconds)
            engine += seconds if group in ENGINE_GROUPS else 0.0
            codes.append(code)
            rss.append(peak)
        engine_walls.append(engine)
        s.store_slice(_store_share(time.perf_counter() - start), {})
        s.check_pass(cmds, codes)

    s.rounds(run_round)
    s.finish_store()
    engine_rows = s.rows * sum(group in ENGINE_GROUPS for group, _, _ in cmds)
    durations = s.store_durations()
    opens = [o for sl in s.store_slices for o in sl["open_s"]]
    metrics = {
        "setup_s": (statistics.median(launches) + statistics.median(opens), "s"),
        **{f"{group}_s": (statistics.median(w), "s") for group, w in walls.items()},
        "rows_per_s": (statistics.median(engine_rows / w for w in engine_walls), "rows/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "store_ops_per_s": (sum(map(len, durations.values())) / sum(map(sum, durations.values())), "ops/s"),
        "put_us_p50": (1e6 * spans.percentile(durations["put"], 50), "us"),
        "combine_all_us_p50": (1e6 * spans.percentile(durations["combine_all"], 50), "us"),
        "combine_all_us_p90": (1e6 * spans.percentile(durations["combine_all"], 90), "us"),
        "combine_subset_us_p50": (1e6 * spans.percentile(durations["combine_subset"], 50), "us"),
    }
    raw = " ".join(f"{group}={statistics.median(w):.4f}" for group, w in raw_walls.items())
    print(f"calibration process median {statistics.median(cal_walls):.4f} s; raw medians (s): {raw}", file=sys.stderr)
    return s.result(metrics)


def run_traced(s: Session) -> dict:
    cmds = commands(s.work, s.plan, parallel=1)
    import_s: list[float] = []
    wall = {False: 0.0, True: 0.0}
    summaries: list[dict] = []

    def run_pass(trace: bool):
        codes = []
        for i, (_, argv, _) in enumerate(cmds):
            out = s.work / f"cli-{i}.json"
            code = spawn(_child("cli", str(out), *(["--trace"] if trace else []), "--", *argv), s.log)[1]
            if code == 0:
                payload = json.loads(out.read_text(encoding="utf-8"))
                code = payload["exit"]
                import_s.append(payload["import_s"])
                wall[trace] += payload["wall_s"]
                if trace:
                    summaries.append(spans.by_name(payload["spans"]))
            codes.append(code)
        s.check_pass(cmds, codes, " (in-process)")

    s.start_store(trace=True)

    def run_round():
        start = time.perf_counter()
        run_pass(trace=False)
        run_pass(trace=True)
        s.store_slice(_store_share(time.perf_counter() - start), {})

    n = s.rounds(run_round)
    s.finish_store()
    probe_out = s.work / "probes.json"
    probes = s.child_json("probe", _child("probes", str(s.work), str(s.seed), str(probe_out)), probe_out)

    layer = _merge(summaries)
    store = _merge([spans.by_name(sl["spans"]) for sl in s.store_slices])

    def per_round(name: str, key: str) -> float:
        return layer.get(name, {}).get(key, 0.0) / n

    def p50_us(durations: list[float]) -> float:
        return 1e6 * spans.percentile(durations, 50) if durations else 0.0

    def span_durations(summary: dict, name: str) -> list[float]:
        return summary.get(name, {}).get("durations", [])

    metrics: dict[str, tuple[float, str]] = {"cli.import_s": (statistics.median(import_s), "s")}
    for cmd in ("mu", "batch", "punif", "ingest", "report"):
        metrics[f"cli.{cmd}.self_s"] = (per_round(f"cli.{cmd}", "self_s"), "s")
    metrics["pyramids.ingest_calls"] = (per_round("pyramids.ingest", "calls"), "count")
    metrics["pyramids.ingest_s"] = (per_round("pyramids.ingest", "total_s"), "s")
    for name, calls in (
        ("pyramids.normalize", "calls"),
        ("pyramids.record", "calls"),
        ("pyramids.model", "builds"),
        ("dissimilarity.compare", "calls"),
        ("indexes.index_row", "calls"),
    ):
        metrics[f"{name}_{calls}"] = (per_round(name, "calls"), "count")
        metrics[f"{name}_us_p50"] = (p50_us(span_durations(layer, name)), "us")
    compare = span_durations(layer, "dissimilarity.compare")
    metrics["dissimilarity.compare_us_p99"] = (1e6 * spans.percentile(compare, 99) if compare else 0.0, "us")
    metrics["dissimilarity.compare_self_s"] = (per_round("dissimilarity.compare", "self_s"), "s")
    for name in (
        "pyramids.write_csv",
        "indexes.build_rows",
        "indexes.write_csv",
        "indexes.read_csv",
        "report.read_indicators",
        "report.join",
        "report.fit",
        "report.emit_csv",
        "report.emit_svg",
    ):
        metrics[f"{name}_s"] = (per_round(name, "total_s"), "s")
    metrics["store.open_s"] = (statistics.median(o for sl in s.store_slices for o in sl["open_s"]), "s")
    metrics["store.records_loaded"] = (s.store_slices[0]["records_loaded"], "count")
    metrics["store.bytes_appended"] = (sum(sl["bytes_appended"] for sl in s.store_slices), "bytes")
    metrics["store.deltas_for_calls"] = (len(span_durations(store, "store.deltas_for")), "count")
    metrics["store.deltas_for_us_p50"] = (p50_us(span_durations(store, "store.deltas_for")), "us")
    timings = probes["timings"]
    for name, key in (
        ("similarity.from_values_us_p50", "from_values"),
        ("similarity.blend_us_p50", "blend"),
        ("averaging.bipartition_us_p50", "bipartition"),
        ("dissimilarity.switch_weight_us_p50", "switch_weight"),
        ("dissimilarity.closed_form_us_p50", "closed_form"),
        ("dissimilarity.predicate_us_p50", "predicate"),
        ("dissimilarity.compare_probe_us_p50", "compare"),
        ("dissimilarity.compare_d1_us_p50", "compare_self"),
    ):
        metrics[name] = (p50_us(timings[key]), "us")
    metrics["averaging.sweeps_p50"] = (statistics.median(probes["sweeps"]), "count")
    metrics["bench.trace_overhead_ratio"] = (wall[True] / wall[False], "ratio")
    return s.result(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description="kdiss benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kdiss" / "cli.py").is_file():
        print(f"error: no kdiss sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    session = None
    try:
        session = Session(args.workload, args.seed, args.seconds, work)
        result = run_traced(session) if args.trace else run_plain(session)
    finally:
        if session is not None:
            session.stop_store()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for message in session.errors[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
