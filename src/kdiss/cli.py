"""Command-line frontend: ingest -> compare/batch -> indexes -> report.

All subcommands are deterministic for fixed inputs and flags; there is no
randomness anywhere.  ``--parallel N`` is accepted for compatibility and
changes nothing: every command runs single-process, one closed-form pass
per query in plain Python.  Exit status is 0 when no
row-level problem occurred (or with ``--lenient``), 1 on data errors, 2 on
usage errors and on a path that cannot be read or written.  Every output is
UTF-8 whatever the locale: stdout gets the bytes ``--out`` would write.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import KdissError
from .formats import FEMALE_COHORTS, MALE_COHORTS, _csv_text, _write_stderr, _write_text
from .formats import read_index_csv, write_index_csv

if TYPE_CHECKING:
    from .kernel import ComparisonResult
    from .pyramids import PyramidTable

# The names each command looks up on this module, by the module that defines
# them.  A name is bound on its first lookup; main binds only the modules its
# command runs, so `report` never imports the engine or the store, the engine
# commands never import the report or the store, only `mu` and `punif` import
# the indexes, and `--help` imports none of them.  A name set beforehand (a
# test's spy, a tracer's wrapper) is kept.
_LAZY = {
    "ProbeConfig": "kernel",
    "_closed_form": "kernel",
    "_counts": "kernel",
    "compare": "kernel",
    "_model_distances": "indexes",
    "build_index_rows": "indexes",
    "cohort_totals": "pyramids",
    "exponential_model": "pyramids",
    "ingest": "pyramids",
    "long_to_wide": "pyramids",
    "write_pyramid_csv": "pyramids",
    "emit": "report",
    "fit_series": "report",
    "join": "report",
    "read_indicators": "report",
    "IncrementStore": "store",
    "_append": "store",
    "_checked": "store",
}
_ENGINE = ("kernel", "pyramids")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .module import name`: unlike importlib.import_module, it shows in -X importtime
    value = globals()[name] = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
    return value


def _bind(*modules: str) -> None:
    """Bind every name of these modules not bound yet."""
    for name, module in _LAZY.items():
        if module in modules and name not in globals():
            __getattr__(name)


DATA_DIR_ENV = "KDISS_DATA_DIR"
DEFAULT_DELTA = 1e-4


def _resolve_path(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = Path(data_dir) / path
        if candidate.exists():
            return candidate
    reason = os.strerror(errno.ENOENT) + (f" (also tried ${DATA_DIR_ENV})" if data_dir else "")
    raise FileNotFoundError(errno.ENOENT, reason, path)


def _load_table(args) -> PyramidTable:
    """Every command's pyramid table: args.data, read wide (or long, for ingest --from-long);
    each row --lenient skips is one `warning: skipped row N: ...` line on stderr."""
    path = _resolve_path(args.data)
    table = long_to_wide(path) if getattr(args, "from_long", False) else ingest(path, lenient=args.lenient)
    _write_stderr(f"warning: skipped {message}" for message in table.row_errors)
    return table


def _compare_pair(args) -> ComparisonResult:
    table = _load_table(args)
    return compare(table.record(args.query), table.record(args.target), ProbeConfig(delta=args.delta))


def cmd_ingest(args) -> int:
    write_pyramid_csv(_load_table(args), args.out)
    return 0


def cmd_compare(args) -> int:
    result = _compare_pair(args)
    lines = [
        f"query   = {result.query}",
        f"target  = {result.target}",
        f"delta   = {result.delta:g}",
        f"w*      = {result.w_star:.6f}",
        f"D       = {result.d}",
        f"K       = {result.k:.6f}",
        f"K_cont  = {result.k_cont:.6f}",
    ]
    if args.increments:
        lines.append("increments:")
        lines.extend(f"  {param}  {inc:.6f}" for param, inc in result.increments.items())
        lines.append(f"  sum  {math.fsum(result.increments.values()):.6f}")
    if args.out:  # first, so that an unwritable --out leaves stdout empty
        head = (
            f"# query={result.query} target={result.target} delta={result.delta!r} "
            f"w_star={result.w_star!r} d={result.d} k={result.k!r} k_cont={result.k_cont!r}\n"
        )
        _write_text(head + _csv_text(["param", "increment"], result.increments.items(), "%r"), args.out)
    _write_text("".join(f"{line}\n" for line in lines))
    return 0


def cmd_batch(args) -> int:
    table = _load_table(args)
    query = table.record(args.query) if args.model is None else exponential_model(args.rate)
    delta = args.delta
    k_cont, _, sim_sum, sims = _closed_form(query.param_values, table.columns(), delta)
    d = _counts(len(sims), sim_sum, delta)
    rows = zip(table.names, d, [n * delta for n in d], k_cont)
    _write_text(_csv_text(["name", "d", "k", "k_cont"], rows, "%d,%.6f,%.6f"), args.out)
    return 0


def cmd_mu(args) -> int:
    table = _load_table(args)
    cfg = ProbeConfig(delta=args.delta)
    rows, problems = build_index_rows(table, table.record(args.query_a), table.record(args.query_b), cfg)
    write_index_csv(rows, args.out)
    _write_stderr(f"warning: {message}" for message in problems)
    return 0 if (args.lenient or not problems) else 1


def cmd_model(args) -> int:
    record = exponential_model(args.rate)
    rows = ((age, record.value_of(f"m{age}"), record.value_of(f"f{age}"), both) for age, both in cohort_totals(record))
    _write_text(_csv_text(["age", "male", "female", "combined"], rows, "%.6f,%.6f,%.6f"), args.out)
    return 0


def cmd_punif(args) -> int:
    table = _load_table(args)
    d_un, d_e, p_un, problems = _model_distances(table.names, table.columns(), args.delta)
    rows = zip(table.names, d_un, d_e, p_un)
    _write_text(_csv_text(["name", "d_un", "d_e30", "p_un"], rows, "%.6f,%.6f,%.6f"), args.out)
    _write_stderr(f"warning: {message}" for message in problems)
    return 0 if (args.lenient or not problems) else 1


def _warnings_to_stderr(action):
    """action(), each warning it raises (the store's torn final line) one `warning: ...` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = action()
    _write_stderr(f"warning: {w.message}" for w in caught)
    return value


def cmd_store(args) -> int:
    if args.action == "put":  # appends to the store (creating it), checking only its last line
        result = _compare_pair(args)
        _warnings_to_stderr(lambda: _append(Path(args.store), *_checked(result)))
        _write_text(f"stored {len(result.increments)} increments for ({result.query}, {result.target})\n")
        return 0
    if not os.path.exists(args.store):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.store)
    store = _warnings_to_stderr(lambda: IncrementStore(args.store))
    _write_text(f"{store.combine(args.query, args.target, args.params, delta=args.delta)!r}\n")
    return 0


def cmd_report(args) -> int:
    rows = read_index_csv(_resolve_path(args.indexes))
    indicators = read_indicators(_resolve_path(args.indicators)) if args.indicators else None
    series, unmatched = join(
        rows,
        indicators,
        args.x,
        args.y,
        x_transform="log10" if args.logx else None,
        y_transform="log10" if args.logy else None,
    )
    try:
        series = fit_series(series)
    except KdissError as exc:
        _write_stderr([f"warning: no fit ({exc})"])
    _write_text(emit(series, args.format).decode("utf-8"), args.out)
    _write_stderr(f"unmatched: {message}" for message in unmatched)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdiss",
        description="Clone-probe dissimilarity coefficients for population pyramids.",
        epilog=f"Relative data paths also resolve against ${DATA_DIR_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, parallel=False, out_help="output path (default stdout)"):
        p.add_argument("data", help="pyramid CSV (name,m00,...,m80,f00,...,f80)")
        p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="probe delta (default 1e-4)")
        p.add_argument("--lenient", action="store_true", help="skip bad rows instead of failing")
        p.add_argument("--out", help=out_help)
        if parallel:
            p.add_argument(
                "--parallel", type=int, default=1, help="accepted for compatibility; runs single-process"
            )

    p = sub.add_parser("ingest", help="validate and normalize a pyramid CSV")
    p.add_argument("data")
    p.add_argument("--from-long", action="store_true", help="input is long format name,sex,cohort,value")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("compare", help="compare one query pyramid to one target")
    add_common(p, out_help="also write the increments CSV here; the summary stays on stdout")
    p.add_argument("query")
    p.add_argument("target")
    p.add_argument("--increments", action="store_true", help="print the per-cohort K increments")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("batch", help="compare one query (or model) to every pyramid")
    add_common(p, parallel=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query pyramid name")
    group.add_argument("--model", help="model query: uniform or exp:RATE")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("mu", help="full index table against two polar queries")
    add_common(p, parallel=True)
    p.add_argument("query_a", help="pole scored 100 (k_mt role)")
    p.add_argument("query_b", help="pole scored 0 (k_ut role)")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("model", help="print a model pyramid")
    p.add_argument("--kind", choices=["uniform", "exp"], required=True)
    p.add_argument("--rate", type=float, default=0.30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("punif", help="uniform-component share per pyramid")
    add_common(p, parallel=True)
    p.set_defaults(func=cmd_punif)

    p = sub.add_parser("store", help="persist or recombine per-parameter increments")
    p.add_argument("action", choices=["put", "combine"])
    p.add_argument("--store", required=True, help="line-delimited store file")
    p.add_argument("--data", help="pyramid CSV (needed for put)")
    p.add_argument("--query", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--params", default="all", help="combine subset: all, male, female, or comma-separated cohort names")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("report", help="scatter data / SVG from index rows and indicators")
    p.add_argument("--indexes", required=True, help="index CSV from the mu subcommand")
    p.add_argument("--indicators", help="indicator CSV (name,indicator,value)")
    p.add_argument("--x", required=True, help="index column, indicator name, or ppb")
    p.add_argument("--y", required=True)
    p.add_argument("--logx", action="store_true", help="log10-transform x")
    p.add_argument("--logy", action="store_true", help="log10-transform y")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def _validate(args) -> str:
    """The usage error in option values argparse accepts but no command can run with, or ""."""
    delta = getattr(args, "delta", None)
    if delta is not None and not (0.0 < delta <= 1.0):
        return f"--delta must lie in (0, 1], got {delta!r}"
    parallel = getattr(args, "parallel", 1)
    if parallel < 1:
        return f"--parallel must be >= 1, got {parallel!r}"
    model = getattr(args, "model", None)
    if model is not None:  # batch --model, decided once as the rate cmd_batch builds its query with:
        # exponential_model(0.0) is the uniform model bit for bit, and "" fails as any other spec
        rate_text = "0" if model == "uniform" else model[4:] if model.startswith("exp:") else ""
        try:
            args.rate = float(rate_text)
        except ValueError:
            return f"bad model spec {model!r}: use 'uniform' or 'exp:RATE'"
    rate = getattr(args, "rate", 0.0)
    if not 0.0 <= rate < 1.0:
        return f"rate must lie in [0, 1), got {rate!r}"
    if getattr(args, "kind", None) == "uniform":  # model --kind uniform, built as batch --model uniform
        args.rate = 0.0
    if getattr(args, "from_long", False) and args.lenient:
        return "--lenient does not apply to --from-long input"
    store_action = getattr(args, "action", "")
    if store_action == "combine":
        names = [p.strip() for p in args.params.split(",") if p.strip()]
        if not names:
            return f"--params {args.params!r} names no parameter"
        named = {"all": None, "male": list(MALE_COHORTS), "female": list(FEMALE_COHORTS)}
        args.params = named.get(args.params, names)  # the subset cmd_store sums; None is every parameter
    if store_action == "put":
        if not args.data:
            return "store put requires --data"
        if args.delta is None:
            args.delta = DEFAULT_DELTA
    return ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(args)
    if problem:
        _write_stderr([f"error: {problem}"])
        return 2
    try:
        if args.command == "report":
            _bind("report")
        elif args.command == "store":
            _bind("store", *(_ENGINE if args.action == "put" else ()))
        else:
            _bind(*_ENGINE, *(("indexes",) if args.command in ("mu", "punif") else ()))
        return args.func(args)
    except OSError as exc:
        # one form for every path given on the command line: the path, then why it failed
        reason = exc.strerror or str(exc)
        _write_stderr([f"error: {exc.filename}: {reason[:1].lower()}{reason[1:]}" if exc.filename else f"error: {exc}"])
        return 2
    except (KdissError, ValueError) as exc:
        _write_stderr([f"error: {exc}"])
        return 1


if __name__ == "__main__":
    sys.exit(main())
