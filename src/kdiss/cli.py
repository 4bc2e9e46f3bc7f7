"""Command-line frontend: ingest -> compare/batch -> indexes -> report.

All subcommands are deterministic for fixed inputs and flags; there is no
randomness anywhere.  ``--parallel N`` is accepted for compatibility and
changes nothing: every command runs single-process, one closed-form pass
per query in plain Python.  Exit status is 0 when no
row-level problem occurred (or with ``--lenient``), 1 on data errors, 2 on
usage errors and on a path that cannot be read or written.  Every output is
UTF-8 whatever the locale: stdout gets the bytes ``--out`` would write.

A ``kdiss`` or ``python -m kdiss.cli`` process runs ``run()``: main(), then
gc.freeze() and sys.exit with main()'s status, so the interpreter's shutdown
collections, which cost a short command more than reading its table, skip
every object the process holds.  A caller of main() gets the status back and
keeps the normal teardown.

Each command (``store put`` and ``store combine`` are two) is one parser
declaration: its handler, the options it reads and the modules it loads.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from . import _HOMES, _load
from .errors import KdissError
from .formats import FEMALE_COHORTS, MALE_COHORTS, _csv_text, _write_stderr, _write_text
from .formats import read_index_csv, write_index_csv

if TYPE_CHECKING:
    from .kernel import ComparisonResult
    from .pyramids import PyramidTable

# The names the commands look up on this module: the _HOMES entry of each module a command
# can declare and the private names they call, bound on first lookup or by main for the modules
# its command declares.  A name set beforehand (a test's spy, a tracer's wrapper) is kept.
_PRIVATE = {
    "kernel": ("_closed_form", "_counts"),
    "indexes": ("_model_distances",),
    "pyramids": (),
    "report": (),
    "store": ("_append", "_checked"),
}
_LAZY = {name: module for module, private in _PRIVATE.items() for name in (*_HOMES[module], *private)}
_ENGINE = ("kernel", "pyramids")


def __getattr__(name: str):
    return _load(globals(), _LAZY, name)


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
    k_cont, _, d_sums, _ = _closed_form(query.param_values, table.columns(), delta)
    d = _counts(d_sums, delta)
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


def cmd_store_put(args) -> int:
    """Append the pair's increments to the store (creating it), checking only its last line."""
    result = _compare_pair(args)
    _warnings_to_stderr(lambda: _append(Path(args.store), *_checked(result)))
    _write_text(f"stored {len(result.increments)} increments for ({result.query}, {result.target})\n")
    return 0


def cmd_store_combine(args) -> int:
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

    # each command: its handler, the options it reads, and the modules of _LAZY main binds for it
    p = sub.add_parser("ingest", help="validate and normalize a pyramid CSV")
    p.add_argument("data")
    p.add_argument("--from-long", action="store_true", help="input is long format name,sex,cohort,value")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest, modules=("pyramids",))

    p = sub.add_parser("compare", help="compare one query pyramid to one target")
    add_common(p, out_help="also write the increments CSV here; the summary stays on stdout")
    p.add_argument("query")
    p.add_argument("target")
    p.add_argument("--increments", action="store_true", help="print the per-cohort K increments")
    p.set_defaults(func=cmd_compare, modules=_ENGINE)

    p = sub.add_parser("batch", help="compare one query (or model) to every pyramid")
    add_common(p, parallel=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query pyramid name")
    group.add_argument("--model", help="model query: uniform or exp:RATE")
    p.set_defaults(func=cmd_batch, modules=_ENGINE)

    p = sub.add_parser("mu", help="full index table against two polar queries")
    add_common(p, parallel=True)
    p.add_argument("query_a", help="pole scored 100 (k_mt role)")
    p.add_argument("query_b", help="pole scored 0 (k_ut role)")
    p.set_defaults(func=cmd_mu, modules=(*_ENGINE, "indexes"))

    p = sub.add_parser("model", help="print a model pyramid")
    p.add_argument("model", metavar="SPEC", help="uniform or exp:RATE, as batch --model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_model, modules=("pyramids",))

    p = sub.add_parser("punif", help="uniform-component share per pyramid")
    add_common(p, parallel=True)
    p.set_defaults(func=cmd_punif, modules=(*_ENGINE, "indexes"))

    store = sub.add_parser("store", help="persist or recombine per-parameter increments")
    actions = store.add_subparsers(dest="action", required=True)
    put = actions.add_parser("put", help="compare a pair and append its increments to the store")
    combine = actions.add_parser("combine", help="sum a pair's stored increments")
    for p in (put, combine):
        p.add_argument("--store", required=True, help="line-delimited store file")
        p.add_argument("--query", required=True)
        p.add_argument("--target", required=True)
    put.add_argument("--data", help="pyramid CSV holding both rows")
    put.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="probe delta (default 1e-4)")
    put.add_argument("--lenient", action="store_true", help="skip bad rows instead of failing")
    put.set_defaults(func=cmd_store_put, modules=("store", *_ENGINE))
    combine.add_argument("--params", default="all", help="all, male, female, or comma-separated cohort names")
    combine.add_argument("--delta", type=float, default=None, help="the records' delta (default: the only one stored)")
    combine.set_defaults(func=cmd_store_combine, modules=("store",))

    p = sub.add_parser("report", help="scatter data / SVG from index rows and indicators")
    p.add_argument("--indexes", required=True, help="index CSV from the mu subcommand")
    p.add_argument("--indicators", help="indicator CSV (name,indicator,value)")
    p.add_argument("--x", required=True, help="index column, indicator name, or ppb")
    p.add_argument("--y", required=True)
    p.add_argument("--logx", action="store_true", help="log10-transform x")
    p.add_argument("--logy", action="store_true", help="log10-transform y")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report, modules=("report",))

    return parser


def _validate(args) -> str:
    """The usage error in option values argparse accepts but no command can run with, or ""."""
    for dest in ("data", "out", "store", "indexes", "indicators"):
        # an empty path is no path: Path("") is ".", and `if args.out` would drop it as unset
        if getattr(args, dest, None) == "":
            option = dest if dest == "data" and args.command != "store" else f"--{dest}"
            return f"{option} '' names no path"
    delta = getattr(args, "delta", None)
    if delta is not None and not (0.0 < delta <= 1.0):
        return f"--delta must lie in (0, 1], got {delta!r}"
    parallel = getattr(args, "parallel", 1)
    if parallel < 1:
        return f"--parallel must be >= 1, got {parallel!r}"
    model = getattr(args, "model", None)
    if model is not None:  # batch --model and model SPEC, decided once as the rate of the model built:
        # exponential_model(0.0) is the uniform model bit for bit, and "" fails as any other spec
        rate_text = "0" if model == "uniform" else model[4:] if model.startswith("exp:") else ""
        try:
            args.rate = float(rate_text)
        except ValueError:
            return f"bad model spec {model!r}: use 'uniform' or 'exp:RATE'"
        if not 0.0 <= args.rate < 1.0:
            return f"rate must lie in [0, 1), got {args.rate!r}"
    if getattr(args, "from_long", False) and args.lenient:
        return "--lenient does not apply to --from-long input"
    store_action = getattr(args, "action", "")
    if store_action == "combine":
        names = [p.strip() for p in args.params.split(",") if p.strip()]
        if not names:
            return f"--params {args.params!r} names no parameter"
        named = {"all": None, "male": list(MALE_COHORTS), "female": list(FEMALE_COHORTS)}
        args.params = named.get(",".join(names), names)  # the subset combine sums; None is every parameter
    if store_action == "put" and not args.data:
        return "store put requires --data"
    return ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem:
        _write_stderr([f"error: {problem}"])
        return 2
    try:
        _bind(*args.modules)
        return args.func(args)
    except OSError as exc:
        # one form for every path given on the command line: the path, then why it failed
        reason = exc.strerror or str(exc)
        _write_stderr([f"error: {exc.filename}: {reason[:1].lower()}{reason[1:]}" if exc.filename else f"error: {exc}"])
        return 2
    except (KdissError, ValueError) as exc:
        _write_stderr([f"error: {exc}"])
        return 1


def run() -> None:
    """The process entry: main(), then exit with its status, the heap frozen.

    sys.exit still flushes stdout and stderr and runs atexit handlers; only
    the shutdown collections skip the frozen objects.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
