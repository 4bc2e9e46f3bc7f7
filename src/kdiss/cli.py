"""Command-line frontend: ingest -> compare/batch -> indexes -> report.

All subcommands are deterministic for fixed inputs and flags; there is no
randomness anywhere.  ``--parallel N`` is accepted for compatibility and
changes nothing: every command runs single-process, one closed-form array
pass per query.  Exit status is 0 when no row-level problem occurred (or with
``--lenient``), 1 on data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dissimilarity import IncrementStore, ProbeConfig, _closed_form, compare
from .errors import KdissError
from .indexes import build_index_rows, p_uniform, read_index_csv, write_index_csv
from .pyramids import (
    FEMALE_COHORTS,
    MALE_COHORTS,
    PyramidTable,
    cohort_totals,
    exponential_model,
    ingest,
    long_to_wide,
    uniform_model,
    write_pyramid_csv,
)
from .report import emit, fit_series, join, read_indicators
from .similarity import ObjectRecord

DATA_DIR_ENV = "KDISS_DATA_DIR"


def _resolve_path(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = Path(data_dir) / path
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no such file: {path}" + (f" (also tried ${DATA_DIR_ENV})" if data_dir else ""))


def _write_out(text_or_bytes, out: str | None) -> None:
    if isinstance(text_or_bytes, bytes):
        if out:
            Path(out).write_bytes(text_or_bytes)
        else:
            sys.stdout.buffer.write(text_or_bytes)
    else:
        if out:
            Path(out).write_text(text_or_bytes, encoding="utf-8")
        else:
            sys.stdout.write(text_or_bytes)


def _load_table(path: str, lenient: bool) -> PyramidTable:
    return ingest(_resolve_path(path), lenient=lenient)


def _record(table: PyramidTable, name: str) -> ObjectRecord:
    if name not in table:
        raise KdissError(f"name not found: {name!r}")
    return table.record(name)


def _pick_query(args, table: PyramidTable) -> np.ndarray:
    """Query values from a table name or a model spec (uniform / exp:RATE)."""
    if getattr(args, "model", None):
        spec = args.model
        if spec == "uniform":
            return uniform_model().values()
        if spec.startswith("exp:"):
            return exponential_model(float(spec[4:])).values()
        raise KdissError(f"bad model spec {spec!r}: use 'uniform' or 'exp:RATE'")
    return _record(table, args.query).values()


def cmd_ingest(args) -> int:
    table = (long_to_wide if args.from_long else ingest)(
        _resolve_path(args.data), **({} if args.from_long else {"lenient": args.lenient})
    )
    buffer = io.StringIO()
    write_pyramid_csv(table, buffer)
    _write_out(buffer.getvalue(), args.out)
    for message in table.row_errors:
        print(f"warning: skipped {message}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    table = _load_table(args.data, args.lenient)
    query = _record(table, args.query)
    result = compare(query, _record(table, args.target), ProbeConfig(delta=args.delta))
    print(f"query   = {result.query}")
    print(f"target  = {result.target}")
    print(f"delta   = {result.delta:g}")
    print(f"w*      = {result.w_star:.6f}")
    print(f"D       = {result.d}")
    print(f"K       = {result.k:.6f}")
    print(f"K_cont  = {result.k_cont:.6f}")
    if args.increments:
        print("increments:")
        for param, inc in result.increments.items():
            print(f"  {param}  {inc:.6f}")
        print(f"  sum  {math.fsum(result.increments.values()):.6f}")
    if args.out:
        buffer = io.StringIO()
        buffer.write(
            f"# query={result.query} target={result.target} delta={result.delta!r} "
            f"w_star={result.w_star!r} d={result.d} k={result.k!r} k_cont={result.k_cont!r}\n"
        )
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["param", "increment"])
        for param, inc in result.increments.items():
            writer.writerow([param, repr(inc)])
        Path(args.out).write_text(buffer.getvalue(), encoding="utf-8")
    return 0


def cmd_batch(args) -> int:
    table = _load_table(args.data, args.lenient)
    closed = _closed_form(_pick_query(args, table), table.array(), args.delta)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "d", "k", "k_cont"])
    for name, d, k_cont in zip(table.names(), closed.d.tolist(), closed.k_cont.tolist()):
        writer.writerow([name, int(d), f"{d * args.delta:.6f}", f"{k_cont:.6f}"])
    _write_out(buffer.getvalue(), args.out)
    return 0


def cmd_mu(args) -> int:
    table = _load_table(args.data, args.lenient)
    query_a = _record(table, args.query_a)
    query_b = _record(table, args.query_b)
    cfg = ProbeConfig(delta=args.delta)
    rows, problems = build_index_rows(table, query_a, query_b, cfg, args.rate, args.variant)
    buffer = io.StringIO()
    write_index_csv(rows, buffer)
    _write_out(buffer.getvalue(), args.out)
    for message in problems:
        print(f"warning: {message}", file=sys.stderr)
    return 0 if (args.lenient or not problems) else 1


def cmd_model(args) -> int:
    record = uniform_model() if args.kind == "uniform" else exponential_model(args.rate)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["age", "male", "female", "combined"])
    for age_label, combined in cohort_totals(record):
        male = record.value_of(f"m{age_label}")
        female = record.value_of(f"f{age_label}")
        writer.writerow([age_label, f"{male:.6f}", f"{female:.6f}", f"{combined:.6f}"])
    _write_out(buffer.getvalue(), args.out)
    return 0


def cmd_punif(args) -> int:
    table = _load_table(args.data, args.lenient)
    targets = table.array()
    d_uns = _closed_form(uniform_model().values(), targets, args.delta).k_cont.tolist()
    d_es = _closed_form(exponential_model(args.rate).values(), targets, args.delta).k_cont.tolist()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "d_un", "d_e30", "p_un"])
    problems = []
    for name, d_un, d_e in zip(table.names(), d_uns, d_es):
        try:
            p_un_s = f"{p_uniform(d_un, d_e, args.variant):.6f}"
        except KdissError:
            p_un_s = "nan"
            problems.append(f"{name}: p_un undefined")
        writer.writerow([name, f"{d_un:.6f}", f"{d_e:.6f}", p_un_s])
    _write_out(buffer.getvalue(), args.out)
    for message in problems:
        print(f"warning: {message}", file=sys.stderr)
    return 0 if (args.lenient or not problems) else 1


def cmd_store(args) -> int:
    store = IncrementStore(args.store)
    if args.action == "put":
        table = _load_table(args.data, args.lenient)
        query = _record(table, args.query)
        result = compare(query, _record(table, args.target), ProbeConfig(delta=args.delta))
        store.put(result)
        print(f"stored {len(result.increments)} increments for ({result.query}, {result.target})")
        return 0
    # combine
    subset: list[str] | None
    if args.params == "all":
        subset = None
    elif args.params == "male":
        subset = list(MALE_COHORTS)
    elif args.params == "female":
        subset = list(FEMALE_COHORTS)
    else:
        subset = [p.strip() for p in args.params.split(",") if p.strip()]
    total = store.combine(args.query, args.target, subset, delta=args.delta)
    print(repr(total))
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
    if len(series.points) >= 3:
        try:
            series = fit_series(series)
        except KdissError:
            pass
    _write_out(emit(series, args.format), args.out)
    for message in unmatched:
        print(f"unmatched: {message}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdiss",
        description="Clone-probe dissimilarity coefficients for population pyramids.",
        epilog=f"Relative data paths also resolve against ${DATA_DIR_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, parallel=False):
        if data:
            p.add_argument("data", help="pyramid CSV (name,m00,...,m80,f00,...,f80)")
        p.add_argument("--delta", type=float, default=1e-4, help="probe delta (default 1e-4)")
        p.add_argument("--metric", choices=["R"], default="R", help="per-parameter metric (only R)")
        p.add_argument("--lenient", action="store_true", help="skip bad rows instead of failing")
        p.add_argument("--out", help="output path (default stdout)")
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
    add_common(p)
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
    p.add_argument("--rate", type=float, default=0.30, help="exponential model rate (default 0.30)")
    p.add_argument("--variant", choices=["normalized", "as_written"], default="normalized")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("model", help="print a model pyramid")
    p.add_argument("--kind", choices=["uniform", "exp"], required=True)
    p.add_argument("--rate", type=float, default=0.30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("punif", help="uniform-component share per pyramid")
    add_common(p, parallel=True)
    p.add_argument("--rate", type=float, default=0.30)
    p.add_argument("--variant", choices=["normalized", "as_written"], default="normalized")
    p.set_defaults(func=cmd_punif)

    p = sub.add_parser("store", help="persist or recombine per-parameter increments")
    p.add_argument("action", choices=["put", "combine"])
    p.add_argument("--store", required=True, help="line-delimited store file")
    p.add_argument("--data", help="pyramid CSV (needed for put)")
    p.add_argument("--query", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument(
        "--params",
        default="all",
        help="combine subset: all, male, female, or comma-separated cohort names",
    )
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


def _validate(args) -> None:
    delta = getattr(args, "delta", None)
    if delta is not None and not (0.0 < delta <= 1.0):
        raise KdissError(f"--delta must lie in (0, 1], got {delta!r}")
    parallel = getattr(args, "parallel", 1)
    if parallel < 1:
        raise KdissError(f"--parallel must be >= 1, got {parallel!r}")
    if getattr(args, "command", "") == "store" and args.action == "put":
        if not args.data:
            raise KdissError("store put requires --data")
        if args.delta is None:
            args.delta = 1e-4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (KdissError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1


if __name__ == "__main__":
    sys.exit(main())
