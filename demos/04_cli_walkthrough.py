#!/usr/bin/env python3
"""Drives every CLI subcommand against generated demo data.

Writes a synthetic pyramid CSV and an indicator CSV into demos/data/, then
runs: ingest, model, compare, batch, mu, punif, store put/combine, report.
Everything is deterministic; rerunning produces byte-identical artifacts.
"""

import subprocess
import sys
from pathlib import Path

from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model, write_pyramid_csv

BASE = Path(__file__).parent
DATA = BASE / "data"
OUT = BASE / "output"
DATA.mkdir(exist_ok=True)
OUT.mkdir(exist_ok=True)

# deterministic synthetic world
uniform = uniform_model().values()
rows = {}
for i in range(8):
    lam = i / 7
    expo = exponential_model(0.15 + 0.15 * (i % 3) / 2).values()
    rows[f"country{i:02d}"] = normalize(lam * uniform + (1 - lam) * expo)
pyramids_csv = DATA / "demo_pyramids.csv"
write_pyramid_csv(PyramidTable.from_rows(rows), pyramids_csv)

indicators_csv = DATA / "demo_indicators.csv"
lines = ["name,indicator,value"]
for i in range(8):
    lines.append(f"country{i:02d},birth_rate,{12 + 4 * (7 - i)}")
    lines.append(f"country{i:02d},gdp,{5 + 6 * i}")
indicators_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
print(f"wrote {pyramids_csv} and {indicators_csv}\n")


def cli(*args, out=None):
    cmd = [sys.executable, "-m", "kdiss.cli", *map(str, args)]
    if out:
        cmd += ["--out", str(out)]
    print(f"$ kdiss {' '.join(map(str, args))}" + (f" --out {out.name}" if out else ""))
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.stdout:
        body = result.stdout.splitlines()
        shown = body[:6] + ([f"... ({len(body) - 6} more lines)"] if len(body) > 6 else [])
        print("\n".join("  " + line for line in shown))
    if result.returncode != 0:
        print("  stderr:", result.stderr.strip())
    print()
    return result


# the increment store is append-only; start it fresh so reruns match
(OUT / "increments.tsv").unlink(missing_ok=True)

cli("ingest", pyramids_csv, out=OUT / "normalized.csv")
cli("model", "--kind", "exp", "--rate", "0.30")
cli("compare", pyramids_csv, "country00", "country07", "--delta", "0.001", "--increments")
cli("batch", pyramids_csv, "--model", "exp:0.30", "--delta", "0.001", out=OUT / "batch.csv")
cli("mu", pyramids_csv, "country07", "country00", "--delta", "0.001", out=OUT / "index.csv")
cli("punif", pyramids_csv, "--delta", "0.001", out=OUT / "punif.csv")
cli(
    "store", "put", "--store", OUT / "increments.tsv", "--data", pyramids_csv,
    "--query", "country00", "--target", "country07", "--delta", "0.001",
)
cli(
    "store", "combine", "--store", OUT / "increments.tsv",
    "--query", "country00", "--target", "country07", "--params", "female",
)
cli(
    "report", "--indexes", OUT / "index.csv", "--indicators", indicators_csv,
    "--x", "mu", "--y", "ppb", out=OUT / "mu_vs_ppb.csv",
)
cli(
    "report", "--indexes", OUT / "index.csv", "--indicators", indicators_csv,
    "--x", "mu", "--y", "gdp", "--format", "svg", out=OUT / "mu_vs_gdp.svg",
)
print(f"artifacts in {OUT}")
