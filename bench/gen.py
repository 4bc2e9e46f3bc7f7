"""Seeded input generator for the kdiss benchmark.

    python3 bench/gen.py --workload paper-220 --seed 1 --out .bench_work/inputs

Writes, for one workload and seed, every input the benchmark hands to the
program: the pyramid CSV (raw head counts or shares), the indicator CSV,
the pre-populated increment store and the store's operation stream, plus
``plan.json`` naming the poles and the batch query.  The same workload and
seed always give byte-identical files.  Nothing here imports kdiss: the
store's increments come from the benchmark's own closed-form reference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
from pathlib import Path

import numpy as np

import check

# Workload definitions.  ``rows`` is the table size; ``parallel`` is the
# worker count given to ``mu`` (0 means the CPU count, capped at 4);
# ``query_batch`` adds ``batch --query`` to each CLI pass.
WORKLOADS = {
    "paper-220": {
        "rows": 220,
        "raw_counts": True,
        "dup_share": 0.0,
        "zero_share": 0.0,
        "store_pairs": 880,
        "parallel": 1,
        "query_batch": True,
    },
    "world-10k": {
        "rows": 2000,
        "raw_counts": False,
        "dup_share": 0.2,
        "zero_share": 0.05,
        "store_pairs": 2400,
        "parallel": 0,
        "query_batch": False,
    },
}

STORE_DELTAS = (1e-4, 1e-6)
OP_COUNT = 20000
# Share of each store operation in the stream, in a fixed order.
OP_MIX = (("put", 0.15), ("combine_all", 0.20), ("combine_subset", 0.50), ("deltas_for", 0.15))
MODEL_RATE = 0.30


def _shapes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n pyramids as percent shares, from uniform-like to steeply young."""
    ages = np.arange(17)
    lam = rng.uniform(0.0, 1.0, n)[:, None]
    rate = rng.uniform(0.02, 0.35, n)[:, None]
    expo = (1.0 - rate) ** ages
    expo /= expo.sum(axis=1, keepdims=True)
    per_sex = lam / 17.0 + (1.0 - lam) * expo
    # older women outlive men: tilt the female half toward the top cohorts
    tilt = 1.0 + rng.uniform(0.0, 0.4, n)[:, None] * (ages / 16.0) ** 2
    values = np.hstack([per_sex, per_sex * tilt])
    values *= rng.lognormal(0.0, 0.06, values.shape)
    return 100.0 * values / values.sum(axis=1, keepdims=True)


def _table(spec: dict, rng: np.random.Generator) -> tuple[list[str], list[list[str]]]:
    n = spec["rows"]
    shares = _shapes(rng, n)
    if spec["raw_counts"]:
        names = [f"country-{i:03d}" for i in range(n)]
        totals = 10.0 ** rng.uniform(5.0, 9.0, n)
        counts = np.maximum(1, np.rint(shares / 100.0 * totals[:, None])).astype(np.int64)
        return names, [[str(int(v)) for v in row] for row in counts]
    names = [f"P{i:05d}" for i in range(n)]
    values = np.round(shares, 4)
    n_zero = int(round(spec["zero_share"] * n))
    for i in rng.choice(n, n_zero, replace=False):
        # the oldest cohorts of either sex are empty in some small populations
        k = int(rng.integers(1, 4))
        values[i, 17 - k : 17] = 0.0
        values[i, 34 - k : 34] = 0.0
    n_dup = int(round(spec["dup_share"] * n))
    for i in np.sort(rng.choice(np.arange(1, n), n_dup, replace=False)):
        values[i] = values[int(rng.integers(0, i))]
    return names, [[repr(float(v)) for v in row] for row in values]


def _indicators(names: list[str], shares: np.ndarray, rng: np.random.Generator) -> list[list[str]]:
    young = shares[:, 0] + shares[:, 17]
    rows = []
    for i, name in enumerate(names):
        if rng.uniform() < 0.9:
            birth_rate = max(4.0, 2.0 * young[i] + rng.normal(0.0, 1.5))
            rows.append([name, "birth_rate", f"{birth_rate:.3f}"])
        if rng.uniform() < 0.9:
            gdp = 10.0 ** (4.6 - 0.08 * young[i] + rng.normal(0.0, 0.25))
            rows.append([name, "gdp", f"{gdp:.2f}"])
    return rows


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _store_line(query: str, target: str, delta: float, increments: np.ndarray) -> str:
    return "".join(
        f"{query}\t{target}\t{delta!r}\t{param}\t{float(inc)!r}\n"
        for param, inc in zip(check.COHORTS, increments)
    )


def _store(names, shares, poles, rng, n_pairs, work: Path) -> None:
    """Pre-populated store (pairs at one or both deltas) and its op stream."""
    queries = {
        poles[0]: shares[names.index(poles[0])],
        poles[1]: shares[names.index(poles[1])],
        "UN": check.uniform_model(),
        f"E{MODEL_RATE * 100:g}": check.exponential_model(MODEL_RATE),
    }
    qnames = list(queries)
    combos = [(q, t) for q in qnames for t in range(len(names))]
    picked = rng.choice(len(combos), min(n_pairs, len(combos)), replace=False)
    state: dict[tuple[str, str], list[float]] = {}
    lines = []
    for c in picked:
        q, t = combos[c]
        roll = rng.uniform()
        deltas = [STORE_DELTAS[0]] if roll < 0.5 else [STORE_DELTAS[1]] if roll < 0.75 else list(STORE_DELTAS)
        state[(q, names[t])] = deltas
        for delta in deltas:
            inc = check.increments(queries[q], shares[t], delta)
            lines.append(_store_line(q, names[t], delta, inc))
    (work / "store.tsv").write_text("".join(lines), encoding="utf-8")

    # A put either rewrites a pair stored at one delta or adds a pair of two
    # table rows the store does not hold yet.  ``singles`` holds the pairs
    # stored at one delta, the only ones a combine without a delta may name.
    index = {name: i for i, name in enumerate(names)}
    pairs = list(state)
    singles = [p for p in pairs if len(state[p]) == 1]
    kinds = [k for k, _ in OP_MIX]
    weights = np.array([w for _, w in OP_MIX])
    ops = []
    for kind in rng.choice(kinds, OP_COUNT, p=weights / weights.sum()):
        if kind == "put":
            if rng.uniform() < 0.5:
                q, t = singles[int(rng.integers(len(singles)))]
                delta = state[(q, t)][0]
            else:
                while True:
                    qi, ti = (int(v) for v in rng.integers(len(names), size=2))
                    q, t = names[qi], names[ti]
                    if qi != ti and (q, t) not in state:
                        break
                delta = STORE_DELTAS[int(rng.integers(2))]
                queries.setdefault(q, shares[qi])
                state[(q, t)] = [delta]
                pairs.append((q, t))
                singles.append((q, t))
            inc = check.increments(queries[q], shares[index[t]], delta)
            ops.append(["put", q, t, repr(delta), ",".join(repr(float(v)) for v in inc)])
        elif kind == "combine_all":
            q, t = singles[int(rng.integers(len(singles)))]
            ops.append(["combine_all", q, t, "", ""])
        elif kind == "combine_subset":
            q, t = pairs[int(rng.integers(len(pairs)))]
            delta = state[(q, t)][int(rng.integers(len(state[(q, t)])))]
            ops.append(["combine_subset", q, t, repr(delta), ("male", "female")[int(rng.integers(2))]])
        else:
            q, t = pairs[int(rng.integers(len(pairs)))]
            ops.append(["deltas_for", q, t, "", ""])
    (work / "ops.tsv").write_text("".join("\t".join(op) + "\n" for op in ops), encoding="utf-8")


def generate(workload: str, seed: int, out: str | Path) -> dict:
    """Write every input of one workload into ``out``; return the plan."""
    spec = WORKLOADS[workload]
    work = Path(out)
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    names, cells = _table(spec, rng)
    _write_csv(work / "input.csv", ["name", *check.COHORTS], [[n, *row] for n, row in zip(names, cells)])
    shares = check.normalize_rows(np.array([[float(v) for v in row] for row in cells]))
    old = shares[:, 14:17].sum(axis=1) + shares[:, 31:34].sum(axis=1)
    poles = [names[int(np.argmax(old))], names[int(np.argmin(old))]]
    _write_csv(work / "indicators.csv", ["name", "indicator", "value"], _indicators(names, shares, rng))
    _store(names, shares, poles, rng, spec["store_pairs"], work)
    plan = {
        "workload": workload,
        "seed": seed,
        "rows": spec["rows"],
        "poles": poles,
        "batch_query": names[int(rng.integers(len(names)))],
        "model_rate": MODEL_RATE,
        "parallel": spec["parallel"],
        "query_batch": spec["query_batch"],
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
