#!/usr/bin/env python3
"""End-to-end index workflow: polar queries, MU, sums, and a scatter plot.

Builds a synthetic world of pyramids, scores every pyramid between the two
most extreme members (MU = 0 ... 100), checks the K-sum constancy that the
polar choice produces, joins the index with a synthetic welfare indicator,
and writes a scatter CSV and SVG into demos/output/.
"""

from pathlib import Path

from kdiss import ProbeConfig, build_index_rows, emit, fit_series, join, sum_constancy, write_index_csv
from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model
from kdiss.report import IndicatorTable

OUT_DIR = Path(__file__).parent / "output"
OUT_DIR.mkdir(exist_ok=True)

print("=" * 70)
print("1. A synthetic world of 12 pyramids")
print("=" * 70)
uniform = uniform_model().param_values
rows = {}
for i in range(12):
    lam = i / 11
    rate = 0.18 + 0.12 * ((i * 7) % 5) / 4  # deterministic variety, no RNG
    expo = exponential_model(rate).param_values
    rows[f"country{i:02d}"] = normalize([lam * u + (1 - lam) * e for u, e in zip(uniform, expo)])
table = PyramidTable.from_rows(rows)
print(f"   countries: {', '.join(table.names)}")

print()
print("=" * 70)
print("2. Index rows between the two poles")
print("=" * 70)
cfg = ProbeConfig(delta=1e-4)
pole_exponential = table.record("country00")  # fully exponential mixture
pole_uniform = table.record("country11")      # fully uniform mixture
index_rows, problems = build_index_rows(table, pole_uniform, pole_exponential, cfg)
assert not problems
print(f"   {'name':>10}  {'k_mt':>7}  {'k_ut':>7}  {'mu':>6}  {'p_un':>6}")
for row in index_rows:
    print(f"   {row.name:>10}  {row.k_mt:7.3f}  {row.k_ut:7.3f}  {row.mu:6.1f}  {row.p_un:6.1f}")

index_path = OUT_DIR / "index.csv"
write_index_csv(index_rows, index_path)
print(f"   index written to {index_path}")

print()
print("=" * 70)
print("3. K-sum constancy between the poles")
print("=" * 70)
mean, std = sum_constancy([(r.k_mt, r.k_ut) for r in index_rows])
k_spread = max(r.k_mt for r in index_rows) - min(r.k_mt for r in index_rows)
print(f"   mean(k_mt + k_ut) = {mean:.3f}, std = {std:.3f} ({100 * std / mean:.1f}% of mean)")
print(f"   (individual k_mt values span {k_spread:.1f}, so the sum is far steadier")
print("   than its parts; real-world pyramids cluster and sit tighter still)")

print()
print("=" * 70)
print("4. Correlating MU with a synthetic welfare indicator")
print("=" * 70)
indicator_values = {}
for i, row in enumerate(index_rows):
    # welfare grows with MU, with a deterministic wobble standing in for noise
    wobble = 0.08 * ((i * 5) % 7 - 3)
    indicator_values[(row.name, "welfare")] = 10.0 + 0.4 * row.mu + wobble
indicators = IndicatorTable(indicator_values)

series, unmatched = join(index_rows, indicators, "mu", "welfare")
assert not unmatched
series = fit_series(series)
slope, intercept, r = series.fit
print(f"   OLS fit: welfare = {intercept:.2f} + {slope:.3f} * MU   (pearson r = {r:.4f})")

csv_path = OUT_DIR / "mu_vs_welfare.csv"
svg_path = OUT_DIR / "mu_vs_welfare.svg"
csv_path.write_bytes(emit(series, "csv"))
svg_path.write_bytes(emit(series, "svg"))
print(f"   scatter CSV: {csv_path}")
print(f"   scatter SVG: {svg_path}")
