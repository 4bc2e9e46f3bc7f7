#!/usr/bin/env python3
"""Model pyramids and the uniform-component share.

Real population pyramids sit between two extremes: a uniform shape where
every age cohort holds the same share, and an exponential shape where each
cohort is a fixed fraction smaller than the one before it.  This script
builds both models, a family of synthetic country pyramids in between, and
scores each pyramid's uniform component from its distances to the models.
"""

from kdiss import ObjectRecord, ProbeConfig, compare, p_uniform, sex_split_k
from kdiss.formats import COHORTS
from kdiss.pyramids import cohort_totals, exponential_model, normalize, uniform_model

print("=" * 70)
print("1. The two model pyramids")
print("=" * 70)
uniform = uniform_model()
e30 = exponential_model(0.30)
print("   uniform: every cohort share =", f"{uniform.param_values[0]:.4f}%")
print("   exponential (30% decline), first four combined cohorts:")
for age, share in cohort_totals(e30)[:4]:
    print(f"     age {age}+ : {share:6.2f}%")

print()
print("=" * 70)
print("2. Synthetic pyramids spanning the range")
print("=" * 70)
lam_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
pyramids = []
for lam in lam_grid:
    mixed = normalize([lam * u + (1 - lam) * e for u, e in zip(uniform.param_values, e30.param_values)])
    pyramids.append(ObjectRecord.from_values(f"mix{int(lam * 100):03d}", COHORTS, mixed))
print(f"   built {len(pyramids)} mixtures: 0% uniform ... 100% uniform")

print()
print("=" * 70)
print("3. Distances to both models, and the uniform-component share")
print("=" * 70)
cfg = ProbeConfig(delta=1e-4)
print(f"   {'pyramid':>8}  {'d_un':>8}  {'d_e30':>8}  {'p_un':>6}")
for record in pyramids:
    d_un = compare(uniform, record, cfg).k_cont
    d_e = compare(e30, record, cfg).k_cont
    p_un = p_uniform(d_un, d_e)
    print(f"   {record.name:>8}  {d_un:8.3f}  {d_e:8.3f}  {p_un:6.1f}")
print("   (p_un runs 0 -> 100 as the mixture moves from exponential to uniform)")

print()
print("=" * 70)
print("4. Sex slices: K splits exactly across the male and female halves")
print("=" * 70)
target = pyramids[2]
full = compare(uniform, target, cfg)
male_k, female_k = sex_split_k(uniform, target, cfg)
print(f"   K male half   = {male_k:.6f}")
print(f"   K female half = {female_k:.6f}")
print(f"   sum           = {male_k + female_k:.6f}")
print(f"   full K_cont   = {full.k_cont:.6f}")
print("   (the model halves are identical, so the split is exactly even)")
