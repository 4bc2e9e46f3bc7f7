"""Holistic indices over K values: MU, uniform-component share, K-sum checks.

MU places a pyramid between two polar query pyramids (0 = identical to the
first pole, 100 = identical to the second); the uniform-component share does
the same against the uniform and exponential model pyramids.  Only
sum_constancy imports numpy, when it is called.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError, SchemaError
from .formats import (
    COHORTS,
    FEMALE_COHORTS,
    INDEX_COLUMNS,
    MALE_COHORTS,
    IndexRow,
    read_index_csv,
    write_index_csv,
)
from .kernel import ObjectRecord, ProbeConfig, _closed_form, compare
from .pyramids import PyramidTable, exponential_model, uniform_model

__all__ = [
    "IndexRow",
    "mu_index",
    "p_uniform",
    "sum_constancy",
    "sex_split_k",
    "build_index_rows",
    "write_index_csv",
    "read_index_csv",
    "INDEX_COLUMNS",
]


def mu_index(k_ut: float, k_mt: float) -> float:
    """100 * k_ut / (k_ut + k_mt): percent similarity toward the k_mt pole.

    100 means the target coincides with the query behind k_mt (that K is 0),
    0 means it coincides with the query behind k_ut.
    """
    if k_ut < 0 or k_mt < 0:
        raise DomainError("K values must be non-negative")
    total = k_ut + k_mt
    if total == 0:
        raise DomainError("mu_index is undefined when both K values are zero")
    # ratio first: k_ut / total <= 1 exactly, so the result never leaves [0, 100]
    return 100.0 * (k_ut / total)


def p_uniform(d_un: float, d_e: float, variant: str = "normalized") -> float:
    """Share of the uniform component from distances to the two models.

    normalized (default): 100 * d_e / (d_un + d_e), bounded in [0, 100].
    as_written: 100 * (1 - d_un) / (d_un + d_e), which goes negative as soon
    as d_un exceeds 1; kept selectable for fidelity to the original formula.
    """
    if d_un < 0 or d_e < 0:
        raise DomainError("distances must be non-negative")
    total = d_un + d_e
    if total == 0:
        raise DomainError("p_uniform is undefined when both distances are zero")
    if variant == "normalized":
        return 100.0 * (d_e / total)
    if variant == "as_written":
        return 100.0 * (1.0 - d_un) / total
    raise DomainError(f"unknown variant {variant!r}")


def sum_constancy(values: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Mean and population standard deviation of pairwise sums k1 + k2."""
    if len(values) == 0:
        raise DomainError("need at least one pair")
    import numpy as np

    sums = np.array([a + b for a, b in values], dtype=float)
    return float(sums.mean()), float(sums.std())


def sex_split_k(
    query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None
) -> tuple[float, float]:
    """K split over the male and female cohort subsets of one comparison.

    Sums the per-parameter increments over each sex's cohorts, so the two
    parts add back to the full-pyramid k_cont exactly.
    """
    result = compare(query, target, cfg)
    missing = [c for c in MALE_COHORTS + FEMALE_COHORTS if c not in result.increments]
    if missing:
        raise SchemaError(f"comparison lacks cohort parameter {missing[0]!r}")
    k_male = math.fsum(result.increments[c] for c in MALE_COHORTS)
    k_female = math.fsum(result.increments[c] for c in FEMALE_COHORTS)
    return k_male, k_female


def _cohort_values(record: ObjectRecord) -> tuple[float, ...]:
    if record.param_names != COHORTS:
        raise SchemaError(f"object {record.name!r} does not carry the {len(COHORTS)} cohorts in order")
    return record.param_values


def build_index_rows(
    table: PyramidTable,
    query_a: ObjectRecord,
    query_b: ObjectRecord,
    cfg: ProbeConfig | None = None,
    exp_rate: float = 0.30,
    variant: str = "normalized",
) -> tuple[list[IndexRow], list[str]]:
    """Index rows for every pyramid: K to both poles, MU, model distances.

    query_a plays the k_mt role (the pole where MU = 100), query_b the k_ut
    role.  Returns the rows plus messages for rows whose MU or p_un is
    undefined (those fields are set to nan).  Each of the four queries is
    one closed-form pass over the table.
    """
    delta = (cfg or ProbeConfig()).delta
    targets = table.values
    pole_a = _closed_form(_cohort_values(query_a), targets, delta)
    k_ut = [c.k_cont for c in _closed_form(_cohort_values(query_b), targets, delta)]
    d_un = [c.k_cont for c in _closed_form(uniform_model().param_values, targets, delta)]
    d_e = [c.k_cont for c in _closed_form(exponential_model(exp_rate).param_values, targets, delta)]
    rows: list[IndexRow] = []
    problems: list[str] = []
    for i, name in enumerate(table.names):
        k_mt = pole_a[i].k_cont
        try:
            mu = mu_index(k_ut[i], k_mt)
        except DomainError:
            mu = float("nan")
            problems.append(f"{name}: MU undefined (both K values are zero)")
        try:
            p_un = p_uniform(d_un[i], d_e[i], variant)
        except DomainError:
            p_un = float("nan")
            problems.append(f"{name}: p_un undefined (both model distances are zero)")
        increments = pole_a[i].increments()
        k_male = math.fsum(increments[: len(MALE_COHORTS)])
        k_female = math.fsum(increments[len(MALE_COHORTS) :])
        rows.append(IndexRow(name, k_mt, k_ut[i], k_male, k_female, mu, d_un[i], d_e[i], p_un))
    return rows, problems
