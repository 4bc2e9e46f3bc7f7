"""Holistic indices over K values: MU, uniform-component share, K-sum checks.

MU places a pyramid between two polar query pyramids (0 = identical to the
first pole, 100 = identical to the second); the uniform-component share does
the same against the uniform and E30 model pyramids.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import _HOMES
from .errors import DomainError, SchemaError
from .formats import COHORTS, FEMALE_COHORTS, MALE_COHORTS, IndexRow
from .kernel import ObjectRecord, ProbeConfig, _closed_form, _increment_columns, compare
from .pyramids import PyramidTable, exponential_model, uniform_model

__all__ = _HOMES["indexes"]


def mu_index(k_ut: float, k_mt: float) -> float:
    """100 * k_ut / (k_ut + k_mt): percent similarity toward the k_mt pole.

    100 means the target coincides with the query behind k_mt (that K is 0),
    0 means it coincides with the query behind k_ut.
    """
    return _checked_share(k_ut, k_mt, "K values")


def p_uniform(d_un: float, d_e: float) -> float:
    """Share of the uniform component, 100 * d_e / (d_un + d_e), from the
    distances to the uniform and E30 models; bounded in [0, 100]."""
    return _checked_share(d_e, d_un, "distances")


def _checked_share(part: float, other: float, what: str) -> float:
    """_share of two finite, non-negative values, not both zero."""
    for value in (part, other):
        if not 0.0 <= value < math.inf:
            raise DomainError(f"{what} must be finite and non-negative, got {value!r}")
    if part == other == 0.0:
        raise DomainError(f"the share is undefined when both {what} are zero")
    return _share(part, other)


def _share(part: float, other: float) -> float:
    """100 * part / (part + other), or nan where both are zero."""
    total = part + other
    if total == math.inf:  # where the sum overflows, the halved values give the share
        part, total = part / 2.0, part / 2.0 + other / 2.0
    # ratio first: part / total <= 1 exactly, so the result never leaves [0, 100]
    return 100.0 * (part / total) if total else math.nan


def sum_constancy(values: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Mean and population standard deviation of pairwise sums k1 + k2."""
    if len(values) == 0:
        raise DomainError("need at least one pair")
    sums = [a + b for a, b in values]
    mean = math.fsum(sums) / len(sums)
    return mean, math.sqrt(math.fsum([(s - mean) * (s - mean) for s in sums]) / len(sums))


def sex_split_k(
    query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None
) -> tuple[float, float]:
    """K split over the male and female cohort subsets of one comparison.

    Sums the per-parameter increments over each sex's cohorts, so the two
    parts add back to the full-pyramid k_cont within 5 * 2**-53 relative: the
    increments, each part's sum and their addition round once each, as do
    k_cont's sum and product.  Not exactly: 520 of 2,016 synthetic pairs
    miss, by up to 2.2e-16 relative.
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


def _model_distances(names: Sequence[str], columns: list[tuple[float, ...]], delta: float):
    """d_un and d_e30, the K_cont to the uniform and E30 models, one closed-form pass
    each over a table's columns; p_un, the normalized uniform-component share of
    each pyramid; and a message for each pyramid whose p_un is nan (both are zero)."""
    d_un = _closed_form(uniform_model().param_values, columns, delta)[0]
    d_e = _closed_form(exponential_model(0.30).param_values, columns, delta)[0]
    p_un = list(map(_share, d_e, d_un))
    undefined = (name for name, p in zip(names, p_un) if math.isnan(p))
    return d_un, d_e, p_un, [f"{name}: p_un undefined (both model distances are zero)" for name in undefined]


def build_index_rows(
    table: PyramidTable,
    query_a: ObjectRecord,
    query_b: ObjectRecord,
    cfg: ProbeConfig | None = None,
) -> tuple[list[IndexRow], list[str]]:
    """Index rows for every pyramid: K to both poles, MU, model distances.

    query_a plays the k_mt role (the pole where MU = 100), query_b the k_ut
    role.  Returns the rows plus messages for rows whose MU or p_un is
    undefined (those fields are set to nan).  Each of the four queries is
    one closed-form pass over the table's columns; only pole A's dissimilarity
    columns are split into increments.
    """
    delta = (cfg or ProbeConfig()).delta
    columns = table.columns()
    k_mt, _, _, ds = _closed_form(_cohort_values(query_a), columns, delta)
    increments = _increment_columns(ds, delta)
    k_male = list(map(math.fsum, zip(*increments[: len(MALE_COHORTS)])))
    k_female = list(map(math.fsum, zip(*increments[len(MALE_COHORTS) :])))
    del ds, increments  # pole A's columns go before the next pass needs the memory
    k_ut = _closed_form(_cohort_values(query_b), columns, delta)[0]
    d_un, d_e, p_un, p_un_problems = _model_distances(table.names, columns, delta)
    mu = list(map(_share, k_ut, k_mt))
    problems = [f"{name}: MU undefined (both K values are zero)" for name, m in zip(table.names, mu) if math.isnan(m)]
    rows = list(map(IndexRow._make, zip(table.names, k_mt, k_ut, k_male, k_female, mu, d_un, d_e, p_un)))
    return rows, problems + p_un_problems
