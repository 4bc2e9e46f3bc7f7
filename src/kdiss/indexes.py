"""Holistic indices over K values: MU, uniform-component share, K-sum checks.

MU places a pyramid between two polar query pyramids (0 = identical to the
first pole, 100 = identical to the second); the uniform-component share does
the same against the uniform and exponential model pyramids.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .dissimilarity import ProbeConfig, _closed_form, compare
from .errors import DomainError, SchemaError
from .pyramids import COHORTS, FEMALE_COHORTS, MALE_COHORTS, PyramidTable, exponential_model, uniform_model
from .similarity import ObjectRecord

__all__ = [
    "IndexRow",
    "mu_index",
    "p_uniform",
    "sum_constancy",
    "sex_split_k",
    "index_row_for",
    "build_index_rows",
    "write_index_csv",
    "read_index_csv",
    "INDEX_COLUMNS",
]

INDEX_COLUMNS = ("name", "k_mt", "k_ut", "k_m_male", "k_m_female", "mu", "d_un", "d_e30", "p_un")


@dataclass(frozen=True)
class IndexRow:
    """Per-target index values against two polar queries and the two models."""

    name: str
    k_mt: float
    k_ut: float
    k_m_male: float
    k_m_female: float
    mu: float
    d_un: float
    d_e30: float
    p_un: float


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


def index_row_for(
    target: ObjectRecord,
    query_a: ObjectRecord,
    query_b: ObjectRecord,
    cfg: ProbeConfig | None = None,
    exp_rate: float = 0.30,
    variant: str = "normalized",
) -> tuple[IndexRow, list[str]]:
    """One target's index row, plus messages for any undefined fields."""
    table = PyramidTable({target.name: _cohort_values(target)})
    rows, problems = build_index_rows(table, query_a, query_b, cfg, exp_rate, variant)
    return rows[0], problems


def _cohort_values(record: ObjectRecord) -> np.ndarray:
    if record.param_names != COHORTS:
        raise SchemaError(f"object {record.name!r} does not carry the {len(COHORTS)} cohorts in order")
    return record.values()


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
    undefined (those fields are set to nan).  The table is stacked once and
    each of the four queries is one closed-form pass over it.
    """
    delta = (cfg or ProbeConfig()).delta
    targets = table.array()
    pole_a = _closed_form(_cohort_values(query_a), targets, delta)
    k_ut = _closed_form(_cohort_values(query_b), targets, delta).k_cont.tolist()
    d_un = _closed_form(uniform_model().values(), targets, delta).k_cont.tolist()
    d_e = _closed_form(exponential_model(exp_rate).values(), targets, delta).k_cont.tolist()
    k_mt = pole_a.k_cont.tolist()
    male = pole_a.increments[:, : len(MALE_COHORTS)].tolist()
    female = pole_a.increments[:, len(MALE_COHORTS) :].tolist()
    rows: list[IndexRow] = []
    problems: list[str] = []
    for i, name in enumerate(table.names()):
        try:
            mu = mu_index(k_ut[i], k_mt[i])
        except DomainError:
            mu = float("nan")
            problems.append(f"{name}: MU undefined (both K values are zero)")
        try:
            p_un = p_uniform(d_un[i], d_e[i], variant)
        except DomainError:
            p_un = float("nan")
            problems.append(f"{name}: p_un undefined (both model distances are zero)")
        k_male, k_female = math.fsum(male[i]), math.fsum(female[i])
        rows.append(IndexRow(name, k_mt[i], k_ut[i], k_male, k_female, mu, d_un[i], d_e[i], p_un))
    return rows, problems


def _format(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return f"{value:.6f}"


def write_index_csv(rows: Sequence[IndexRow], sink: str | Path | IO[str]) -> None:
    """Write rows as CSV with the fixed column order of INDEX_COLUMNS."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(INDEX_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.name,
                _format(row.k_mt),
                _format(row.k_ut),
                _format(row.k_m_male),
                _format(row.k_m_female),
                _format(row.mu),
                _format(row.d_un),
                _format(row.d_e30),
                _format(row.p_un),
            ]
        )
    text = buffer.getvalue()
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)


def read_index_csv(source: str | Path | IO[str]) -> list[IndexRow]:
    """Read back an index CSV produced by write_index_csv."""
    if isinstance(source, (str, Path)):
        fh = open(source, encoding="utf-8", newline="")
        should_close = True
    else:
        fh, should_close = source, False
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: missing header row") from None
        if tuple(h.strip() for h in header) != INDEX_COLUMNS:
            raise SchemaError(f"bad header: expected {','.join(INDEX_COLUMNS)}")
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != len(INDEX_COLUMNS):
                raise SchemaError(f"row {rownum}: expected {len(INDEX_COLUMNS)} fields")
            try:
                rows.append(IndexRow(row[0], *(float(v) for v in row[1:])))
            except ValueError as exc:
                raise SchemaError(f"row {rownum}: non-numeric value ({exc})") from None
        return rows
    finally:
        if should_close:
            fh.close()
