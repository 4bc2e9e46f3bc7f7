"""Population-pyramid tables: ingestion, normalization, and model pyramids.

A pyramid is 34 named cohort shares: 17 five-year male cohorts (m00, m05,
..., m75, m80 with m80 meaning 80+) followed by the 17 female cohorts
(f00 ... f80), each a percentage of the country's total population.  Raw
head counts are accepted and normalized to percent on ingestion.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, SchemaError
from .formats import AGE_STARTS, COHORTS, FEMALE_COHORTS, MALE_COHORTS, _open_source
from .similarity import ObjectRecord

__all__ = [
    "AGE_STARTS",
    "MALE_COHORTS",
    "FEMALE_COHORTS",
    "COHORTS",
    "PyramidTable",
    "normalize",
    "ingest",
    "long_to_wide",
    "write_pyramid_csv",
    "uniform_model",
    "exponential_model",
    "sex_slice",
    "cohort_totals",
]

_UNIFORM_SHARE = 100.0 / 34.0
# why a row cannot be normalized, highest precedence first
_NORMALIZE_PROBLEMS = ("values must be finite", "values must be non-negative", "cannot normalize an all-zero row")


def normalize(raw: Sequence[float]) -> np.ndarray:
    """Scale non-negative values to percentages summing to 100."""
    values = np.asarray(raw, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise SchemaError("expected a non-empty 1-d sequence of values")
    shares, (problem,) = _normalize_rows(values[None, :])
    if problem:
        raise DomainError(problem)
    return shares[0]


def _normalize_rows(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """normalize() on each row of a 2-d array: the scaled rows, and per row
    "" or why it cannot be scaled (such a row's shares are meaningless)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        totals = values.sum(axis=1)
        scale = 100.0 / totals
        shares = values * scale[:, None]
        failed = [~np.isfinite(values).all(axis=1), (values < 0).any(axis=1), totals == 0]
        problems = np.select(failed, _NORMALIZE_PROBLEMS, "")
    # the sum overflows, or is so small that its reciprocal does: shares are
    # ratios, so compute them from values scaled to a maximum of 1
    rescale = np.flatnonzero(~(np.isfinite(totals) & np.isfinite(scale)) & (problems == ""))
    shrunk = values[rescale] / values[rescale].max(axis=1, keepdims=True)
    shares[rescale] = shrunk * (100.0 / shrunk.sum(axis=1))[:, None]
    return shares, problems.tolist()


@dataclass(frozen=True, eq=False)
class PyramidTable:
    """Normalized pyramids: names in ingestion order, their shares as one read-only (N, 34) array."""

    names: tuple[str, ...]
    values: np.ndarray
    row_errors: tuple[str, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.names)})
        if values.shape != (len(self.names), len(COHORTS)) or len(self._index) != len(self.names):
            raise SchemaError(f"need {len(self.names)} distinct names and an (N, 34) array, got {values.shape}")

    @classmethod
    def from_rows(cls, rows: Mapping[str, Sequence[float]]) -> PyramidTable:
        """A table of the given shares (not renormalized), in mapping order."""
        return cls(tuple(rows), np.array(list(rows.values()) or np.empty((0, len(COHORTS))), dtype=float))

    def record(self, name: str) -> ObjectRecord:
        if name not in self._index:
            raise SchemaError(f"name not found: {name!r}")
        return ObjectRecord.from_values(name, COHORTS, self.values[self._index[name]])

    def array(self) -> np.ndarray:
        """All pyramids as one read-only (N, 34) array, rows in ingestion order."""
        return self.values

    def records(self) -> Iterator[ObjectRecord]:
        for name in self.names:
            yield self.record(name)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index


def ingest(source: str | Path | IO[str], lenient: bool = False) -> PyramidTable:
    """Read a wide pyramid CSV (header ``name,m00,...,m80,f00,...,f80``).

    Values may be raw counts or shares; every row is normalized to percent.
    Malformed rows raise with the offending row number, or are collected in
    the returned table's row_errors when lenient is true.
    """
    with _open_source(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: missing header row") from None
        expected = ["name", *COHORTS]
        if [h.strip() for h in header] != expected:
            raise SchemaError(
                f"bad header: expected {','.join(expected[:3])},...,{expected[-1]} "
                f"({len(expected)} columns), got {len(header)} columns"
            )
        # a row without a name fails before the duplicate check, a non-numeric value after it
        parsed: list[tuple[int, str, str]] = []
        values: list[list[float]] = []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            name, problem, cells = "", "", [0.0] * len(COHORTS)
            if len(row) != len(expected):
                problem = f"expected {len(expected)} fields, got {len(row)}"
            elif not (name := row[0].strip()):
                problem = "empty name"
            else:
                try:
                    cells = list(map(float, row[1:]))
                except ValueError as exc:
                    problem = f"non-numeric value ({exc})"
            parsed.append((rownum, name, problem))
            values.append(cells)
    shares, domain = _normalize_rows(np.array(values, dtype=float).reshape(len(values), len(COHORTS)))
    kept: dict[str, int] = {}  # a name is a duplicate only of a row already accepted
    errors: list[str] = []
    for i, (rownum, name, problem) in enumerate(parsed):
        error = SchemaError
        if name in kept:
            problem = f"duplicate name {name!r}"
        elif not problem and domain[i]:
            error, problem = DomainError, domain[i]
        if not problem:
            kept[name] = i
        elif lenient:
            errors.append(f"row {rownum}: {problem}")
        else:
            raise error(f"row {rownum}: {problem}")
    return PyramidTable(tuple(kept), shares[list(kept.values())], tuple(errors))


def long_to_wide(source: str | Path | IO[str]) -> PyramidTable:
    """Convert a long CSV (``name,sex,cohort,value``) into a pyramid table.

    sex is ``m`` or ``f``; cohort is the two-digit age-group start (00, 05,
    ..., 80).  Every (name, sex, cohort) combination must appear exactly
    once.
    """
    with _open_source(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: missing header row") from None
        if [h.strip() for h in header] != ["name", "sex", "cohort", "value"]:
            raise SchemaError("bad header: expected name,sex,cohort,value")
        cells: dict[str, dict[str, float]] = {}
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != 4:
                raise SchemaError(f"row {rownum}: expected 4 fields, got {len(row)}")
            name, sex, cohort, value_s = (c.strip() for c in row)
            if sex not in ("m", "f"):
                raise SchemaError(f"row {rownum}: sex must be 'm' or 'f', got {sex!r}")
            label = f"{sex}{cohort}"
            if label not in COHORTS:
                raise SchemaError(f"row {rownum}: unknown cohort {cohort!r}")
            try:
                value = float(value_s)
            except ValueError:
                raise SchemaError(f"row {rownum}: non-numeric value {value_s!r}") from None
            per_name = cells.setdefault(name, {})
            if label in per_name:
                raise SchemaError(f"row {rownum}: duplicate cell ({name!r}, {label})")
            per_name[label] = value
        rows: dict[str, np.ndarray] = {}
        for name, per_name in cells.items():
            missing = [c for c in COHORTS if c not in per_name]
            if missing:
                raise SchemaError(f"pyramid {name!r} is missing {len(missing)} cohorts (first: {missing[0]})")
            rows[name] = normalize([per_name[c] for c in COHORTS])
        return PyramidTable.from_rows(rows)


def write_pyramid_csv(table: PyramidTable, sink: str | Path | IO[str]) -> None:
    """Write the wide CSV back out; shares use repr so they round-trip."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", *COHORTS])
    writer.writerows([name, *values] for name, values in zip(table.names, table.values.tolist()))
    text = buffer.getvalue()
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)


def uniform_model() -> ObjectRecord:
    """Model pyramid with every cohort at exactly 100/34 percent."""
    return ObjectRecord.from_values("UN", COHORTS, [_UNIFORM_SHARE] * 34)


def exponential_model(rate: float) -> ObjectRecord:
    """Model pyramid whose successive cohorts each shrink by ``rate``.

    Within each sex the cohort at age index k holds a share proportional to
    (1 - rate)**k, the sexes split 50/50, so the combined share of age
    cohort k is 100 * q**k * (1 - q) / (1 - q**17) with q = 1 - rate.
    rate=0 reproduces the uniform model exactly.
    """
    if not (np.isfinite(rate) and 0.0 <= rate < 1.0):
        raise DomainError(f"rate must lie in [0, 1), got {rate!r}")
    name = f"E{rate * 100:g}"
    if rate == 0.0:
        return ObjectRecord.from_values(name, COHORTS, [_UNIFORM_SHARE] * 34)
    q = 1.0 - rate
    factor = 50.0 * (1.0 - q) / (1.0 - q**17)
    per_sex = [factor * q**k for k in range(17)]
    return ObjectRecord.from_values(name, COHORTS, per_sex + per_sex)


def sex_slice(pyramid: ObjectRecord, sex: str) -> ObjectRecord:
    """The 17 male or female cohort parameters, shares kept as-is.

    No renormalization: keeping the original shares is what lets per-slice
    K values add up across slices to the full-pyramid value.
    """
    wanted = {"m": MALE_COHORTS, "male": MALE_COHORTS, "f": FEMALE_COHORTS, "female": FEMALE_COHORTS}.get(sex)
    if wanted is None:
        raise DomainError(f"sex must be 'm' or 'f', got {sex!r}")
    names = pyramid.param_names
    missing = [c for c in wanted if c not in names]
    if missing:
        raise SchemaError(f"object {pyramid.name!r} lacks cohort {missing[0]!r}")
    values = [pyramid.value_of(c) for c in wanted]
    return ObjectRecord.from_values(f"{pyramid.name}:{sex[0]}", wanted, values)


def cohort_totals(pyramid: ObjectRecord) -> list[tuple[str, float]]:
    """Combined male+female share per age group, in age order."""
    return [
        (f"{age:02d}", pyramid.value_of(f"m{age:02d}") + pyramid.value_of(f"f{age:02d}"))
        for age in AGE_STARTS
    ]
