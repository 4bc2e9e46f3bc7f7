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
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import DomainError, SchemaError
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

AGE_STARTS = tuple(range(0, 85, 5))
MALE_COHORTS = tuple(f"m{age:02d}" for age in AGE_STARTS)
FEMALE_COHORTS = tuple(f"f{age:02d}" for age in AGE_STARTS)
COHORTS = MALE_COHORTS + FEMALE_COHORTS

_UNIFORM_SHARE = 100.0 / 34.0


def normalize(raw: Sequence[float]) -> np.ndarray:
    """Scale non-negative values to percentages summing to 100."""
    values = np.asarray(raw, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise SchemaError("expected a non-empty 1-d sequence of values")
    if np.any(~np.isfinite(values)):
        raise DomainError("values must be finite")
    if np.any(values < 0):
        raise DomainError("values must be non-negative")
    total = float(values.sum())
    if total == 0.0:
        raise DomainError("cannot normalize an all-zero row")
    return values * (100.0 / total)


@dataclass(frozen=True)
class PyramidTable:
    """Normalized pyramids keyed by name, in ingestion order."""

    rows: dict[str, np.ndarray]
    row_errors: tuple[str, ...] = field(default=())

    def names(self) -> list[str]:
        return list(self.rows)

    def record(self, name: str) -> ObjectRecord:
        if name not in self.rows:
            raise SchemaError(f"no pyramid named {name!r}")
        return ObjectRecord.from_values(name, COHORTS, self.rows[name])

    def array(self) -> np.ndarray:
        """All pyramids as one (N, 34) array, rows in ingestion order."""
        return np.array(list(self.rows.values()), dtype=float).reshape(len(self.rows), len(COHORTS))

    def records(self) -> Iterator[ObjectRecord]:
        for name in self.rows:
            yield self.record(name)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, name: str) -> bool:
        return name in self.rows


def _open_source(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8", newline=""), True
    return source, False


def ingest(source: str | Path | IO[str], lenient: bool = False) -> PyramidTable:
    """Read a wide pyramid CSV (header ``name,m00,...,m80,f00,...,f80``).

    Values may be raw counts or shares; every row is normalized to percent.
    Malformed rows raise with the offending row number, or are collected in
    the returned table's row_errors when lenient is true.
    """
    fh, should_close = _open_source(source)
    try:
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
        rows: dict[str, np.ndarray] = {}
        errors: list[str] = []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            try:
                if len(row) != len(expected):
                    raise SchemaError(f"expected {len(expected)} fields, got {len(row)}")
                name = row[0].strip()
                if not name:
                    raise SchemaError("empty name")
                if name in rows:
                    raise SchemaError(f"duplicate name {name!r}")
                try:
                    values = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise SchemaError(f"non-numeric value ({exc})") from None
                rows[name] = normalize(values)
            except (SchemaError, DomainError) as exc:
                message = f"row {rownum}: {exc}"
                if lenient:
                    errors.append(message)
                else:
                    raise type(exc)(message) from None
        return PyramidTable(rows, tuple(errors))
    finally:
        if should_close:
            fh.close()


def long_to_wide(source: str | Path | IO[str]) -> PyramidTable:
    """Convert a long CSV (``name,sex,cohort,value``) into a pyramid table.

    sex is ``m`` or ``f``; cohort is the two-digit age-group start (00, 05,
    ..., 80).  Every (name, sex, cohort) combination must appear exactly
    once.
    """
    fh, should_close = _open_source(source)
    try:
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
        return PyramidTable(rows)
    finally:
        if should_close:
            fh.close()


def write_pyramid_csv(table: PyramidTable, sink: str | Path | IO[str]) -> None:
    """Write the wide CSV back out; shares use repr so they round-trip."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", *COHORTS])
    for name in table.rows:
        writer.writerow([name, *(repr(float(v)) for v in table.rows[name])])
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
