"""Population-pyramid tables: ingestion, normalization, and model pyramids.

A pyramid is 34 named cohort shares: 17 five-year male cohorts (m00, m05,
..., m75, m80 with m80 meaning 80+) followed by the 17 female cohorts
(f00 ... f80), each a percentage of the country's total population.  Raw
head counts are accepted and normalized to percent on ingestion.  Tables
hold tuples of floats.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Mapping, Sequence

from . import _HOMES
from .errors import DomainError, SchemaError
from .formats import AGE_STARTS, COHORTS, _csv_rows, _csv_text, _write_text
from .kernel import ObjectRecord

__all__ = _HOMES["pyramids"]


def normalize(raw: Sequence[float]) -> tuple[float, ...]:
    """Scale non-negative values to percentages summing to 100, as a tuple of floats."""
    try:
        values = [] if isinstance(raw, str) else [float(v) for v in raw]
    except TypeError:  # a scalar, or a sequence holding sequences
        values = []
    if not values:
        raise SchemaError("expected a non-empty 1-d sequence of values")
    shares, problem = _normalize_row(values)
    if problem:
        raise DomainError(problem)
    return shares


def _normalize_row(values: Sequence[float]) -> tuple[tuple[float, ...], str]:
    """normalize() on a non-empty row of floats: the shares and "", or ()
    and why the row cannot be scaled."""
    try:
        total = math.fsum(values)
    except OverflowError:  # the sum is beyond the float range
        total = math.inf
    except ValueError:  # both infinities
        total = math.nan
    # only a non-finite total can come of a non-finite value, so only that one needs the scan
    if not math.isfinite(total) and not all(map(math.isfinite, values)):
        return (), "values must be finite"
    if min(values) < 0.0:
        return (), "values must be non-negative"
    if total == 0.0:
        return (), "cannot normalize an all-zero row"
    scale = 100.0 / total
    if not (math.isfinite(total) and math.isfinite(scale)):
        # the sum overflows, or is so small that its reciprocal does: shares are
        # ratios, so compute them from values scaled to a maximum of 1
        top = max(values)
        values = [v / top for v in values]
        scale = 100.0 / math.fsum(values)
    return tuple([v * scale for v in values]), ""


class PyramidTable:
    """Normalized pyramids: names in ingestion order, their 34 shares each as a tuple of floats.

    Immutable, and equal only to itself."""

    __slots__ = ("names", "values", "row_errors", "_index")

    def __init__(self, names: tuple[str, ...], values: Sequence[Sequence[float]], row_errors: tuple[str, ...] = ()):
        self._fill(names, tuple(tuple(map(float, row)) for row in values), row_errors)

    @classmethod
    def _of_floats(
        cls, names: tuple[str, ...], values: tuple[tuple[float, ...], ...], row_errors: tuple[str, ...] = ()
    ) -> PyramidTable:
        """A table of rows that already are tuples of floats, such as ingest builds: kept, not copied."""
        table = object.__new__(cls)
        table._fill(names, values, row_errors)
        return table

    def _fill(self, names: tuple[str, ...], values: tuple[tuple[float, ...], ...], row_errors: tuple[str, ...]) -> None:
        index = {name: i for i, name in enumerate(names)}
        if not (len(values) == len(index) == len(names) and all(len(r) == len(COHORTS) for r in values)):
            raise SchemaError(f"need {len(names)} distinct names and as many rows of {len(COHORTS)} values")
        for slot, value in zip(self.__slots__, (names, values, row_errors, index)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PyramidTable, (self.names, self.values, self.row_errors)

    def __repr__(self) -> str:
        return f"PyramidTable(names={self.names!r}, values={self.values!r}, row_errors={self.row_errors!r})"

    @classmethod
    def from_rows(cls, rows: Mapping[str, Sequence[float]]) -> PyramidTable:
        """A table of the given shares (not renormalized), in mapping order."""
        return cls(tuple(rows), tuple(rows.values()))

    def record(self, name: str) -> ObjectRecord:
        if name not in self._index:
            raise SchemaError(f"name not found: {name!r}")
        return ObjectRecord.from_values(name, COHORTS, self.values[self._index[name]])

    def columns(self) -> list[tuple[float, ...]]:
        """The table transposed: one tuple of N shares per cohort, 34 in all."""
        return list(zip(*self.values)) or [()] * len(COHORTS)

    def __len__(self) -> int:
        return len(self.names)


def ingest(source: str | Path | IO[str], lenient: bool = False) -> PyramidTable:
    """Read a wide pyramid CSV (header ``name,m00,...,m80,f00,...,f80``).

    Values may be raw counts or shares; every row is normalized to percent.
    Malformed rows raise with the offending row number, or are collected in
    the returned table's row_errors when lenient is true.
    """
    expected = ["name", *COHORTS]
    bad_header = f"bad header: expected name,m00,m05,...,f80 ({len(expected)} columns), got {{n}} columns"
    kept: dict[str, tuple[float, ...]] = {}  # a name is a duplicate only of a row already accepted
    errors: list[str] = []
    for rownum, row in _csv_rows(source, expected, bad_header, errors.append if lenient else None):
        # a row without a name fails before the duplicate check, a non-numeric value after it
        error, name = SchemaError, row[0].strip()
        if not name:
            problem = "empty name"
        elif name in kept:
            problem = f"duplicate name {name!r}"
        else:
            try:
                cells = list(map(float, row[1:]))
            except ValueError as exc:
                problem = f"non-numeric value ({exc})"
            else:
                error = DomainError
                shares, problem = _normalize_row(cells)
        if not problem:
            kept[name] = shares
        elif lenient:
            errors.append(f"row {rownum}: {problem}")
        else:
            raise error(f"row {rownum}: {problem}")
    return PyramidTable._of_floats(tuple(kept), tuple(kept.values()), tuple(errors))


def long_to_wide(source: str | Path | IO[str]) -> PyramidTable:
    """Convert a long CSV (``name,sex,cohort,value``) into a pyramid table.

    sex is ``m`` or ``f``; cohort is the two-digit age-group start (00, 05,
    ..., 80).  Every (name, sex, cohort) combination must appear exactly
    once.
    """
    columns = ("name", "sex", "cohort", "value")
    cells: dict[str, dict[str, float]] = {}
    for rownum, row in _csv_rows(source, columns, "bad header: expected name,sex,cohort,value"):
        name, sex, cohort, value_s = (c.strip() for c in row)
        if not name:
            raise SchemaError(f"row {rownum}: empty name")
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
    rows: dict[str, tuple[float, ...]] = {}
    for name, per_name in cells.items():
        missing = [c for c in COHORTS if c not in per_name]
        if missing:
            raise SchemaError(f"pyramid {name!r} is missing {len(missing)} cohorts (first: {missing[0]})")
        rows[name], problem = _normalize_row([per_name[c] for c in COHORTS])
        if problem:
            raise DomainError(f"pyramid {name!r}: {problem}")
    return PyramidTable._of_floats(tuple(rows), tuple(rows.values()))


def write_pyramid_csv(table: PyramidTable, sink: str | Path | IO[str] | None) -> None:
    """Write the wide CSV back out (sink None: stdout); shares use repr so they round-trip."""
    rows = map(tuple.__add__, zip(table.names), table.values)  # (name, *values)
    _write_text(_csv_text(["name", *COHORTS], rows, ",".join(["%r"] * len(COHORTS))), sink)


def uniform_model() -> ObjectRecord:
    """Model pyramid with every cohort at exactly 100/34 percent."""
    return exponential_model(0.0)._replace(name="UN")


def exponential_model(rate: float) -> ObjectRecord:
    """Model pyramid whose successive cohorts each shrink by ``rate``.

    Within each sex the cohort at age index k holds a share proportional to
    (1 - rate)**k, the sexes split 50/50, so the combined share of age
    cohort k is 100 * q**k * (1 - q) / (1 - q**17) with q = 1 - rate.
    rate=0, and any rate of 2**-54 or less (which leaves q at 1.0),
    reproduces the uniform model exactly.
    """
    if not (math.isfinite(rate) and 0.0 <= rate < 1.0):
        raise DomainError(f"rate must lie in [0, 1), got {rate!r}")
    name = f"E{rate * 100:g}"
    q = 1.0 - rate
    # -expm1(17 * log1p(q - 1)) is 1 - q**17 without its cancellation at small rates;
    # at q = 1 each cohort is 50 / 17, the same float as 100 / 34
    factor = 50.0 / 17 if q == 1.0 else 50.0 * (1.0 - q) / -math.expm1(17 * math.log1p(q - 1.0))
    per_sex = [factor * q**k for k in range(17)]
    return ObjectRecord.from_values(name, COHORTS, per_sex + per_sex)


def cohort_totals(pyramid: ObjectRecord) -> list[tuple[str, float]]:
    """Combined male+female share per age group, in age order."""
    return [
        (f"{age:02d}", pyramid.value_of(f"m{age:02d}") + pyramid.value_of(f"f{age:02d}"))
        for age in AGE_STARTS
    ]
