"""The closed-form engine in plain Python: records, ratio similarity and K.

Every CLI command, compare and batch_compare compute K here, over floats, each
query as one pass over the targets' columns (one sequence of N values per
parameter).  The results are bit for bit numpy's: min, max, divide, multiply
and ceil round alike in both, and _sum8 (one row) and _row_sums (every row, a
column at a time) add in numpy's order.  The paper's mechanism is kept in
kdiss.similarity, kdiss.averaging and kdiss.dissimilarity as the oracle.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, SchemaError

__all__ = [
    "ObjectRecord",
    "r_similarity",
    "ProbeConfig",
    "ComparisonResult",
    "closed_form_k",
    "compare",
    "batch_compare",
]


def _sum8(values: Sequence[float]) -> float:
    """The sum numpy gives for a 1-d float64 row, bit for bit.

    numpy adds a contiguous row pairwise: up to 128 values go into 8 strided
    accumulators, which are combined pairwise before the leftover tail is
    added in order; a longer row is split in two at a multiple of 8.  Its
    reduction starts from 0.0, which turns a -0.0 total into 0.0.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum8(values[:half]) + _sum8(values[half:])
    total, end = 0.0, 0
    if n >= 8:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, end, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[end:]:
        total += value
    return total + 0.0


class _ObjectFields(NamedTuple):
    name: str
    param_names: tuple[str, ...]
    param_values: tuple[float, ...]


class ObjectRecord(_ObjectFields):
    """A named object with an ordered list of named non-negative values.

    All objects compared together must carry the identical ordered parameter
    list.  Values must be finite and >= 0; parameter names must be unique.
    ``ObjectRecord(name, ((param, value), ...))`` takes the pairs.
    """

    __slots__ = ()

    def __new__(cls, name: str, params: Iterable[tuple[str, float]]):
        pairs = tuple(params)
        names, values = tuple(p for p, _ in pairs), tuple(float(v) for _, v in pairs)
        if len(set(names)) != len(names):
            raise SchemaError(f"object {name!r} has duplicate parameter names")
        for pname, value in zip(names, values):
            if not (math.isfinite(value) and value >= 0.0):
                kind = "negative" if math.isfinite(value) else "non-finite"
                raise DomainError(f"object {name!r}, parameter {pname!r}: {kind} value {value!r}")
        return super().__new__(cls, name, names, values)

    def __getnewargs__(self):
        return self.name, self.params

    @property
    def params(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.param_names, self.param_values))

    def value_of(self, param_name: str) -> float:
        if param_name not in self.param_names:
            raise SchemaError(f"object {self.name!r} has no parameter {param_name!r}")
        return self.param_values[self.param_names.index(param_name)]

    def with_param(self, param_name: str, value: float, name: str | None = None) -> ObjectRecord:
        """Copy with one extra parameter appended (used to attach probes)."""
        if param_name in self.param_names:
            raise SchemaError(f"object {self.name!r} already has parameter {param_name!r}")
        return ObjectRecord(name or self.name, self.params + ((param_name, value),))

    @classmethod
    def from_values(cls, name: str, param_names: Sequence[str], values: Sequence[float]) -> ObjectRecord:
        if len(param_names) != len(values):
            raise SchemaError(f"object {name!r}: {len(param_names)} names vs {len(values)} values")
        return cls(name, zip(param_names, values))


def r_similarity(a: float, b: float) -> float:
    """Ratio similarity min(a, b) / max(a, b) for non-negative reals.

    r(0, 0) = 1 (identical values) and r(0, x > 0) = 0, which keeps the
    metric continuous along a == b and bounded in [0, 1].
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"non-finite input ({a!r}, {b!r})")
    if a < 0 or b < 0:
        raise DomainError(f"negative input ({a!r}, {b!r})")
    hi = max(a, b)
    if hi == 0.0:
        return 1.0
    return min(a, b) / hi


class _ProbeFields(NamedTuple):
    delta: float


class ProbeConfig(_ProbeFields):
    """The probe delta: the probe-value difference between the two clones.

    The anchor clone and all plain objects carry probe value 1; the offset
    clone carries 1 + delta.
    """

    __slots__ = ()

    def __new__(cls, delta: float = 1e-4):
        if not (math.isfinite(delta) and delta > 0):
            raise DomainError(f"delta must be positive and finite, got {delta!r}")
        return super().__new__(cls, delta)


class ComparisonResult(NamedTuple):
    """One query-target comparison: critical weight, counts, and increments.

    k_cont = w_star * delta; d = max(1, ceil(w_star)), or one step off it
    where w_star lies within the switch test's rounding of a whole number
    (an integral w_star can give d = w_star); k = d * delta.  The increments map
    each parameter to its share of k_cont and sum back to k_cont exactly.
    """

    query: str
    target: str
    delta: float
    w_star: float
    d: int
    k: float
    k_cont: float
    increments: dict[str, float]


def _check_schema(query: ObjectRecord, target: ObjectRecord) -> None:
    if query.param_names != target.param_names:
        raise SchemaError(f"query {query.name!r} and target {target.name!r} do not share a parameter schema")
    if len(query.param_names) == 0:
        raise SchemaError("objects need at least one parameter")


def _clone_similarity(delta: float) -> float:
    """Ratio similarity of the clones' probe values 1 and 1 + delta."""
    return 1.0 / (1.0 + delta)


def _ratio_sims(query: Sequence[float], target: Sequence[float]) -> list[float]:
    """Per-parameter ratio similarities of two validated value rows."""
    return [t / q if t < q else q / t if q < t else 1.0 for q, t in zip(query, target)]


def _row_sums(columns: Sequence[Sequence[float]]) -> list[float]:
    """_sum8 of every row of a table given by its (one or more) columns, bit for bit:
    _sum8's additions in _sum8's order, each made a whole column at a time."""
    n = len(columns)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return list(map(add, _row_sums(columns[:half]), _row_sums(columns[half:])))
    end = n - n % 8
    if n >= 8:
        acc = columns[:8]
        for i in range(8, end, 8):
            acc = [list(map(add, r, a)) for r, a in zip(acc, columns[i : i + 8])]
        r0, r1, r2, r3, r4, r5, r6, r7 = acc
        total = map(add, map(add, map(add, r0, r1), map(add, r2, r3)), map(add, map(add, r4, r5), map(add, r6, r7)))
    else:
        total = [0.0] * len(columns[0])
    for column in columns[end:]:
        total = map(add, total, column)
    return [value + 0.0 for value in total]


def _weights(n_params: int, sim_sums: Iterable[float], delta: float) -> tuple[list[float], list[float]]:
    """K_cont and w* for each similarity sum S of a P-parameter comparison.  The switch
    test, anchor-target entry (S + w) / (P + w) >= clone-clone entry (P + w * s) / (P + w)
    with s = 1 / (1 + delta), gives w* = (P - S) * (1 + delta) / delta."""
    k_cont = [(n_params - sim_sum) * (1.0 + delta) for sim_sum in sim_sums]
    w_star = [k / delta for k in k_cont]
    if math.inf in w_star:  # k_cont is finite, so w* is finite or overflows to inf
        raise DomainError(f"delta={delta!r} is too small: the switch weight overflows")
    return k_cont, w_star


# a few roundings, relative: the switch test's error, in whole weights, is about
# this times (P + w*) * (1 + delta) / delta
_TEST_ROUNDING = 4 * sys.float_info.epsilon


def _count(n_params: int, sim_sum: float, w_star: float, delta: float) -> float:
    """D: max(1, ceil(w*)), or one step off it where the switch test, in the search's
    arithmetic, passes at ceil(w*) - 1 or fails at ceil(w*), which it can only where
    w* lies within its rounding of a whole number; so D is the search's.  Where that
    rounding reaches half a whole weight (below delta 1e-7 or so at 34 parameters),
    the test places no whole weight, and D = max(1, ceil(w*))."""
    sim_ab, n = _clone_similarity(delta), max(float(math.ceil(w_star)), 1.0)
    if _TEST_ROUNDING * (n_params + w_star) * (1.0 + delta) / delta >= 0.5:
        return n
    for w in (max(n - 1.0, 1.0), n):
        if (sim_sum + w) / (n_params + w) >= (n_params + w * sim_ab) / (n_params + w):
            return w
    return n + 1.0


def _increment_columns(sim_columns: Sequence[Sequence[float]], k_cont: Sequence[float]) -> list[list[float]]:
    """Each row's K_cont split over its parameters in proportion to 1 - r, a whole
    parameter column at a time; a row whose K_cont or shortfall sum is 0 gets zeros."""
    shortfalls = [[1.0 - r for r in column] for column in sim_columns]
    scales = [k / total if total > 0.0 and k > 0.0 else 0.0 for k, total in zip(k_cont, _row_sums(shortfalls))]
    return [list(map(mul, column, scales)) for column in shortfalls]


def _closed_form(query: Sequence[float], columns: Sequence[Sequence[float]], delta: float):
    """One query against every row of a table given by its columns: the lists K_cont,
    w* and similarity sum, and the similarity columns, one comprehension each."""
    sims = [[t / q if t < q else q / t if q < t else 1.0 for t in column] for q, column in zip(query, columns)]
    sim_sums = _row_sums(sims)
    return (*_weights(len(query), sim_sums, delta), sim_sums, sims)


def closed_form_k(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> float:
    """Closed-form k_cont: (P - sum of ratio similarities) * (1 + delta).

    Computed apart from the engine behind compare, from r_similarity and an
    exactly rounded sum, so that each checks the other.
    """
    _check_schema(query, target)
    sim_sum = math.fsum(map(r_similarity, query.param_values, target.param_values))
    return (len(query.param_names) - sim_sum) * (1.0 + (cfg or ProbeConfig()).delta)


def compare(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> ComparisonResult:
    """Full comparison: w* in closed form, D and K, K split over parameters.

    Increments are distributed over parameters proportionally to their
    ratio dissimilarity 1 - r(q_p, t_p), scaled so that their sum equals
    the reported k_cont exactly.
    """
    return batch_compare(query, [target], cfg)[0]


def batch_compare(
    query: ObjectRecord, targets: Sequence[ObjectRecord], cfg: ProbeConfig | None = None
) -> list[ComparisonResult]:
    """compare() against every target, in input order.

    Each result is a function of (query, target, cfg) alone; the presence
    of other targets in the batch cannot change it.
    """
    delta = (cfg or ProbeConfig()).delta
    for target in targets:
        _check_schema(query, target)
    if not targets:
        return []
    names, columns = query.param_names, list(zip(*(t.param_values for t in targets)))
    k_cont, w_star, sim_sum, sims = _closed_form(query.param_values, columns, delta)
    d = [_count(len(names), s, w, delta) for s, w in zip(sim_sum, w_star)]
    incs = zip(*_increment_columns(sims, k_cont))
    return [
        ComparisonResult(query.name, t.name, delta, w, int(n), n * delta, k, dict(zip(names, row)))
        for t, w, n, k, row in zip(targets, w_star, d, k_cont, incs)
    ]
