"""The closed-form engine in plain Python: records, ratio dissimilarity and K.

Every CLI command, compare and batch_compare compute K here, over floats, each
query as one pass over the targets' columns (one sequence of N values per
parameter).  K_cont, D and the increments all come from one coordinate, the
ratio dissimilarity d = |q - t| / max(q, t) = 1 - r, so a near-identical pair
loses nothing to cancellation.  Every sum is math.fsum's, exactly rounded, so
K_cont is within a few ulps of its exact value for the pair, does not depend
on the parameter order and is symmetric in query and target bit for bit.
The paper's mechanism, kept in kdiss.averaging and kdiss.dissimilarity as the
oracle, runs on the same d's.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _HOMES
from .errors import DomainError, SchemaError

__all__ = _HOMES["kernel"]


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

    k_cont = w_star * delta; d = max(1, ceil(w*)) with w* exact for the exactly
    rounded sum of the pair's ratio dissimilarities and delta, so an integral w*
    gives d = w*; k = d * delta.  The increments map each parameter to its share
    d_p * (1 + delta) of k_cont and sum back to k_cont up to rounding.
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


def _weights(d_sums: Iterable[float], delta: float) -> tuple[list[float], list[float]]:
    """K_cont and w* for each dissimilarity sum G = sum of d.  The switch test,
    anchor-target entry G / (P + w) <= clone-clone entry w * d_ab / (P + w)
    with d_ab = delta / (1 + delta), gives w* = G * (1 + delta) / delta."""
    k_cont = [d_sum * (1.0 + delta) for d_sum in d_sums]
    w_star = [k / delta for k in k_cont]
    if math.inf in w_star:  # k_cont is finite, so w* is finite or overflows to inf
        raise DomainError(f"delta={delta!r} is too small: the switch weight overflows")
    return k_cont, w_star


def _counts(d_sums: Iterable[float], delta: float) -> list[int]:
    """D = max(1, ceil(w*)) for each dissimilarity sum G, with w* = G * (1 + delta) / delta
    taken exactly for the floats G and delta: the switch test decided in integers,
    G = a / b and delta = c / e giving w* = a * (e + c) / (b * c)."""
    c, e = delta.as_integer_ratio()
    return [max(1, -(-a * (e + c) // (b * c))) for a, b in map(float.as_integer_ratio, d_sums)]


def _increment_columns(d_columns: Sequence[Sequence[float]], delta: float) -> list[Iterator[float]]:
    """Each row's K_cont split over its parameters, a whole column at a time: a parameter's
    increment is its d * (1 + delta), zero where the row's d sum is 0.  Each column is a
    lazy map over the rows, read once, so that mu's K per sex builds no list of increments."""
    return [map((1.0 + delta).__mul__, column) for column in d_columns]


def _d_column(q: float, column: Iterable[float]) -> list[float]:
    """The ratio dissimilarity d = |q - t| / max(q, t) of one query value against a column,
    one comparison per value: d(0, 0) = 0 and d(0, t > 0) = 1, and a tie t == q gives
    (t - q) / t = 0.0.  Near a tie q - t is exact, so d carries one rounding."""
    if q > 0.0:
        return [(q - t) / q if t < q else (t - q) / t for t in column]
    return [1.0 if t else 0.0 for t in column]


def _closed_form(query: Sequence[float], columns: Sequence[Sequence[float]], delta: float):
    """One query against every row of a table given by its columns: the lists K_cont,
    w* and dissimilarity sum, and the dissimilarity columns, one comprehension each."""
    ds = list(map(_d_column, query, columns))
    d_sums = list(map(math.fsum, zip(*ds)))
    return (*_weights(d_sums, delta), d_sums, ds)


def closed_form_k(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> float:
    """Closed-form k_cont: (sum of |q - t| / max(q, t)) * (1 + delta), 0 for a pair of zeros.

    Computed apart from the engine behind compare, from its own formula and an
    exactly rounded sum, so that each checks the other.
    """
    _check_schema(query, target)
    pairs = zip(query.param_values, target.param_values)
    d_sum = math.fsum(abs(a - b) / max(a, b) if a or b else 0.0 for a, b in pairs)
    return d_sum * (1.0 + (cfg or ProbeConfig()).delta)


def compare(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> ComparisonResult:
    """Full comparison: w* in closed form, D and K, K split over parameters.

    Each parameter's increment is its ratio dissimilarity
    d_p = |q_p - t_p| / max(q_p, t_p) times (1 + delta), so the increments
    sum to the reported k_cont up to rounding.
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
    k_cont, w_star, d_sums, ds = _closed_form(query.param_values, columns, delta)
    d = _counts(d_sums, delta)
    incs = zip(*_increment_columns(ds, delta))
    return [
        ComparisonResult(query.name, t.name, delta, w, n, n * delta, k, dict(zip(names, row)))
        for t, w, n, k, row in zip(targets, w_star, d, k_cont, incs)
    ]
