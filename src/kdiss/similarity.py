"""Per-parameter similarity matrices and their weighted blend.

The building block is the ratio similarity ``r(a, b) = min(a, b) / max(a, b)``
for non-negative values: 1 for identical values, 0 when exactly one value is
zero, scale-invariant in between.  A set of objects sharing a parameter schema
induces one similarity matrix per parameter; a weighted entrywise mean of
those matrices gives a single matrix for the whole pattern.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import _HOMES
from .errors import DomainError, SchemaError
from .kernel import ObjectRecord, r_similarity

__all__ = _HOMES["similarity"]

_ENTRY_TOL = 1e-9


class _MatrixFields(NamedTuple):
    labels: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]


class SimilarityMatrix(_MatrixFields):
    """Dense symmetric matrix of pairwise similarities in [0, 1], unit diagonal.

    ``entries`` is a tuple of row tuples, read as ``entries[i][j]``; any
    nested sequence of numbers, an ndarray included, is accepted and converted.
    """

    __slots__ = ()

    def __new__(cls, labels: Sequence[str], entries: Sequence[Sequence[float]]):
        labels = tuple(labels)
        n = len(labels)
        try:
            m = tuple(tuple(map(float, row)) for row in entries)
        except TypeError:  # not a sequence of rows, so not (n, n) either
            m = None
        if m is None or len(m) != n or any(len(row) != n for row in m):
            shape = (len(m), *sorted({len(row) for row in m})) if m is not None else (len(entries),)
            raise SchemaError(f"matrix shape {shape} does not match {n} labels")
        if len(set(labels)) != n:
            raise SchemaError("matrix labels are not unique")
        # x == y lets equal infinities through to the range check
        if not all(abs(m[i][j] - m[j][i]) <= _ENTRY_TOL or m[i][j] == m[j][i] for i in range(n) for j in range(i)):
            raise DomainError("matrix is not symmetric")
        if any(x < -_ENTRY_TOL or x > 1.0 + _ENTRY_TOL for row in m for x in row):
            raise DomainError("matrix entries outside [0, 1]")
        if not all(abs(m[i][i] - 1.0) <= _ENTRY_TOL for i in range(n)):
            raise DomainError("matrix diagonal is not 1")
        return super().__new__(cls, labels, m)

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, label_a: str, label_b: str) -> float:
        return self.entries[self.labels.index(label_a)][self.labels.index(label_b)]


class _ParameterFields(NamedTuple):
    base_params: tuple[tuple[str, float], ...]


class WeightedParameterSet(_ParameterFields):
    """Ordered parameter names with positive weights.

    Weights are continuous: growing one parameter's weight is equivalent to
    giving it that many copies in an entrywise mean, without materializing
    the copies.
    """

    __slots__ = ()

    def __new__(cls, base_params: Iterable[tuple[str, float]]):
        base_params = tuple(base_params)
        names = [p for p, _ in base_params]
        if len(set(names)) != len(names):
            raise SchemaError("parameter set has duplicate names")
        for pname, weight in base_params:
            if not math.isfinite(weight) or weight <= 0:
                raise DomainError(f"parameter {pname!r}: weight must be positive and finite, got {weight!r}")
        return super().__new__(cls, base_params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.base_params)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(float(w) for _, w in self.base_params)

    @classmethod
    def uniform(cls, names: Iterable[str]) -> "WeightedParameterSet":
        return cls(tuple((n, 1.0) for n in names))


def _check_schema(objects: Sequence[ObjectRecord]) -> tuple[str, ...]:
    if len(objects) < 2:
        raise SchemaError("need at least two objects")
    names = [o.name for o in objects]
    if len(set(names)) != len(names):
        raise SchemaError("object names are not unique")
    schema = objects[0].param_names
    for o in objects[1:]:
        if o.param_names != schema:
            raise SchemaError(f"object {o.name!r} parameter schema differs from {objects[0].name!r}")
    return schema


def parameter_matrix(objects: Sequence[ObjectRecord], param_name: str) -> SimilarityMatrix:
    """Similarity matrix induced by a single parameter across objects."""
    schema = _check_schema(objects)
    if param_name not in schema:
        raise SchemaError(f"parameter {param_name!r} not present in the shared schema")
    vals = [o.value_of(param_name) for o in objects]
    return SimilarityMatrix(tuple(o.name for o in objects), [[r_similarity(a, b) for b in vals] for a in vals])


def blend(matrices: Sequence[SimilarityMatrix], weights: Sequence[float]) -> SimilarityMatrix:
    """Entrywise weighted arithmetic mean of similarity matrices.

    All matrices must share labels in the same order; weights must be
    positive.  The result is a convex combination, so every entry stays
    between the per-parameter extremes.  Each entry is the exactly rounded
    sum of its weighted terms (math.fsum) over the exactly rounded weight
    total.
    """
    if len(matrices) == 0:
        raise SchemaError("need at least one matrix")
    if len(matrices) != len(weights):
        raise SchemaError(f"{len(matrices)} matrices vs {len(weights)} weights")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise SchemaError("matrix labels differ")
    w = [float(x) for x in weights]
    if not all(math.isfinite(x) and x > 0 for x in w):
        raise DomainError("weights must be positive and finite")
    total, n = math.fsum(w), len(labels)
    mixed = [
        [1.0 if i == j else math.fsum([wk * m.entries[i][j] for wk, m in zip(w, matrices)]) / total for j in range(n)]
        for i in range(n)
    ]
    return SimilarityMatrix(labels, mixed)


def blend_from_objects(objects: Sequence[ObjectRecord], param_set: WeightedParameterSet) -> SimilarityMatrix:
    """Blend of single-parameter matrices taken in param_set order."""
    _check_schema(objects)
    mats = [parameter_matrix(objects, pname) for pname in param_set.names]
    return blend(mats, param_set.weights)
