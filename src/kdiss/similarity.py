"""Per-parameter similarity matrices and their weighted blend.

The building block is the ratio similarity ``r(a, b) = min(a, b) / max(a, b)``
for non-negative values: 1 for identical values, 0 when exactly one value is
zero, scale-invariant in between.  A set of objects sharing a parameter schema
induces one similarity matrix per parameter; a weighted entrywise mean of
those matrices gives a single matrix for the whole pattern.  ObjectRecord
and r_similarity live in the numpy-free kdiss.kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SchemaError
from .kernel import ObjectRecord, r_similarity  # their numpy-free home

__all__ = [
    "ObjectRecord",
    "SimilarityMatrix",
    "WeightedParameterSet",
    "r_similarity",
    "parameter_matrix",
    "blend",
    "blend_from_objects",
]

_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityMatrix:
    """Dense symmetric matrix of pairwise similarities in [0, 1], unit diagonal."""

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        n = len(self.labels)
        if m.shape != (n, n):
            raise SchemaError(f"matrix shape {m.shape} does not match {n} labels")
        if len(set(self.labels)) != n:
            raise SchemaError("matrix labels are not unique")
        if not np.allclose(m, m.T, atol=_ENTRY_TOL, rtol=0.0):
            raise DomainError("matrix is not symmetric")
        if np.any(m < -_ENTRY_TOL) or np.any(m > 1.0 + _ENTRY_TOL):
            raise DomainError("matrix entries outside [0, 1]")
        if not np.allclose(np.diag(m), 1.0, atol=_ENTRY_TOL, rtol=0.0):
            raise DomainError("matrix diagonal is not 1")

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, label_a: str, label_b: str) -> float:
        i = self.labels.index(label_a)
        j = self.labels.index(label_b)
        return float(self.entries[i, j])


@dataclass(frozen=True)
class WeightedParameterSet:
    """Ordered parameter names with positive weights.

    Weights are continuous: growing one parameter's weight is equivalent to
    giving it that many copies in an entrywise mean, without materializing
    the copies.
    """

    base_params: tuple[tuple[str, float], ...]

    def __post_init__(self):
        names = [p for p, _ in self.base_params]
        if len(set(names)) != len(names):
            raise SchemaError("parameter set has duplicate names")
        for pname, weight in self.base_params:
            if not np.isfinite(weight) or weight <= 0:
                raise DomainError(f"parameter {pname!r}: weight must be positive and finite, got {weight!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.base_params)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.base_params], dtype=float)

    @classmethod
    def uniform(cls, names: Iterable[str]) -> "WeightedParameterSet":
        return cls(tuple((n, 1.0) for n in names))


def _r_similarity_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    out = np.ones_like(hi)
    nz = hi > 0
    out[nz] = lo[nz] / hi[nz]
    return out


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
    vals = np.array([o.value_of(param_name) for o in objects], dtype=float)
    m = _r_similarity_array(vals[:, None], vals[None, :])
    np.fill_diagonal(m, 1.0)
    return SimilarityMatrix(tuple(o.name for o in objects), m)


def blend(matrices: Sequence[SimilarityMatrix], weights: Sequence[float]) -> SimilarityMatrix:
    """Entrywise weighted arithmetic mean of similarity matrices.

    All matrices must share labels in the same order; weights must be
    positive.  The result is a convex combination, so every entry stays
    between the per-parameter extremes.
    """
    if len(matrices) == 0:
        raise SchemaError("need at least one matrix")
    if len(matrices) != len(weights):
        raise SchemaError(f"{len(matrices)} matrices vs {len(weights)} weights")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise SchemaError("matrix labels differ")
    w = np.array(weights, dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise DomainError("weights must be positive and finite")
    stack = np.stack([m.entries for m in matrices])
    mixed = np.tensordot(w, stack, axes=1) / w.sum()
    np.fill_diagonal(mixed, 1.0)
    return SimilarityMatrix(labels, mixed)


def blend_from_objects(objects: Sequence[ObjectRecord], param_set: WeightedParameterSet) -> SimilarityMatrix:
    """Blend of single-parameter matrices taken in param_set order."""
    schema = _check_schema(objects)
    for pname in param_set.names:
        if pname not in schema:
            raise SchemaError(f"parameter {pname!r} not present in the shared schema")
    mats = [parameter_matrix(objects, pname) for pname in param_set.names]
    return blend(mats, param_set.weights)
