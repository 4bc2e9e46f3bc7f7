"""Iterative averaging of a similarity matrix and two-group extraction.

Each sweep replaces entry (i, j) with the mean coordinatewise agreement of
rows i and j, where two coordinates x, y in [0, 1] agree to degree
``1 - |x - y|``.  Rows include the unit diagonal, so the direct similarity
m[i][j] enters twice per comparison; the diagonal is reset to 1 after every
sweep.  Sweeps drive the matrix toward a two-block form: within-group
entries rise toward 1, cross-group entries fall away from them, and any
exact {0,1} two-block matrix is a fixed point.

For three objects the dynamics are exactly tractable in the dissimilarities
d = 1 - s: writing the off-diagonal ones as a, b, c, one sweep maps a to
(2a + |b - c|) / 3 and cyclically for b, c.  The gap between the smallest
entry and the runner-up is preserved by every sweep while the gap between
the two larger entries contracts by a factor of 3.  The split that groups
the initially closest pair is therefore final as soon as the lower gap
strictly exceeds the upper gap, and bipartition stops right there instead of
iterating to the fixed point, which matters when the two closest pairs are
nearly tied.  The probe mechanism splits exactly three objects, so
bipartition takes 2 or 3.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _HOMES
from .errors import DegenerateSymmetryError, DomainError, NonPolarizedError, SchemaError
from .similarity import SimilarityMatrix

__all__ = _HOMES["averaging"]


class _AveragingFields(NamedTuple):
    max_iterations: int


class AveragingConfig(_AveragingFields):
    """The sweep limit of bipartition.

    bipartition stops on its own provably-final criterion and raises
    NonPolarizedError if that takes more than max_iterations sweeps.
    """

    __slots__ = ()

    def __new__(cls, max_iterations: int = 200):
        if max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        return super().__new__(cls, max_iterations)


class Bipartition(NamedTuple):
    """Two disjoint, non-empty groups jointly exhausting the labels."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    iterations_used: int

    def together(self, label_x: str, label_y: str) -> bool:
        return (label_x in self.group_a and label_y in self.group_a) or (
            label_x in self.group_b and label_y in self.group_b
        )


def average_once(m: SimilarityMatrix) -> SimilarityMatrix:
    """One averaging sweep: rows compared coordinatewise, diagonal reset to 1.

    Each mean is an exactly rounded sum, so entry (i, j) equals entry (j, i).
    """
    if m.size < 2:
        raise SchemaError("need at least two objects")
    e, n = m.entries, m.size
    new = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            new[i][j] = new[j][i] = 1.0 - math.fsum([abs(a - b) for a, b in zip(e[i], e[j])]) / n
    return SimilarityMatrix(m.labels, new)


def _polarize3(a: float, b: float, c: float, max_iterations: int) -> tuple[int | None, int]:
    """Run 3-object sweeps on the dissimilarities a, b, c until the split is final.

    Returns (winner, sweeps) where winner indexes the grouped pair in the
    order (0,1), (0,2), (1,2), or (None, sweeps) for a degenerate tie of the
    two smallest entries (which provably averages out to a uniform matrix).
    Raises NonPolarizedError if max_iterations is hit first.
    """
    sweeps = 0
    while True:
        if sweeps >= max_iterations:
            raise NonPolarizedError(f"no stable two-group split after {sweeps} sweeps")
        a, b, c = (2.0 * a + abs(b - c)) / 3.0, (2.0 * b + abs(a - c)) / 3.0, (2.0 * c + abs(a - b)) / 3.0
        sweeps += 1
        d0, d1, d2 = sorted((a, b, c))
        if d0 == d1:
            return None, sweeps
        if d1 - d0 > d2 - d1:
            vals = (a, b, c)
            return vals.index(d0), sweeps


def _split3(labels: tuple[str, ...], pair_index: int, sweeps: int) -> Bipartition:
    """The split of three objects that groups pair (0, 1), (0, 2) or (1, 2) by
    pair_index, object 0's group first."""
    lone = 2 - pair_index
    pair = frozenset(label for i, label in enumerate(labels) if i != lone)
    if lone == 0:
        return Bipartition(frozenset({labels[0]}), pair, sweeps)
    return Bipartition(pair, frozenset({labels[lone]}), sweeps)


def bipartition(m: SimilarityMatrix, cfg: AveragingConfig | None = None) -> Bipartition:
    """Split two objects apart, or average three until their split is final.

    Raises SchemaError for any other object count, DegenerateSymmetryError
    when the decisive entries are tied (the matrix averages toward
    uniformity, e.g. equal off-diagonal everywhere) and NonPolarizedError
    when the split is not final after max_iterations sweeps.
    """
    cfg = cfg or AveragingConfig()
    n, labels = m.size, m.labels
    if n < 2:
        raise SchemaError("need at least two objects")
    if n > 3:
        raise SchemaError(f"bipartition splits two or three objects, got {n}")
    if n == 2:
        return Bipartition(frozenset({labels[0]}), frozenset({labels[1]}), 0)

    e = m.entries
    a, b, c = e[0][1], e[0][2], e[1][2]
    if a == b == c:
        raise DegenerateSymmetryError("all off-diagonal entries are equal; no gap to split on")
    winner, sweeps = _polarize3(1.0 - a, 1.0 - b, 1.0 - c, cfg.max_iterations)
    if winner is None:
        raise DegenerateSymmetryError("two leading entries are exactly tied")
    return _split3(labels, winner, sweeps)


def pair_max_split(m: SimilarityMatrix) -> Bipartition:
    """Independent 3-object oracle: group the pair with the strictly largest entry.

    The iterative route must agree with this on every non-degenerate 3x3
    matrix; ties of the maximum raise DegenerateSymmetryError just as the
    iterative route does.
    """
    if m.size != 3:
        raise SchemaError("pair_max_split is defined for exactly three objects")
    e = m.entries
    vals = [e[0][1], e[0][2], e[1][2]]
    order = sorted(range(3), key=lambda k: vals[k])
    if vals[order[2]] == vals[order[1]]:
        raise DegenerateSymmetryError("maximum off-diagonal entry is tied")
    return _split3(m.labels, order[2], 0)
