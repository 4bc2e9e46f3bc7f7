"""Iterative averaging of a similarity matrix and two-group extraction.

Each sweep replaces entry (i, j) with the mean coordinatewise agreement of
rows i and j, where two coordinates x, y in [0, 1] agree to degree
``1 - |x - y|``.  Rows include the unit diagonal, so the direct similarity
m[i][j] enters twice per comparison; the diagonal is reset to 1 after every
sweep.  Sweeps drive the matrix toward a two-block form: within-group
entries rise toward 1, cross-group entries fall away from them, and any
exact {0,1} two-block matrix is a fixed point.

For three objects the dynamics are exactly tractable: writing the
off-diagonal entries as a, b, c, one sweep maps a to (2a + 1 - |b - c|) / 3
and cyclically for b, c.  The gap between the largest entry and the runner-up
is preserved by every sweep while the gap between the two smaller entries
contracts by a factor of 3.  The split that groups the initially closest
pair is therefore final as soon as the top gap strictly exceeds the lower
gap, and the 3-object path stops right there instead of iterating to the
fixed point, which matters when the two leading entries are nearly tied.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateSymmetryError, DomainError, NonPolarizedError, SchemaError
from .similarity import SimilarityMatrix

__all__ = [
    "AveragingConfig",
    "Bipartition",
    "average_once",
    "bipartition",
    "pair_max_split",
]

# the general (n > 3) loop stops once no entry moves by more than this in a sweep
_CONVERGENCE_TOL = 1e-9


class _AveragingFields(NamedTuple):
    max_iterations: int


class AveragingConfig(_AveragingFields):
    """The sweep limit of the averaging loop.

    The 3-object path stops on its own provably-final criterion and raises
    NonPolarizedError after max_iterations sweeps; the general loop stops at
    _CONVERGENCE_TOL or after max_iterations sweeps, whichever comes first.
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
    converged: bool = True

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
    """Run 3-object sweeps until the split is final.

    Returns (winner, sweeps) where winner indexes the grouped pair in the
    order (0,1), (0,2), (1,2), or (None, sweeps) for a degenerate tie of the
    two leading entries (which provably averages out to a uniform matrix).
    Raises NonPolarizedError if max_iterations is hit first.
    """
    sweeps = 0
    while True:
        if sweeps >= max_iterations:
            raise NonPolarizedError(f"no stable two-group split after {sweeps} sweeps")
        a, b, c = (
            (2.0 * a + 1.0 - abs(b - c)) / 3.0,
            (2.0 * b + 1.0 - abs(a - c)) / 3.0,
            (2.0 * c + 1.0 - abs(a - b)) / 3.0,
        )
        sweeps += 1
        v0, v1, v2 = sorted((a, b, c))
        if v2 == v1:
            return None, sweeps
        if v2 - v1 > v1 - v0:
            vals = (a, b, c)
            return vals.index(max(vals)), sweeps


def _offdiagonal(m: tuple[tuple[float, ...], ...]) -> list[float]:
    """The entries above the diagonal, row by row."""
    return [x for i, row in enumerate(m) for x in row[i + 1 :]]


def _split_offdiagonal(
    m: tuple[tuple[float, ...], ...], labels: tuple[str, ...]
) -> tuple[frozenset[str], frozenset[str]]:
    """Largest-gap threshold on off-diagonal entries, then connected components."""
    n = len(labels)
    vals = sorted(_offdiagonal(m))
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if not gaps or max(gaps) <= 0:
        raise DegenerateSymmetryError("all off-diagonal entries are equal; no gap to split on")
    cut = gaps.index(max(gaps))
    threshold = 0.5 * (vals[cut] + vals[cut + 1])

    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if (u == v or m[u][v] >= threshold) and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(comp)
    if len(components) != 2:
        raise NonPolarizedError(f"converged matrix has {len(components)} groups, expected 2")
    first, second = components
    if 0 in second:
        first, second = second, first
    return frozenset(labels[i] for i in first), frozenset(labels[i] for i in second)


def bipartition(m: SimilarityMatrix, cfg: AveragingConfig | None = None) -> Bipartition:
    """Average until the matrix polarizes, then split into two groups.

    Raises DegenerateSymmetryError when the decisive entries are tied (the
    matrix averages toward uniformity, e.g. equal off-diagonal everywhere)
    and NonPolarizedError when the converged matrix does not separate into
    exactly two connected groups.
    """
    cfg = cfg or AveragingConfig()
    n = m.size
    if n < 2:
        raise SchemaError("need at least two objects")
    labels = m.labels
    if n == 2:
        return Bipartition(frozenset({labels[0]}), frozenset({labels[1]}), 0)

    e = m.entries
    off = _offdiagonal(e)
    if all(x == off[0] for x in off):
        raise DegenerateSymmetryError("all off-diagonal entries are equal; no gap to split on")

    if n == 3:
        a, b, c = e[0][1], e[0][2], e[1][2]
        winner, sweeps = _polarize3(a, b, c, cfg.max_iterations)
        if winner is None:
            raise DegenerateSymmetryError("two leading entries are exactly tied")
        pair = ((0, 1), (0, 2), (1, 2))[winner]
        lone = ({0, 1, 2} - set(pair)).pop()
        group_pair = frozenset(labels[i] for i in pair)
        group_lone = frozenset({labels[lone]})
        if 0 in pair:
            return Bipartition(group_pair, group_lone, sweeps)
        return Bipartition(group_lone, group_pair, sweeps)

    current = m
    converged = False
    sweeps = 0
    for _ in range(cfg.max_iterations):
        nxt = average_once(current)
        sweeps += 1
        delta = max(abs(x - y) for new, old in zip(nxt.entries, current.entries) for x, y in zip(new, old))
        current = nxt
        if delta <= _CONVERGENCE_TOL:
            converged = True
            break
    group_a, group_b = _split_offdiagonal(current.entries, labels)
    return Bipartition(group_a, group_b, sweeps, converged)


def pair_max_split(m: SimilarityMatrix) -> Bipartition:
    """Independent 3-object oracle: group the pair with the strictly largest entry.

    The iterative route must agree with this on every non-degenerate 3x3
    matrix; ties of the maximum raise DegenerateSymmetryError just as the
    iterative route does.
    """
    if m.size != 3:
        raise SchemaError("pair_max_split is defined for exactly three objects")
    e = m.entries
    pairs = ((0, 1), (0, 2), (1, 2))
    vals = [e[i][j] for i, j in pairs]
    order = sorted(range(3), key=lambda k: vals[k])
    if vals[order[2]] == vals[order[1]]:
        raise DegenerateSymmetryError("maximum off-diagonal entry is tied")
    i, j = pairs[order[2]]
    lone = ({0, 1, 2} - {i, j}).pop()
    labels = m.labels
    if lone == 0:
        return Bipartition(frozenset({labels[0]}), frozenset({labels[i], labels[j]}), 0)
    return Bipartition(frozenset({labels[i], labels[j]}), frozenset({labels[lone]}), 0)
