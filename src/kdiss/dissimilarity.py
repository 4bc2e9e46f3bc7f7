"""Clone-probe dissimilarity: how much weight moves a query's clone to a target.

The mechanism compares a query pattern Q to a target T by building two
clones of Q that differ only in one appended probe parameter (values 1 and
1 + delta; every other object carries probe value 1).  With the probe at
weight w, the blended dissimilarity matrix of the three objects is averaged
into two groups.  At small w the clones group together; growing w past a
critical value w* flips the anchor clone onto the target's side.  The
integer number of unit weight steps D = ceil(w*) is the dissimilarity
count, and K = D * delta is stable across delta, which makes tiny deltas
act as a sensitivity dial rather than a noise source.

With three objects and mean blending the split reduces to one test,
"anchor-target entry <= clone-clone entry", so w* = G * (1 + delta) / delta
in closed form, with G the sum of the ratio dissimilarities
|q - t| / max(q, t), which kdiss.kernel evaluates.  This module
keeps the paper's mechanism as the oracle the closed form must agree with:
grouped_with_target (one evaluation of the grouping predicate) and
switch_weight (bisection on a log scale between 1e-30 and 1e12 on that
monotone predicate).  Both run one predicate, which takes the three blended
entries of the probe records in O(P) and averages them with the 3-object
sweep of kdiss.averaging.  The entries are ratio dissimilarities, the
engine's coordinate: they keep delta's digits, which entries near 1 would
lose to cancellation, so the search agrees with the closed form at every
w* up to its cap.  The tests build the same entries from the probe
records' values and check that the two agree bit for bit.
"""

from __future__ import annotations

import math

from . import _HOMES
from .averaging import _polarize3
from .errors import DomainError, NonPolarizedError, NotSwitchedError
from .kernel import ObjectRecord, ProbeConfig, _check_schema, _counts, _d_column

# not public here (see __all__); bench/child.py and bench/spans.py import these two from this module
from .kernel import ComparisonResult
from .store import IncrementStore

__all__ = _HOMES["dissimilarity"]

_WEIGHT_FLOOR = 1e-30
_MAX_WEIGHT = 1e12  # the search gives up above this weight
_WEIGHT_TOL = 1e-12  # relative width at which the bisection stops
_MAX_SWEEPS = 500  # the averaging gives up above this many sweeps


class _ProbeProblem:
    """Per-pair state of the grouping predicate, in the engine's coordinate: the three
    probe records' blended ratio dissimilarities, each the math.fsum of the per-parameter
    d's and the probe term over the weight total, O(P) per weight (a tier-1 test builds
    the same entries from the records' values to check it)."""

    def __init__(self, query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig):
        _check_schema(query, target)
        self.delta = cfg.delta
        self.n_params = len(query.param_names)
        # the engine's d's, each value a one-row column, so that the entries, the snap and D share one gap
        self.ds = [d for (d,) in map(_d_column, query.param_values, zip(target.param_values))]
        self.gap = math.fsum(self.ds)
        # the ratio dissimilarity of the clones' probe values 1 and 1 + delta, taken from delta
        # and not from the rounded 1 + delta; anchor and target share probe value 1
        self.d_ab = cfg.delta / (1.0 + cfg.delta)

    def entries(self, weight: float) -> tuple[float, float, float]:
        """Blended dissimilarities (anchor-offset, anchor-target, offset-target)."""
        total = self.n_params + weight
        return weight * self.d_ab / total, self.gap / total, math.fsum([*self.ds, weight * self.d_ab]) / total

    def anchor_with_target(self, weight: float) -> bool:
        u, x, y = self.entries(weight)
        try:
            winner, _ = _polarize3(u, x, y, _MAX_SWEEPS)
        except NonPolarizedError:
            winner = None
        if winner is not None:
            return winner == 1
        # decisive entries tied: the switch fires at equality
        return x <= u


def grouped_with_target(
    query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig, weight: float
) -> bool:
    """True when the anchor clone lands in the target's group at this weight.

    The three probe records' blended ratio dissimilarities, with unit base
    weights and the probe at ``weight``, split by iterative averaging.  A tie of
    the decisive entries counts as switched.  This is the paper's
    mechanism, kept as the oracle for the closed form, and the predicate
    switch_weight bisects on.
    """
    if not (math.isfinite(weight) and weight > 0):
        raise DomainError(f"weight must be positive and finite, got {weight!r}")
    # a float, so that an int weight past 2**53 totals as a float blend weight does
    return _ProbeProblem(query, target, cfg).anchor_with_target(float(weight))


def _search_switch(problem: _ProbeProblem) -> float:
    lo, hi = _WEIGHT_FLOOR, _MAX_WEIGHT
    if problem.anchor_with_target(lo):
        return 0.0
    if not problem.anchor_with_target(hi):
        raise NotSwitchedError(
            f"no switch up to weight {_MAX_WEIGHT:g} "
            f"(delta={problem.delta:g} may be too small for this pair)"
        )
    while hi - lo > _WEIGHT_TOL * hi:
        mid = math.sqrt(lo * hi)
        if not (lo < mid < hi):
            break
        if problem.anchor_with_target(mid):
            hi = mid
        else:
            lo = mid
    # the predicate's rounding can leave hi a hair above a whole-number switch
    # weight or a hair below the whole number it exceeds, and ceil(hi) one count
    # off; a whole weight w >= 1 switches exactly when w >= D, the exact count
    whole, d = math.ceil(hi), _counts([problem.gap], problem.delta)[0]
    if d < whole:
        hi = float(whole - 1)
    elif whole < d:
        hi = math.nextafter(float(whole), math.inf)
    return hi


def switch_weight(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> float:
    """Smallest probe weight at which the anchor clone regroups with the target.

    The paper's search, kept as the oracle for the closed form: it bisects
    on grouped_with_target's predicate, which the tests hold bit for bit to
    the same entries built from the probe records' values.  The grouping
    predicate is monotone in the weight, so the minimum is located
    by bisection on a log scale between 1e-30 and 1e12, down to a relative
    width of 1e-12; the exact count D, at or above which a whole weight
    switches, settles its ceiling.  The predicate compares dissimilarities,
    which resolve the weight to a few ulps at every delta, so the result
    is w* to the bisection's width and max(1, ceil) is D for every
    w* <= 1e12 (tested: delta 1e-11 to 0.1, up to 70,000 parameters).
    Returns 0.0 when the predicate holds at weight 1e-30 (a target
    indistinguishable from the query).  Raises NotSwitchedError if the
    predicate is still false at weight 1e12; it is the only function that
    can.
    """
    cfg = cfg or ProbeConfig()
    return _search_switch(_ProbeProblem(query, target, cfg))
