"""Clone-probe dissimilarity: how much weight moves a query's clone to a target.

The mechanism compares a query pattern Q to a target T by building two
clones of Q that differ only in one appended probe parameter (values 1 and
1 + delta; every other object carries probe value 1).  With the probe at
weight w, the blended similarity matrix of the three objects is averaged
into two groups.  At small w the clones group together; growing w past a
critical value w* flips the anchor clone onto the target's side.  The
integer number of unit weight steps D = ceil(w*) is the dissimilarity
count, and K = D * delta is stable across delta, which makes tiny deltas
act as a sensitivity dial rather than a noise source.

With three objects and mean blending the split reduces to one test,
"anchor-target entry >= clone-clone entry", so w* = G * (1 + delta) / delta
in closed form, with G the sum of the ratio dissimilarities
|q - t| / max(q, t), which kdiss.kernel evaluates.  This module
keeps the paper's mechanism as the oracle the closed form must agree with:
grouped_with_target (one evaluation of the grouping predicate) and
switch_weight (bisection on a log scale between 1e-30 and 1e12 on that
monotone predicate).  Both run one predicate, which takes the three blended
entries of the probe records in O(P) and averages them with the 3-object
sweep of kdiss.averaging.  The tests build the same entries from the probe
records, with kdiss.similarity's blend and kdiss.averaging's bipartition, and
check that the two agree bit for bit.
"""

from __future__ import annotations

import math

from . import _HOMES
from .averaging import _polarize3
from .errors import DomainError, NonPolarizedError, NotSwitchedError
from .kernel import ObjectRecord, ProbeConfig, _check_schema, _counts, _d_column, r_similarity

# not public here (see __all__); bench/child.py and bench/spans.py import these two from this module
from .kernel import ComparisonResult
from .store import IncrementStore

__all__ = _HOMES["dissimilarity"]

_WEIGHT_FLOOR = 1e-30
_MAX_WEIGHT = 1e12  # the search gives up above this weight
_WEIGHT_TOL = 1e-12  # relative width at which the bisection stops
_MAX_SWEEPS = 500  # the averaging gives up above this many sweeps


class _ProbeProblem:
    """Per-pair state of the grouping predicate.  Each entry is the probe records' blend
    entry, bit for bit (a tier-1 test builds that blend to check it): the math.fsum of
    the similarities and the probe term over the weight total, O(P) per weight."""

    def __init__(self, query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig):
        _check_schema(query, target)
        self.delta = cfg.delta
        self.n_params = len(query.param_names)
        self.sims = list(map(r_similarity, query.param_values, target.param_values))
        # the engine's dissimilarity sum G, each value a one-row column, so that the snap and D share one gap
        self.gap = math.fsum(d for (d,) in map(_d_column, query.param_values, zip(target.param_values)))
        # the ratio similarity of the clones' probe values 1 and 1 + delta;
        # anchor and target share probe value 1
        self.sim_ab = 1.0 / (1.0 + cfg.delta)

    def entries(self, weight: float) -> tuple[float, float, float]:
        """Blended entries (anchor-offset, anchor-target, offset-target)."""
        total = self.n_params + weight
        u = (self.n_params + weight * self.sim_ab) / total
        x = math.fsum([*self.sims, weight]) / total
        y = math.fsum([*self.sims, weight * self.sim_ab]) / total
        return u, x, y

    def anchor_with_target(self, weight: float) -> bool:
        u, x, y = self.entries(weight)
        try:
            winner, _ = _polarize3(u, x, y, _MAX_SWEEPS)
        except NonPolarizedError:
            winner = None
        if winner is not None:
            return winner == 1
        # decisive entries tied: the switch fires at equality
        return x >= u


def grouped_with_target(
    query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig, weight: float
) -> bool:
    """True when the anchor clone lands in the target's group at this weight.

    The entries of the three probe records' blend, with unit base weights
    and the probe at ``weight``, split by iterative averaging.  A tie of
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
    on grouped_with_target's predicate, which the tests hold to the probe
    records' blend and bipartition bit for bit.  The grouping predicate is
    monotone in the weight, so the minimum is located
    by bisection on a log scale between 1e-30 and 1e12, down to a relative
    width of 1e-12; the exact count D, at or above which a whole weight
    switches, settles its ceiling.  The float predicate resolves the
    weight to about 2.2e-16 / delta relative, so max(1, ceil) is D only
    while that is below one unit step (tested: delta 1e-6 to 0.1, up to 34
    parameters).  Returns 0.0 when the predicate holds at weight 1e-30 (a
    target indistinguishable from the query).  Raises NotSwitchedError if
    the predicate is still false at weight 1e12; it is the only function
    that can.
    """
    cfg = cfg or ProbeConfig()
    return _search_switch(_ProbeProblem(query, target, cfg))
