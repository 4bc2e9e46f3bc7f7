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
"anchor-target entry >= clone-clone entry", so w* = (P - sum r) * (1 +
delta) / delta in closed form.  compare, batch_compare and closed_form_k
evaluate it in kdiss.kernel, without numpy; this module re-exports them,
and IncrementStore from kdiss.store.  It keeps the paper's mechanism, on
numpy, as the oracle the closed form must agree with: grouped_with_target
(one evaluation of the grouping predicate) and switch_weight (exponential
bracketing plus bisection on that monotone predicate).
"""

from __future__ import annotations

import math
from typing import Sequence

from .averaging import AveragingConfig, _polarize3, bipartition
from .errors import DegenerateSymmetryError, DomainError, NonPolarizedError, NotSwitchedError
from .kernel import ComparisonResult, ObjectRecord, ProbeConfig, batch_compare, closed_form_k, compare
from .kernel import _check_schema, _clone_similarity, _ratio_sims, _sum8
from .similarity import WeightedParameterSet, blend_from_objects
from .store import IncrementStore  # its old home; the store itself needs no numpy

__all__ = [
    "ProbeConfig",
    "ComparisonResult",
    "grouped_with_target",
    "switch_weight",
    "closed_form_k",
    "compare",
    "batch_compare",
    "IncrementStore",
]

ANCHOR_LABEL = "clone-a"
OFFSET_LABEL = "clone-b"
TARGET_LABEL = "target"

_WEIGHT_FLOOR = 1e-30
_BRACKET_STEP = 16.0
_MAX_WEIGHT = 1e12  # the bracketing search gives up above this weight
_WEIGHT_TOL = 1e-12  # relative bracket width at which the bisection stops
_AVERAGING = AveragingConfig(max_iterations=500)


class _ProbeProblem:
    """Precomputed per-pair state so each weight evaluation is O(1)."""

    def __init__(self, query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig):
        _check_schema(query, target)
        self.delta = cfg.delta
        self.n_params = len(query.param_names)
        self.base_sum = _sum8(_ratio_sims(query.param_values, target.param_values))
        # the clones' probe similarity; anchor and target share probe value 1
        self.sim_ab = _clone_similarity(cfg.delta)

    def entries(self, weight: float) -> tuple[float, float, float]:
        """Blended entries (anchor-offset, anchor-target, offset-target)."""
        total = self.n_params + weight
        u = (self.n_params + weight * self.sim_ab) / total
        x = (self.base_sum + weight) / total
        y = (self.base_sum + weight * self.sim_ab) / total
        return u, x, y

    def anchor_with_target(self, weight: float) -> bool:
        u, x, y = self.entries(weight)
        try:
            winner, _ = _polarize3(u, x, y, _AVERAGING.max_iterations)
        except NonPolarizedError:
            winner = None
        if winner is not None:
            return winner == 1
        # decisive entries tied: the switch fires at equality
        return x >= u


def _probe_param_name(schema: Sequence[str]) -> str:
    name = "_probe"
    while name in schema:
        name += "_"
    return name


def grouped_with_target(
    query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig, weight: float
) -> bool:
    """True when the anchor clone lands in the target's group at this weight.

    Builds the three probe-extended records, blends their matrix with unit
    base weights and the probe at ``weight``, and splits it by iterative
    averaging.  A tie of the decisive entries counts as switched.  This is
    the paper's mechanism, kept as the oracle for the closed form.
    """
    if not (math.isfinite(weight) and weight > 0):
        raise DomainError(f"weight must be positive and finite, got {weight!r}")
    _check_schema(query, target)
    probe_name = _probe_param_name(query.param_names)
    records = [
        query.with_param(probe_name, 1.0, name=ANCHOR_LABEL),
        query.with_param(probe_name, 1.0 + cfg.delta, name=OFFSET_LABEL),
        target.with_param(probe_name, 1.0, name=TARGET_LABEL),
    ]
    pset = WeightedParameterSet(
        tuple((p, 1.0) for p in query.param_names) + ((probe_name, float(weight)),)
    )
    matrix = blend_from_objects(records, pset)
    try:
        parts = bipartition(matrix, _AVERAGING)
    except (DegenerateSymmetryError, NonPolarizedError):
        return matrix.entry(ANCHOR_LABEL, TARGET_LABEL) >= matrix.entry(ANCHOR_LABEL, OFFSET_LABEL)
    return parts.together(ANCHOR_LABEL, TARGET_LABEL)


def _search_switch(problem: _ProbeProblem) -> float:
    if problem.anchor_with_target(1.0):
        hi = 1.0
        w = 1.0
        while True:
            w /= _BRACKET_STEP
            if w < _WEIGHT_FLOOR:
                return 0.0
            if problem.anchor_with_target(w):
                hi = w
            else:
                lo = w
                break
    else:
        lo = 1.0
        w = 1.0
        while True:
            w *= _BRACKET_STEP
            if w > _MAX_WEIGHT:
                raise NotSwitchedError(
                    f"no switch up to weight {_MAX_WEIGHT:g} "
                    f"(delta={problem.delta:g} may be too small for this pair)"
                )
            if problem.anchor_with_target(w):
                hi = w
                break
            lo = w
    while hi - lo > _WEIGHT_TOL * hi:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if problem.anchor_with_target(mid):
            hi = mid
        else:
            lo = mid
    # snap onto an integer boundary inside the final bracket: when the true
    # switch weight is a whole number, ceil(hi) would otherwise overshoot
    # the multiplication count by one
    candidate = float(math.floor(hi))
    if lo < candidate < hi and problem.anchor_with_target(candidate):
        hi = candidate
    return hi


def switch_weight(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> float:
    """Smallest probe weight at which the anchor clone regroups with the target.

    The paper's search, kept as the oracle for the closed form: the
    grouping predicate is monotone in the weight, so the minimum is located
    by exponential bracketing and bisection down to a relative width of
    1e-12.  Returns 0.0 when the target is indistinguishable from the query
    (the predicate holds at arbitrarily small weights).  Raises
    NotSwitchedError if the predicate is still false at weight 1e12; it is
    the only function that can.
    """
    cfg = cfg or ProbeConfig()
    return _search_switch(_ProbeProblem(query, target, cfg))
