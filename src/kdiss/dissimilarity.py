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
"anchor-target entry >= clone-clone entry", so w* has a closed form:
w* = (P - sum r) * (1 + delta) / delta over P parameters with ratio
similarities r.  compare, batch_compare and closed_form_k evaluate it for
one query against many targets in a single numpy pass.  The paper's
mechanism stays available as grouped_with_target (one evaluation of the
grouping predicate) and switch_weight (exponential bracketing plus
bisection on that monotone predicate); the tests run it as the oracle the
closed form must agree with.  K decomposes exactly into per-parameter
increments, which can be persisted in an append-only store and recombined
over any parameter subset.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .averaging import AveragingConfig, _polarize3, bipartition
from .errors import (
    DegenerateSymmetryError,
    DomainError,
    NonPolarizedError,
    NotSwitchedError,
    SchemaError,
    StoreLookupError,
    decode_utf8,
)
from .similarity import (
    ObjectRecord,
    WeightedParameterSet,
    _r_similarity_array,
    blend_from_objects,
)

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


@dataclass(frozen=True)
class ProbeConfig:
    """Probe delta, search bounds, and the averaging loop configuration.

    delta is the probe-value difference between the two clones.  The anchor
    clone and all plain objects carry probe value 1; the offset clone
    carries 1 + delta.  max_weight caps switch_weight's bracketing search
    and weight_tol is the relative width at which its bisection stops; the
    closed form behind compare uses neither.
    """

    delta: float = 1e-4
    max_weight: float = 1e12
    weight_tol: float = 1e-12
    averaging: AveragingConfig = field(default_factory=lambda: AveragingConfig(max_iterations=500))

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"delta must be positive and finite, got {self.delta!r}")
        if not (np.isfinite(self.max_weight) and self.max_weight > 0):
            raise DomainError("max_weight must be positive and finite")
        if not (np.isfinite(self.weight_tol) and self.weight_tol > 0):
            raise DomainError("weight_tol must be positive and finite")


@dataclass(frozen=True)
class ComparisonResult:
    """One query-target comparison: critical weight, counts, and increments.

    k_cont = w_star * delta; d = max(1, ceil(w_star)), except that an
    integral w_star gives d = w_star; k = d * delta.  The increments map
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


class _ProbeProblem:
    """Precomputed per-pair state so each weight evaluation is O(1)."""

    def __init__(self, query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig):
        _check_schema(query, target)
        self.cfg = cfg
        self.n_params = len(query.params)
        self.base_sum = float(np.sum(_r_similarity_array(query.values(), target.values())))
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
            winner, _ = _polarize3(u, x, y, self.cfg.averaging.max_iterations)
        except NonPolarizedError:
            winner = None
        if winner is not None:
            return winner == 1
        # decisive entries tied: the switch fires at equality
        return x >= u


def _check_schema(query: ObjectRecord, target: ObjectRecord) -> None:
    if query.param_names != target.param_names:
        raise SchemaError(
            f"query {query.name!r} and target {target.name!r} do not share a parameter schema"
        )
    if len(query.params) == 0:
        raise SchemaError("objects need at least one parameter")


def _clone_similarity(delta: float) -> float:
    """Ratio similarity of the clones' probe values 1 and 1 + delta."""
    return 1.0 / (1.0 + delta)


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
    if not (np.isfinite(weight) and weight > 0):
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
        parts = bipartition(matrix, cfg.averaging)
    except (DegenerateSymmetryError, NonPolarizedError):
        return matrix.entry(ANCHOR_LABEL, TARGET_LABEL) >= matrix.entry(ANCHOR_LABEL, OFFSET_LABEL)
    return parts.together(ANCHOR_LABEL, TARGET_LABEL)


def _search_switch(problem: _ProbeProblem) -> float:
    cfg = problem.cfg
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
            if w > cfg.max_weight:
                raise NotSwitchedError(
                    f"no switch up to weight {cfg.max_weight:g} "
                    f"(delta={cfg.delta:g} may be too small for this pair)"
                )
            if problem.anchor_with_target(w):
                hi = w
                break
            lo = w
    while hi - lo > cfg.weight_tol * hi:
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
    by exponential bracketing and bisection down to cfg.weight_tol relative
    width.  Returns 0.0 when the target is indistinguishable from the query
    (the predicate holds at arbitrarily small weights).  Raises
    NotSwitchedError if the predicate is still false at cfg.max_weight; it
    is the only function that can.
    """
    cfg = cfg or ProbeConfig()
    return _search_switch(_ProbeProblem(query, target, cfg))


class _Closed(NamedTuple):
    """Closed-form comparison of one query against N targets, row-aligned."""

    sim_sum: np.ndarray  # (N,) sum of per-parameter ratio similarities
    k_cont: np.ndarray  # (N,)
    w_star: np.ndarray  # (N,)
    d: np.ndarray  # (N,) whole-valued floats, >= 1
    increments: np.ndarray  # (N, P)


def _closed_form(query: np.ndarray, targets: np.ndarray, delta: float) -> _Closed:
    """Compare one query vector with every row of an (N, P) array in one pass.

    The switch test "anchor-target entry >= clone-clone entry" reads
    (S + w) / (P + w) >= (P + w * s) / (P + w) with S the similarity sum
    and s = 1 / (1 + delta), so w* = (P - S) * (1 + delta) / delta.  D is
    the smallest whole weight >= 1 that passes that same test, evaluated
    around ceil(w*) in the arithmetic of the search's predicate, so an
    integral w* gives D = w* exactly.  Increments split K_cont over the
    parameters in proportion to 1 - r.
    """
    sims = _r_similarity_array(query, targets)
    n_params = sims.shape[1]
    sim_sum = sims.sum(axis=1)
    k_cont = (n_params - sim_sum) * (1.0 + delta)
    with np.errstate(over="ignore"):
        w_star = k_cont / delta
    if not np.all(np.isfinite(w_star)):
        raise DomainError(f"delta={delta!r} is too small: the switch weight overflows")
    sim_ab = _clone_similarity(delta)

    def switched(w: np.ndarray) -> np.ndarray:
        total = n_params + w
        return (sim_sum + w) / total >= (n_params + w * sim_ab) / total

    n = np.maximum(np.ceil(w_star), 1.0)
    below = np.maximum(n - 1.0, 1.0)
    d = np.where(switched(below), below, np.where(switched(n), n, n + 1.0))
    shortfalls = 1.0 - sims
    total = shortfalls.sum(axis=1)
    scale = np.divide(k_cont, total, out=np.zeros_like(total), where=(total > 0.0) & (k_cont > 0.0))
    return _Closed(sim_sum, k_cont, w_star, d, shortfalls * scale[:, None])


def closed_form_k(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig | None = None) -> float:
    """Closed-form k_cont: (P - sum of ratio similarities) * (1 + delta).

    With mean blending over P unit base parameters plus the probe at weight
    w, the three-object split reduces to comparing the anchor-target entry
    against the clone-clone entry, and solving that inequality for w gives
    w* = P * (1 - S) * (1 + delta) / delta with S the mean per-parameter
    ratio similarity.
    """
    return compare(query, target, cfg).k_cont


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
    """compare() against every target, in input order, from one array pass.

    Each result is a function of (query, target, cfg) alone; the presence
    of other targets in the batch cannot change it.
    """
    delta = (cfg or ProbeConfig()).delta
    for target in targets:
        _check_schema(query, target)
    values = np.array([t.values() for t in targets]).reshape(len(targets), len(query.params))
    closed = _closed_form(query.values(), values, delta)
    names = query.param_names
    columns = (closed.w_star.tolist(), closed.d.tolist(), closed.k_cont.tolist(), closed.increments.tolist())
    return [
        ComparisonResult(query.name, t.name, delta, w_star, int(d), d * delta, k_cont, dict(zip(names, inc)))
        for t, w_star, d, k_cont, inc in zip(targets, *columns)
    ]


def _is_record(line: bytes) -> bool:
    """Whether one store line, newline excluded, holds five fields with both numbers valid."""
    try:
        _, _, delta, _, inc = line.decode("utf-8").split("\t")
        float(delta), float(inc)
    except ValueError:  # includes a decoding error and a wrong field count
        return False
    return True


class IncrementStore:
    """Persisted per-parameter K increments, recombinable by summation.

    File format (append-only, UTF-8, one record per line, tab-separated,
    in this exact field order)::

        query <TAB> target <TAB> delta <TAB> param_name <TAB> k_increment

    Floats are written with repr so they round-trip exactly.  A later
    record for the same (query, target, delta, param_name) key replaces
    the earlier one on load.  A final line without its newline that does
    not parse, as a crash mid-write leaves it, is skipped with a warning,
    and the next put writes over it.  Records are indexed by (query,
    target), so every lookup touches one pair's records, whatever the
    store's size.  Writers must be serialized by the caller; concurrent
    reads of a loaded store are safe.
    """

    def __init__(self, path: str | Path | None = None):
        # (query, target) -> delta -> param_name -> k_increment
        self._index: dict[tuple[str, str], dict[float, dict[str, float]]] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        lines = decode_utf8(data[:end], path).split("\n")
        tail = data[end:]
        if _is_record(tail):
            lines[-1] = tail.decode("utf-8")
        elif tail:
            warnings.warn(f"{path}:{len(lines)}: skipped a torn final line (no newline, does not parse)")
        index = self._index
        # put writes a pair's records as consecutive lines: resolve their dict once per run
        run: list[str] | None = None
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise SchemaError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
            try:
                if parts[:3] != run:
                    delta = float(parts[2])
                    run = parts[:3]
                    incs = index.setdefault((parts[0], parts[1]), {}).setdefault(delta, {})
                incs[parts[3]] = float(parts[4])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad numeric field ({exc})") from exc

    @staticmethod
    def _check_token(token: str) -> str:
        if "\t" in token or "\n" in token:
            raise SchemaError(f"store field {token!r} may not contain tabs or newlines")
        return token

    @staticmethod
    def _start_line(fh: BinaryIO) -> None:
        """Leave an append-mode file ending in a newline: end an intact final
        line, or cut off a torn one."""
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        if _is_record(data[start:]):
            fh.write(b"\n")
        else:
            fh.truncate(start)

    def put(self, result: ComparisonResult) -> None:
        """Record every per-parameter increment of one comparison."""
        query = self._check_token(result.query)
        target = self._check_token(result.target)
        for param in result.increments:
            self._check_token(param)
        delta = float(result.delta)  # the repr of a numpy float would not parse back
        if result.increments:  # an empty delta dict would make deltas_for list a delta without records
            self._index.setdefault((query, target), {}).setdefault(delta, {}).update(result.increments)
        if self._path is not None:
            lines = [f"{query}\t{target}\t{delta!r}\t{p}\t{float(v)!r}\n" for p, v in result.increments.items()]
            with open(self._path, "a+b") as fh:
                self._start_line(fh)
                fh.write("".join(lines).encode("utf-8"))

    def deltas_for(self, query: str, target: str) -> list[float]:
        return sorted(self._index.get((query, target), ()))

    def combine(
        self,
        query: str,
        target: str,
        params: Iterable[str] | None = None,
        delta: float | None = None,
    ) -> float:
        """Sum of stored increments over a parameter subset.

        params=None sums everything recorded for the pair; an explicit
        subset requires every named parameter to be present.  delta may be
        omitted only when the store holds a single delta for the pair.
        """
        deltas = self._index.get((query, target), {})
        if delta is None:
            if len(deltas) == 0:
                raise StoreLookupError(f"no records for ({query!r}, {target!r})")
            if len(deltas) > 1:
                raise StoreLookupError(
                    f"({query!r}, {target!r}) recorded at {len(deltas)} deltas; pass delta explicitly"
                )
            (delta,) = deltas
        incs = deltas.get(delta, {})
        if params is None:
            if not incs:
                raise StoreLookupError(f"no records for ({query!r}, {target!r}, delta={delta!r})")
            return math.fsum(incs.values())
        values = []
        for param in params:
            if param not in incs:
                raise StoreLookupError(f"no record for ({query!r}, {target!r}, delta={delta!r}, {param!r})")
            values.append(incs[param])
        return math.fsum(values)

    def __len__(self) -> int:
        return sum(len(incs) for deltas in self._index.values() for incs in deltas.values())

    def as_mapping(self) -> Mapping[tuple[str, str, float, str], float]:
        pairs = self._index.items()
        return {(q, t, d, p): v for (q, t), deltas in pairs for d, incs in deltas.items() for p, v in incs.items()}
