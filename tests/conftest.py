from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from kdiss.averaging import AveragingConfig, bipartition
from kdiss.errors import DegenerateSymmetryError, DomainError, NonPolarizedError
from kdiss.kernel import ObjectRecord, ProbeConfig, _check_schema, _ratio_sims
from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model
from kdiss.similarity import WeightedParameterSet, blend_from_objects


# interpreter flags under which any warning raises, for the tests that start a CLI
# or demo process: among them the EncodingWarning of an open() or a subprocess pipe
# that relies on the locale's encoding
STRICT_WARNINGS = ("-X", "warn_default_encoding", "-W", "error")


def mixture_pyramid(name: str, lam: float, rate: float) -> tuple[float, ...]:
    """Deterministic synthetic pyramid: lam * uniform + (1 - lam) * exponential."""
    uni = uniform_model().param_values
    exp = exponential_model(rate).param_values
    return normalize([lam * u + (1.0 - lam) * e for u, e in zip(uni, exp)])


def synthetic_table(n: int = 10) -> PyramidTable:
    """n synthetic pyramids spanning uniform-like to exponential-like shapes."""
    rows = {}
    for i in range(n):
        lam = i / max(n - 1, 1)
        rate = 0.05 + 0.25 * (i % 4) / 3
        rows[f"country{i:02d}"] = mixture_pyramid(f"country{i:02d}", lam, rate)
    return PyramidTable.from_rows(rows)


def random_pair(rng: random.Random, n_params: int, lo: float = 0.5, hi: float = 1.5):
    names = [f"p{i:02d}" for i in range(n_params)]
    q = ObjectRecord.from_values("q", names, [rng.uniform(lo, hi) for _ in range(n_params)])
    t = ObjectRecord.from_values("t", names, [rng.uniform(lo, hi) for _ in range(n_params)])
    return q, t


def pair_with_sims(sims, name_q="q", name_t="t"):
    """Objects whose per-parameter ratio similarities are exactly `sims`."""
    names = [f"p{i}" for i in range(len(sims))]
    q = ObjectRecord.from_values(name_q, names, [1.0] * len(sims))
    t = ObjectRecord.from_values(name_t, names, [1.0 / s if s > 0 else 0.0 for s in sims])
    return q, t


def exact_d(query, target, delta: float) -> int:
    """The reference D: max(1, ceil(w*)), w* = (P - S) * (1 + delta) / delta taken
    in Fractions for the engine's float similarity sum S and the float delta."""
    sim_sum = Fraction(math.fsum(_ratio_sims(query, target)))
    return max(1, math.ceil((len(query) - sim_sum) * (1 + Fraction(delta)) / Fraction(delta)))


ANCHOR_LABEL = "clone-a"
OFFSET_LABEL = "clone-b"
TARGET_LABEL = "target"
_AVERAGING = AveragingConfig(max_iterations=500)


def _probe_param_name(schema: Sequence[str]) -> str:
    name = "_probe"
    while name in schema:
        name += "_"
    return name


def grouped_by_records(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig, weight: float) -> bool:
    """The reference for kdiss.dissimilarity.grouped_with_target: the paper's grouping
    predicate on records.

    Builds the three probe-extended records, blends their matrix with unit
    base weights and the probe at ``weight``, and splits it by iterative
    averaging.  A tie of the decisive entries counts as switched.
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


def allclose(got, want, rtol=1e-5, atol=1e-8):
    """numpy.allclose's test, |got - want| <= atol + rtol * |want|, on numbers or
    nested sequences of one shape; a number as want stands for every entry."""
    if not isinstance(got, (tuple, list)):
        return abs(got - want) <= atol + rtol * abs(want)
    if not isinstance(want, (tuple, list)):
        want = [want] * len(got)
    return len(got) == len(want) and all(allclose(x, y, rtol, atol) for x, y in zip(got, want))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@pytest.fixture
def table() -> PyramidTable:
    return synthetic_table()


@pytest.fixture
def pyramid_csv(tmp_path):
    from kdiss.pyramids import write_pyramid_csv

    path = tmp_path / "pyramids.csv"
    write_pyramid_csv(synthetic_table(), path)
    return path
