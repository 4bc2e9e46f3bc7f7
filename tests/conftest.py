from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from kdiss.averaging import _MAX_SWEEPS, _polarize3
from kdiss.errors import DomainError, NonPolarizedError
from kdiss.kernel import ObjectRecord, ProbeConfig, _check_schema
from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model


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


def ratio_d(a: float, b: float) -> float:
    """The reference ratio dissimilarity of two non-negative floats, by three
    branches: 0 for two zeros, else (max - min) / max, so 1 against a zero."""
    hi, lo = max(a, b), min(a, b)
    if hi == 0.0:
        return 0.0
    return (hi - lo) / hi


def exact_d(query, target, delta: float) -> int:
    """The reference D: max(1, ceil(w*)), w* = G * (1 + delta) / delta taken in
    Fractions for G, the exactly rounded sum of the float ratio dissimilarities,
    and the float delta."""
    gap = Fraction(math.fsum(map(ratio_d, query, target)))
    return max(1, math.ceil(gap * (1 + Fraction(delta)) / Fraction(delta)))


def grouped_by_records(query: ObjectRecord, target: ObjectRecord, cfg: ProbeConfig, weight: float) -> bool:
    """The reference for kdiss.dissimilarity.grouped_with_target: the paper's grouping
    predicate on the three probe-extended objects, in ratio dissimilarities.

    Each pair's entry is the weighted mean of its per-parameter d's, the
    values' ratio_d with unit base weights and the probe's |difference| of the
    coordinates (0, delta / (1 + delta), 0) at ``weight``: one math.fsum per
    entry over P + w.  The three entries are split by iterative averaging; a
    tie of the decisive entries counts as switched.
    """
    if not (math.isfinite(weight) and weight > 0):
        raise DomainError(f"weight must be positive and finite, got {weight!r}")
    _check_schema(query, target)
    # the anchor, the offset clone and the target: the clones carry the query's values
    values = [query.param_values, query.param_values, target.param_values]
    probe = [0.0, cfg.delta / (1.0 + cfg.delta), 0.0]
    total = len(query.param_names) + weight
    u, x, y = (
        math.fsum([*map(ratio_d, values[i], values[j]), weight * abs(probe[i] - probe[j])]) / total
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    try:
        winner, _ = _polarize3(u, x, y, _MAX_SWEEPS)
    except NonPolarizedError:
        winner = None
    # the anchor-target pair is pair 1; at a tie the switch fires
    return winner == 1 if winner is not None else x <= u


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
