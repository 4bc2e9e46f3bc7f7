"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one
``ACCEPTANCE <name>: PASS/FAIL`` line per criterion.
"""

import functools
import math
import os
import random
import time

import pytest

from kdiss.averaging import bipartition, pair_max_split
from kdiss.errors import DegenerateSymmetryError
from kdiss.formats import COHORTS
from kdiss.indexes import build_index_rows, mu_index, sex_split_k, sum_constancy
from kdiss.kernel import ObjectRecord, ProbeConfig, batch_compare, closed_form_k, compare
from kdiss.pyramids import exponential_model, ingest, uniform_model
from kdiss.report import linear_fit
from kdiss.similarity import SimilarityMatrix

from conftest import random_pair, synthetic_table

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
            return out

        return wrapper

    return decorate


def pyramid_pair(rng, i):
    names = list(COHORTS)
    q = ObjectRecord.from_values(f"q{i}", names, [rng.uniform(0.5, 1.5) for _ in range(34)])
    t = ObjectRecord.from_values(f"t{i}", names, [rng.uniform(0.5, 1.5) for _ in range(34)])
    return q, t


@criterion("k-delta-constancy")
def test_k_delta_constancy():
    rng = random.Random(101)
    pairs = [random_pair(rng, 34) for _ in range(20)]
    start = time.perf_counter()
    worst_spread = 0.0
    worst_integer_gap = 0.0
    for q, t in pairs:
        normalized = []
        for delta in DELTAS:
            res = compare(q, t, ProbeConfig(delta=delta))
            normalized.append(res.k_cont / (1.0 + delta))
            if delta <= 1e-4:
                worst_integer_gap = max(worst_integer_gap, abs(res.k - res.k_cont) / res.k_cont)
        spread = (max(normalized) - min(normalized)) / min(normalized)
        worst_spread = max(worst_spread, spread)
    elapsed = time.perf_counter() - start
    assert worst_spread <= 1e-6, f"K_cont/(1+delta) spread {worst_spread:.3e}"
    assert worst_integer_gap <= 1e-3, f"integer K off by {worst_integer_gap:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion("additivity")
def test_additivity():
    rng = random.Random(202)
    cfg = ProbeConfig(delta=1e-4)
    for i in range(100):
        q, t = pyramid_pair(rng, i)
        res = compare(q, t, cfg)
        total = math.fsum(res.increments.values())
        assert abs(total - res.k_cont) <= 1e-12 * res.k_cont
        k_male, k_female = sex_split_k(q, t, cfg)
        assert abs((k_male + k_female) - res.k_cont) <= 1e-12 * res.k_cont


@criterion("three-object-oracle")
def test_three_object_oracle():
    rng = random.Random(303)
    labels = ("x", "y", "z")
    accepted = 0
    agreements = 0
    while accepted < 1000:
        a, b, c = (rng.uniform(0.0, 1.0) for _ in range(3))
        low, mid, high = sorted((a, b, c))
        if min(mid - low, high - mid) <= 1e-3:
            continue
        accepted += 1
        m = SimilarityMatrix(labels, [[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])
        iterative = bipartition(m)
        oracle = pair_max_split(m)
        if {iterative.group_a, iterative.group_b} == {oracle.group_a, oracle.group_b}:
            agreements += 1
    assert agreements == 1000, f"{agreements}/1000 agreements"

    tied = SimilarityMatrix(labels, [[1.0, 0.7, 0.7], [0.7, 1.0, 0.2], [0.7, 0.2, 1.0]])
    with pytest.raises(DegenerateSymmetryError):
        bipartition(tied)
    with pytest.raises(DegenerateSymmetryError):
        pair_max_split(tied)


@criterion("analytic-oracle-equivalence")
def test_analytic_oracle_equivalence():
    rng = random.Random(404)
    cfg = ProbeConfig(delta=1e-4)
    sizes = [2, 10, 34]
    for i in range(100):
        q, t = random_pair(rng, sizes[i % 3])
        numeric = compare(q, t, cfg).k_cont
        closed = closed_form_k(q, t, cfg)
        assert abs(numeric - closed) <= 1e-6 * closed, f"pair {i}: {numeric} vs {closed}"


@criterion("self-comparison")
def test_self_comparison():
    rng = random.Random(505)
    q, _ = pyramid_pair(rng, 0)
    twin = ObjectRecord("twin", q.params)
    for delta in (1e-1, 1e-4, 1e-7):
        res = compare(q, twin, ProbeConfig(delta=delta))
        assert res.d == 1
        assert res.k_cont == 0.0


@criterion("model-pyramids")
def test_model_pyramids():
    e30 = exponential_model(0.30)
    combined0 = e30.value_of("m00") + e30.value_of("f00")
    combined1 = e30.value_of("m05") + e30.value_of("f05")
    assert abs(combined0 - 30.07) <= 0.01
    assert abs(combined1 - 21.05) <= 0.01
    uniform = uniform_model()
    assert all(v == 100.0 / 34.0 for v in uniform.param_values)
    assert exponential_model(0.0).params == uniform.params


@criterion("mu-bounds-and-polarity")
def test_mu_bounds_and_polarity():
    rng = random.Random(606)
    for _ in range(2000):
        a, b = rng.uniform(0.0, 1e3), rng.uniform(0.0, 1e3)
        if a + b == 0:
            continue
        mu = mu_index(a, b)
        assert 0.0 <= mu <= 100.0
        assert abs(mu + mu_index(b, a) - 100.0) <= 1e-12

    table = synthetic_table(6)
    rows, _ = build_index_rows(
        table, table.record("country00"), table.record("country05"), ProbeConfig(delta=1e-3)
    )
    by_name = {r.name: r for r in rows}
    assert by_name["country00"].mu == 100.0
    assert by_name["country05"].mu == 0.0


@criterion("monotone-dominance")
def test_monotone_dominance():
    rng = random.Random(707)
    cfg = ProbeConfig(delta=1e-3)
    holds = 0
    for i in range(1000):
        n_params = 6
        names = [f"p{j}" for j in range(n_params)]
        base = [rng.uniform(0.5, 1.5) for _ in names]
        # T1 sits at or above Q per parameter; T2 pushes strictly farther
        f1 = [1.0 + rng.uniform(0.0, 0.5) for _ in names]
        f2 = [f * (1.0 + rng.uniform(0.01, 0.5)) for f in f1]
        q = ObjectRecord.from_values("q", names, base)
        t1 = ObjectRecord.from_values("t1", names, [b * f for b, f in zip(base, f1)])
        t2 = ObjectRecord.from_values("t2", names, [b * f for b, f in zip(base, f2)])
        k1 = compare(q, t1, cfg).k_cont
        k2 = compare(q, t2, cfg).k_cont
        if k2 >= k1:
            holds += 1
    assert holds == 1000, f"{holds}/1000"


@criterion("open-mode-independence")
def test_open_mode_independence():
    rng = random.Random(808)
    cfg = ProbeConfig(delta=1e-4)
    query, target = pyramid_pair(rng, 0)
    crowd = []
    for i in range(199):
        _, extra = pyramid_pair(rng, i + 1)
        crowd.append(ObjectRecord(f"crowd{i}", extra.params))
    batch_targets = crowd[:100] + [target] + crowd[100:]
    alone = compare(query, target, cfg)
    in_batch = batch_compare(query, batch_targets, cfg)[100]
    assert alone == in_batch
    assert repr(alone) == repr(in_batch)


@criterion("performance")
def test_performance():
    rng = random.Random(909)
    q, t = pyramid_pair(rng, 0)
    cfg_fine = ProbeConfig(delta=1e-6)
    compare(q, t, cfg_fine)  # warm-up
    best = min(
        _timed(lambda: compare(q, t, cfg_fine)) for _ in range(5)
    )
    assert best < 0.010, f"single compare took {best * 1e3:.2f} ms"

    targets = []
    for i in range(220):
        _, extra = pyramid_pair(rng, i + 1)
        targets.append(ObjectRecord(f"batch{i}", extra.params))
    cfg = ProbeConfig(delta=1e-4)
    start = time.perf_counter()
    batch_compare(q, targets, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"220-target batch took {elapsed:.2f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


IDB_ENV = "KDISS_IDB2000_CSV"
REFERENCE_ORDER = [
    "Sweden",
    "Japan",
    "Austria",
    "Russia",
    "Argentina",
    "China",
    "Afghanistan",
    "Nigeria",
    "Uganda",
]


def _spearman(x, y):
    def centred_ranks(v):
        # rank minus the mean rank (n + 1) / 2
        r = [0.0] * len(v)
        for rank, i in enumerate(sorted(range(len(v)), key=v.__getitem__), start=1):
            r[i] = rank - (len(v) + 1) / 2
        return r

    def dot(u, v):
        return math.fsum(a * b for a, b in zip(u, v))

    rx, ry = centred_ranks(x), centred_ranks(y)
    return dot(rx, ry) / math.sqrt(dot(rx, rx) * dot(ry, ry))


@pytest.mark.skipif(IDB_ENV not in os.environ, reason=f"set {IDB_ENV} to a year-2000 pyramid CSV")
@criterion("reference-data-checks")
def test_reference_data_checks():
    table = ingest(os.environ[IDB_ENV])
    cfg = ProbeConfig(delta=1e-4)
    monaco = table.record("Monaco")
    uganda = table.record("Uganda")

    ks = [compare(monaco, table.record(name), cfg).k_cont for name in REFERENCE_ORDER]
    assert _spearman(ks, list(range(len(ks)))) >= 0.9

    points = []
    for name in table.names:
        target = table.record(name)
        k_male, k_female = sex_split_k(uganda, target, cfg)
        points.append((k_male, k_female, name))
    slope, _ = linear_fit(points)
    assert abs(slope - 1.025) <= 0.15

    sums = []
    for name in table.names:
        target = table.record(name)
        k_mt = compare(monaco, target, cfg).k_cont
        k_ut = compare(uganda, target, cfg).k_cont
        sums.append((k_mt, k_ut))
    mean, std = sum_constancy(sums)
    assert std / mean <= 0.05
