import numpy as np
import pytest

from kdiss.pyramids import PyramidTable, exponential_model, normalize, uniform_model
from kdiss.similarity import ObjectRecord


def mixture_pyramid(name: str, lam: float, rate: float) -> np.ndarray:
    """Deterministic synthetic pyramid: lam * uniform + (1 - lam) * exponential."""
    uni = uniform_model().values()
    exp = exponential_model(rate).values()
    return normalize(lam * uni + (1.0 - lam) * exp)


def synthetic_table(n: int = 10) -> PyramidTable:
    """n synthetic pyramids spanning uniform-like to exponential-like shapes."""
    rows = {}
    for i in range(n):
        lam = i / max(n - 1, 1)
        rate = 0.05 + 0.25 * (i % 4) / 3
        rows[f"country{i:02d}"] = mixture_pyramid(f"country{i:02d}", lam, rate)
    return PyramidTable(rows)


def random_pair(rng: np.random.Generator, n_params: int, lo: float = 0.5, hi: float = 1.5):
    names = [f"p{i:02d}" for i in range(n_params)]
    q = ObjectRecord.from_values("q", names, rng.uniform(lo, hi, n_params))
    t = ObjectRecord.from_values("t", names, rng.uniform(lo, hi, n_params))
    return q, t


def pair_with_sims(sims, name_q="q", name_t="t"):
    """Objects whose per-parameter ratio similarities are exactly `sims`."""
    names = [f"p{i}" for i in range(len(sims))]
    q = ObjectRecord.from_values(name_q, names, [1.0] * len(sims))
    t = ObjectRecord.from_values(name_t, names, [1.0 / s if s > 0 else 0.0 for s in sims])
    return q, t


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def table() -> PyramidTable:
    return synthetic_table()


@pytest.fixture
def pyramid_csv(tmp_path):
    from kdiss.pyramids import write_pyramid_csv

    path = tmp_path / "pyramids.csv"
    write_pyramid_csv(synthetic_table(), path)
    return path
