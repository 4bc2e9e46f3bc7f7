import numpy as np
import pytest

from kdiss.averaging import AveragingConfig, average_once, bipartition, pair_max_split
from kdiss.errors import DegenerateSymmetryError, DomainError, NonPolarizedError
from kdiss.similarity import SimilarityMatrix


def sym3(a, b, c, labels=("x", "y", "z")):
    return SimilarityMatrix(labels, np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]]))


def brute_average(entries: np.ndarray) -> np.ndarray:
    """Independent reference for one sweep, written as plain loops."""
    n = entries.shape[0]
    out = np.zeros_like(entries)
    for i in range(n):
        for j in range(n):
            agreements = [1.0 - abs(entries[i, k] - entries[j, k]) for k in range(n)]
            out[i, j] = sum(agreements) / n
    np.fill_diagonal(out, 1.0)
    return out


class TestAverageOnce:
    def test_block_binary_fixed_point(self):
        m = sym3(1.0, 0.0, 0.0)
        out = average_once(m)
        assert np.array_equal(out.entries, m.entries)

    def test_all_ones_fixed_point(self):
        m = SimilarityMatrix(("a", "b", "c"), np.ones((3, 3)))
        assert np.array_equal(average_once(m).entries, np.ones((3, 3)))

    def test_pinned_entry(self):
        # rows (1, .9, .2) vs (.9, 1, .2): agreements .9, .9, 1 -> mean 14/15
        m = sym3(0.9, 0.2, 0.2)
        out = average_once(m)
        assert out.entries[0, 1] == pytest.approx(14.0 / 15.0, rel=1e-12)

    def test_matches_brute_force(self, rng):
        for n in (3, 4, 6):
            raw = rng.uniform(0, 1, (n, n))
            raw = (raw + raw.T) / 2
            np.fill_diagonal(raw, 1.0)
            m = SimilarityMatrix(tuple(f"o{i}" for i in range(n)), raw)
            assert np.allclose(average_once(m).entries, brute_average(raw), atol=1e-12)

    def test_preserves_invariants(self, rng):
        raw = rng.uniform(0, 1, (5, 5))
        raw = (raw + raw.T) / 2
        np.fill_diagonal(raw, 1.0)
        out = average_once(SimilarityMatrix(tuple("abcde"), raw))
        e = out.entries
        assert np.array_equal(e, e.T)
        assert np.all(np.diag(e) == 1.0)
        assert np.all((e >= 0) & (e <= 1))

    def test_two_block_binary_fixed_points(self):
        for split in (1, 2, 3):
            n = 5
            e = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    e[i, j] = 1.0 if (i < split) == (j < split) else 0.0
            m = SimilarityMatrix(tuple(f"o{i}" for i in range(n)), e)
            assert np.array_equal(average_once(m).entries, e)


class TestBipartition:
    def test_clear_pair(self):
        parts = bipartition(sym3(0.9, 0.2, 0.2))
        assert parts.group_a == {"x", "y"}
        assert parts.group_b == {"z"}
        assert parts.converged

    def test_block_binary_one_iteration(self):
        parts = bipartition(sym3(1.0, 0.0, 0.0))
        assert parts.group_a == {"x", "y"}
        assert parts.iterations_used == 1

    def test_uniform_raises_degenerate(self):
        with pytest.raises(DegenerateSymmetryError):
            bipartition(sym3(0.6, 0.6, 0.6))

    def test_tied_leaders_raise_degenerate(self):
        with pytest.raises(DegenerateSymmetryError):
            bipartition(sym3(0.8, 0.8, 0.3))

    def test_two_objects(self):
        m = SimilarityMatrix(("a", "b"), np.array([[1.0, 0.4], [0.4, 1.0]]))
        parts = bipartition(m)
        assert parts.group_a == {"a"} and parts.group_b == {"b"}

    def test_relabeling_invariance(self, rng):
        for _ in range(50):
            a, b, c = rng.uniform(0.01, 0.99, 3)
            if min(abs(a - b), abs(a - c), abs(b - c)) < 1e-3:
                continue
            base = bipartition(sym3(a, b, c))
            # swap objects 0 and 2: entries permute accordingly
            swapped = bipartition(sym3(c, b, a, labels=("z", "y", "x")))
            assert {frozenset(base.group_a), frozenset(base.group_b)} == {
                frozenset(swapped.group_a),
                frozenset(swapped.group_b),
            }

    def test_larger_two_cluster_matrix(self, rng):
        n1, n2 = 4, 3
        n = n1 + n2
        e = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                same = (i < n1) == (j < n1)
                e[i, j] = 0.8 + 0.015 * ((i * 3 + j * 7) % 5) if same else 0.2 + 0.01 * ((i + 2 * j) % 7)
        e = (e + e.T) / 2
        np.fill_diagonal(e, 1.0)
        labels = tuple(f"o{i}" for i in range(n))
        parts = bipartition(SimilarityMatrix(labels, e))
        assert {frozenset(parts.group_a), frozenset(parts.group_b)} == {
            frozenset(labels[:n1]),
            frozenset(labels[n1:]),
        }

    def test_max_iterations_respected(self):
        cfg = AveragingConfig(max_iterations=1)
        # needs several sweeps before the split is final
        with pytest.raises(NonPolarizedError):
            bipartition(sym3(0.5, 0.499, 0.1), cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AveragingConfig(max_iterations=0)


class TestPairMaxSplit:
    def test_groups_largest_pair(self):
        parts = pair_max_split(sym3(0.9, 0.2, 0.3))
        assert parts.group_a == {"x", "y"}

    def test_other_pair(self):
        parts = pair_max_split(sym3(0.2, 0.99, 0.3))
        assert parts.group_a == {"x", "z"}
        assert parts.group_b == {"y"}

    def test_tie_raises(self):
        with pytest.raises(DegenerateSymmetryError):
            pair_max_split(sym3(0.9, 0.9, 0.2))
