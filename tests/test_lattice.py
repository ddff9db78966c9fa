import numpy as np
import pytest

from cartancost import lattice
from cartancost.errors import PreconditionError


class TestFastSearch:
    def test_inside_fundamental_cell(self):
        m = lattice.closest_lattice_point(np.array([0.1, -0.1]) * np.pi)
        assert np.array_equal(m, [0, 0])

    def test_near_lattice_point(self):
        x = np.array([0.9, -0.9]) * np.pi
        m = lattice.closest_lattice_point(x)
        assert np.array_equal(m, [1, -1])
        assert abs(np.linalg.norm(x - np.pi * m) - np.sqrt(2) * 0.1 * np.pi) < 1e-12

    def test_four_dim_boundary(self):
        x = np.array([0.75, 0.75, -0.75, -0.75]) * np.pi
        m = lattice.closest_lattice_point(x)
        assert m.sum() == 0
        want = np.linalg.norm(x - np.pi * np.array([1, 1, -1, -1]))
        assert abs(np.linalg.norm(x - np.pi * m) - want) < 1e-12

    def test_sum_constraint_always_met(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-2.5, 2.5, 6)
            x -= x.mean()
            assert lattice.closest_lattice_point(x).sum() == 0

    def test_rejects_off_plane(self):
        with pytest.raises(PreconditionError):
            lattice.closest_lattice_point(np.array([0.5, 0.0]))


class TestBruteForce:
    def test_zero(self):
        assert np.array_equal(
            lattice.closest_lattice_point_bruteforce(np.zeros(4)), np.zeros(4)
        )

    def test_exact_lattice_point(self):
        x = np.array([np.pi, -np.pi])
        m = lattice.closest_lattice_point_bruteforce(x)
        assert np.linalg.norm(x - np.pi * m) < 1e-12
        assert np.array_equal(m, [1, -1])

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            x = rng.uniform(-0.7 * np.pi, 0.7 * np.pi, n)
            x -= x.mean()
            fast = lattice.closest_lattice_point(x)
            brute = lattice.closest_lattice_point_bruteforce(x, radius=2)
            assert abs(
                np.linalg.norm(x - np.pi * fast) - np.linalg.norm(x - np.pi * brute)
            ) < 1e-12

    def test_box_guard(self):
        with pytest.raises(PreconditionError):
            lattice.closest_lattice_point_bruteforce(np.zeros(16), radius=3)

    def test_permutation_and_negation_closure(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(-0.9 * np.pi, 0.9 * np.pi, 4)
            x -= x.mean()
            d = np.linalg.norm(x - np.pi * lattice.closest_lattice_point(x))
            xs = x[rng.permutation(4)]
            ds = np.linalg.norm(xs - np.pi * lattice.closest_lattice_point(xs))
            dn = np.linalg.norm(-x - np.pi * lattice.closest_lattice_point(-x))
            assert abs(d - ds) < 1e-12
            assert abs(d - dn) < 1e-12
