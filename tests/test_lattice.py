import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartancost import lattice
from cartancost.errors import PreconditionError
from cartancost.kak import canonicalize_phases


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


@st.composite
def sum_zero_points(draw):
    """A sum-zero x of length 2..16: raw (entries in [-pi, pi], centred),
    canonicalized, on a Voronoi face shifted by a lattice point and moved by
    a few ulps, or wide (entries up to +-50 pi)."""
    n = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["raw", "canonical", "face", "wide"]))
    x = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    x *= 50 * np.pi if kind == "wide" else np.pi
    if kind == "face":
        x[:2] = -np.pi / 2, np.pi / 2  # spread pi, before the centring
    x -= x.mean()
    if kind == "canonical":
        x = canonicalize_phases(x)
    if kind == "face":
        m = np.array(draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)))
        x += np.pi * np.append(m, -m.sum())
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            x[i] = np.nextafter(x[i], draw(st.sampled_from([-np.inf, np.inf])))
    return kind, x


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(sum_zero_points())
def test_search_is_certified(point):
    kind, x = point
    m = lattice.closest_lattice_point(x)
    s = x - np.pi * m
    assert m.sum() == 0
    # a tie at +-50 pi may end where the spread exceeds pi by rounding only
    slack = 8 * np.spacing(np.abs(x).max()) if kind == "wide" else 0.0
    assert s.max() - s.min() <= np.pi + slack
    # no root step pi (e_i - e_j) shortens s
    n = len(x)
    roots = (np.eye(n)[:, None] - np.eye(n)[None, :]).reshape(-1, n)
    assert np.all(np.linalg.norm(s - np.pi * roots, axis=1) >= np.linalg.norm(s) - 1e-12)
    if n <= 8 and np.abs(x).max() <= 1.4 * np.pi:
        brute = lattice.closest_lattice_point_bruteforce(x, radius=2)
        assert abs(np.linalg.norm(s) - np.linalg.norm(x - np.pi * brute)) < 1e-12
