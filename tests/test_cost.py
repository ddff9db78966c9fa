import numpy as np
import pytest

from cartancost import cost, lattice, pauli
from cartancost import linalg as la
from cartancost.errors import PreconditionError


@pytest.fixture(scope="module")
def two_local():
    return pauli.builtin_split(2, "two_local")


@pytest.fixture(scope="module")
def single_x():
    return pauli.builtin_split(1, "single_x")


class TestOptimalCost:
    def test_identity_is_free(self, two_local):
        assert cost.optimal_cost(np.eye(4, dtype=complex), two_local).cost < 1e-12

    def test_cnot_class(self, two_local):
        u = la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX"))
        report = cost.optimal_cost(u, two_local)
        assert abs(report.cost - np.pi / 2) < 1e-9
        # the reported minimizer beats or ties brute-force enumeration
        brute = lattice.closest_lattice_point_bruteforce(report.eigenphases, radius=3)
        assert abs(
            np.linalg.norm(report.eigenphases - np.pi * brute) - report.cost
        ) < 1e-12

    def test_swap_class(self, two_local):
        gen = sum(pauli.pauli_matrix(s) for s in ("XX", "YY", "ZZ"))
        report = cost.optimal_cost(la.expm(1j * (np.pi / 4) * gen), two_local)
        assert abs(report.cost - np.sqrt(3) * np.pi / 2) < 1e-9
        # SWAP sits on a Voronoi face: the tie keeps the zero point
        assert np.array_equal(report.lattice_point, np.zeros(4))
        assert 0 <= report.certificate_gap <= 1e-12

    def test_report_invariant(self, two_local):
        u = la.haar_random_special_unitary(4, 21)
        report = cost.optimal_cost(u, two_local)
        assert abs(report.cost**2 - (report.shifted_phases**2).sum()) < 1e-12
        assert np.allclose(
            report.shifted_phases,
            report.eigenphases - np.pi * report.lattice_point,
        )
        assert report.certificate_gap >= 0

    def test_inversion_symmetry(self, two_local):
        for seed in range(20):
            u = la.haar_random_special_unitary(4, 300 + seed)
            report, report_dag = (cost.optimal_cost(v, two_local) for v in (u, u.conj().T))
            assert report.certificate_gap >= 0 and report_dag.certificate_gap >= 0
            assert abs(report.cost - report_dag.cost) < 1e-8

    def test_zero_locus_on_free_group(self, two_local):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = pauli.random_hamiltonian(2, two_local.l_basis, rng, norm=rng.uniform(0.2, 2.0))
            u = la.expm(1j * k.to_matrix())
            assert cost.optimal_cost(u, two_local).cost < 1e-8


class TestDirectSplit:
    """A split built from its lists derives its involution from them."""

    def test_priced_like_builtin(self, two_local):
        direct = pauli.CartanSplit(2, two_local.l_basis, two_local.p_basis, two_local.z_basis,
                                   np.array(two_local.q))
        assert direct.theta == ("YY", False) and direct.type == "AI"
        for seed in range(3):
            u = la.haar_random_special_unitary(4, 40 + seed)
            got, want = cost.optimal_cost(u, direct), cost.optimal_cost(u, two_local)
            assert got.cost == want.cost
            assert np.array_equal(got.lattice_point, want.lattice_point)

    def test_swapped_strings_refused(self, two_local):
        l, p = list(two_local.l_basis), list(two_local.p_basis)
        l[0], p[0] = p[0], l[0]
        swapped = pauli.CartanSplit(2, tuple(l), tuple(p), two_local.z_basis, two_local.q)
        with pytest.raises(PreconditionError, match="not a Cartan split"):
            cost.optimal_cost(la.haar_random_special_unitary(4, 5), swapped)


class TestSingleQubit:
    def test_zero(self):
        assert cost.single_qubit_cost(0.0) == 0.0

    def test_proposition_values(self):
        assert abs(cost.single_qubit_cost(np.pi / 2) - np.pi / (2 * np.sqrt(2))) < 1e-15
        assert cost.single_qubit_cost(2 * np.pi) < 1e-12

    def test_grid_matches_closed_form(self):
        for z in np.linspace(-np.pi, np.pi, 201):
            assert cost.single_qubit_cost(z) == abs(z) / np.sqrt(2)

    def test_pipeline_convention_mapping(self, single_x):
        # halved-eigenvalue parameter is twice the standard one
        zmat = pauli.pauli_matrix("Z")
        for z in np.linspace(-np.pi, np.pi, 41):
            got = cost.optimal_cost(la.expm(-1j * z * zmat), single_x).cost
            want = np.sqrt(2) * min(abs(z - m * np.pi) for m in range(-4, 5))
            assert abs(got - want) < 1e-9
            assert abs(got - cost.single_qubit_cost(2 * z)) < 1e-9


class TestInvariance:
    def test_identity_stays_free(self, two_local):
        report = cost.cheap_invariance_check(np.eye(4, dtype=complex), two_local, samples=10, seed=0)
        assert report.ok and report.base_cost < 1e-12

    def test_cnot_class_constant(self, two_local):
        u = la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX"))
        report = cost.cheap_invariance_check(u, two_local, samples=30, seed=1)
        assert report.ok
        assert abs(report.base_cost - np.pi / 2) < 1e-9

    def test_random_targets(self, two_local):
        for seed in range(5):
            u = la.haar_random_special_unitary(4, 400 + seed)
            report = cost.cheap_invariance_check(u, two_local, samples=20, seed=seed)
            assert report.ok, report.max_deviation
