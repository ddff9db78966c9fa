import numpy as np
import pytest

from cartancost import kak, pauli
from cartancost import linalg as la
from cartancost.errors import PreconditionError


def roundtrip_residual(u, split):
    f = kak.kak_decompose(u, split)
    return f, la.frobenius_distance(kak.reconstruct(f), u)


class TestCanonicalPhases:
    def test_already_canonical(self):
        z = kak.canonicalize_phases(np.array([0.3, -0.3]))
        assert np.allclose(z, [0.3, -0.3])

    def test_fold_and_balance(self):
        # sum 2*pi with entries in range: two pi-moves restore the zero sum
        z = kak.canonicalize_phases(np.array([0.75, 0.75, 0.75, -0.25]) * np.pi)
        assert abs(z.sum()) < 1e-12
        assert np.all(z <= np.pi + 1e-12) and np.all(z > -np.pi - 1e-12)
        assert np.all(np.diff(z) <= 1e-15)

    def test_rejects_off_lattice_sum(self):
        with pytest.raises(PreconditionError):
            kak.canonicalize_phases(np.array([0.3, 0.3]))


class TestKakRoundTrip:
    def test_identity(self):
        split = pauli.builtin_split(2, "two_local")
        f = kak.kak_decompose(np.eye(4, dtype=complex), split)
        assert f.l.norm() == 0.0 and f.z.norm() == 0.0 and f.m.norm() == 0.0
        assert np.allclose(kak.reconstruct(f), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "dim,kind,count",
        [(2, "single_x", 200), (2, "ai", 200), (4, "two_local", 300), (4, "ai", 150), (8, "ai", 60)],
    )
    def test_haar_roundtrip(self, dim, kind, count):
        n = int(np.log2(dim))
        split = pauli.builtin_split(n, kind)
        for seed in range(count):
            u = la.haar_random_special_unitary(dim, 1000 * dim + seed)
            f, res = roundtrip_residual(u, split)
            assert res < 1e-8, (dim, kind, seed, res)
            # frame consistency
            assert np.linalg.norm(f.a.T @ f.a - np.eye(dim)) < 1e-7
            assert abs(np.linalg.det(np.diag(f.d.diagonal())) - 1.0) < 1e-10

    def test_degenerate_families(self):
        split = pauli.builtin_split(2, "two_local")
        xx = pauli.pauli_matrix("XX")
        for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            u = la.expm(1j * theta * xx)
            _, res = roundtrip_residual(u, split)
            assert res < 1e-8
        for phi in (0.3, np.pi / 2, np.pi, 1.9 * np.pi):
            cp = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
            u, _ = la.project_special(cp)
            _, res = roundtrip_residual(u, split)
            assert res < 1e-8

    def test_central_construct_oracle(self):
        # exp(iZ0) with small phases decomposes back to the same eigenphases
        split = pauli.builtin_split(2, "ai")
        rng = np.random.default_rng(0)
        for _ in range(50):
            z0 = pauli.random_hamiltonian(2, split.z_basis, rng, norm=0.8)
            raw = np.real(np.diagonal(z0.to_matrix()))
            if np.max(np.abs(raw)) >= np.pi / 2 - 0.05:
                z0 = z0 * ((np.pi / 2 - 0.1) / np.max(np.abs(raw)))
                raw = np.real(np.diagonal(z0.to_matrix()))
            u = la.expm(1j * z0.to_matrix())
            f, res = roundtrip_residual(u, split)
            assert res < 1e-8
            assert np.allclose(kak.eigenphases(f), kak.canonicalize_phases(raw), atol=1e-9)

    def test_subspace_membership(self):
        split = pauli.builtin_split(4, "ai")
        u = la.haar_random_special_unitary(16, 7)
        f = kak.kak_decompose(u, split)
        assert set(f.l.coeffs) <= set(split.l_basis)
        assert set(f.m.coeffs) <= set(split.l_basis)
        assert set(f.z.coeffs) <= set(split.z_basis)
        assert la.frobenius_distance(kak.reconstruct(f), u) < 1e-8

    def test_global_phase_projection(self):
        split = pauli.builtin_split(2, "two_local")
        u = la.haar_random_special_unitary(4, 9)
        f_phased = kak.kak_decompose(np.exp(0.3j) * u, split)
        assert abs(f_phased.removed_phase - 0.3) < 1e-9
        assert la.frobenius_distance(kak.reconstruct(f_phased), u) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            kak.kak_decompose(np.eye(4, dtype=complex), pauli.builtin_split(1, "single_x"))

    def test_not_unitary(self):
        with pytest.raises(PreconditionError):
            kak.kak_decompose(np.diag([1.0, 2.0, 1.0, 1.0]), pauli.builtin_split(2, "two_local"))


class TestEigenphases:
    def test_identity_all_zero(self):
        split = pauli.builtin_split(2, "two_local")
        f = kak.kak_decompose(np.eye(4, dtype=complex), split)
        assert np.allclose(kak.eigenphases(f), 0.0)

    def test_single_qubit_readoff(self):
        split = pauli.builtin_split(1, "single_x")
        u = la.expm(-1j * 0.3 * pauli.pauli_matrix("Z"))
        f = kak.kak_decompose(u, split)
        assert np.allclose(kak.eigenphases(f), [0.3, -0.3], atol=1e-12)

    def test_isometry(self):
        # trace norm of the central factor equals the euclidean phase norm
        split = pauli.builtin_split(2, "two_local")
        rng = np.random.default_rng(1)
        for seed in range(50):
            u = la.haar_random_special_unitary(4, 2000 + seed)
            f = kak.kak_decompose(u, split)
            ph = kak.eigenphases(f)
            assert abs(pauli.trace_inner_product(f.z, f.z) - (ph**2).sum()) < 1e-10
            assert abs(ph.sum()) < 1e-12
            assert np.all(np.diff(ph) <= 1e-15)
