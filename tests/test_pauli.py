import itertools

import numpy as np
import pytest

from cartancost import pauli as pa
from cartancost.errors import PreconditionError
from cartancost.linalg import expm


class TestProducts:
    def test_single_qubit_table(self):
        assert pa.pauli_product("X", "Y") == (1j, "Z")
        assert pa.pauli_product("Y", "X") == (-1j, "Z")
        assert pa.pauli_product("Z", "X") == (1j, "Y")

    def test_tensor_factorwise(self):
        assert pa.pauli_product("XZ", "YZ") == (1j, "ZI")

    def test_involution(self):
        for s in pa.pauli_strings(2):
            assert pa.pauli_product(s, s) == (1, "II")

    def test_dense_agreement_all_pairs(self):
        for n in (1, 2, 3):
            for s, t in itertools.product(pa.pauli_strings(n), repeat=2):
                ph, r = pa.pauli_product(s, t)
                lhs = pa.pauli_matrix(s) @ pa.pauli_matrix(t)
                assert np.allclose(lhs, ph * pa.pauli_matrix(r), atol=1e-12)

    def test_commutators_match_dense(self):
        # i[s, t] vs products of dense matrices and vs the string structure
        # constants: 2i * phase * r when s and t anticommute, zero otherwise
        for n in (1, 2, 3):
            strings = pa.pauli_strings(n)
            for s, t in itertools.combinations(strings, 2):
                com = pa.i_commutator(
                    pa.Hamiltonian(n, {s: 1.0}), pa.Hamiltonian(n, {t: 1.0})
                )
                dense = 1j * (
                    pa.pauli_matrix(s) @ pa.pauli_matrix(t)
                    - pa.pauli_matrix(t) @ pa.pauli_matrix(s)
                )
                assert np.linalg.norm(com.to_matrix() - dense) < 1e-12
                ph, r = pa.pauli_product(s, t)
                want = np.zeros(len(strings))
                if pa.pauli_product(t, s)[0] != ph:
                    assert ph.real == 0.0
                    want[strings.index(r)] = (2j * ph).real
                assert np.max(np.abs(com.vec - want)) < 1e-12


class TestHamiltonian:
    def test_trace_inner_product_examples(self):
        x = pa.Hamiltonian(1, {"X": 1.0})
        z = pa.Hamiltonian(1, {"Z": 1.0})
        assert pa.trace_inner_product(x, x) == 2.0
        assert pa.trace_inner_product(x, z) == 0.0

    def test_trace_inner_product_dense_oracle(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            a = pa.random_hamiltonian(n, pa.pauli_strings(n), rng)
            b = pa.random_hamiltonian(n, pa.pauli_strings(n), rng)
            dense = np.trace(a.to_matrix() @ b.to_matrix()).real
            assert abs(pa.trace_inner_product(a, b) - dense) < 1e-10

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(1)
        h = pa.random_hamiltonian(2, pa.pauli_strings(2), rng)
        dense = np.sqrt(np.trace(h.to_matrix() @ h.to_matrix()).real)
        assert abs(h.norm() - dense) < 1e-10

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(2)
        h = pa.random_hamiltonian(3, pa.pauli_strings(3), rng)
        back = pa.Hamiltonian.from_matrix(h.to_matrix())
        assert (h - back).norm() < 1e-10

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            pa.Hamiltonian.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity_excluded(self):
        # only non-identity strings of length n name a coefficient
        for n, coeffs in ((2, {"II": 1.0}), (1, {"Q": 1.0}), (2, {"X": 1.0})):
            with pytest.raises(PreconditionError):
                pa.Hamiltonian(n, coeffs)

    def test_mixed_qubit_counts_rejected(self):
        one, two = pa.Hamiltonian(1, {"X": 1.0}), pa.Hamiltonian(2, {"XX": 1.0})
        for op in (lambda a, b: a + b, lambda a, b: a - b, pa.trace_inner_product):
            with pytest.raises(PreconditionError):
                op(one, two)


class TestProjection:
    def test_basic(self):
        split = pa.builtin_split(1, "single_x")
        h = pa.Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        assert pa.project(h, split, "l").coeffs == {"X": 1.0}
        assert pa.project(h, split, "p").coeffs == {"Z": 1.0}

    def test_idempotent_and_complete(self):
        rng = np.random.default_rng(3)
        split = pa.builtin_split(2, "two_local")
        h = pa.random_hamiltonian(2, pa.pauli_strings(2), rng)
        hl = pa.project(h, split, "l")
        hp = pa.project(h, split, "p")
        assert (pa.project(hl, split, "l") - hl).norm() == 0.0
        assert (hl + hp - h).norm() == 0.0
        assert pa.trace_inner_product(hl, hp) == 0.0


class TestSplits:
    @pytest.mark.parametrize(
        "n,kind,sizes",
        [
            (1, "single_x", (1, 2, 1)),
            (2, "two_local", (6, 9, 3)),
            (1, "ai", (1, 2, 1)),
            (2, "ai", (6, 9, 3)),
            (3, "ai", (28, 35, 7)),
            (4, "ai", (120, 135, 15)),
        ],
    )
    def test_builtin_splits_valid(self, n, kind, sizes):
        split = pa.builtin_split(n, kind)
        assert (len(split.l_basis), len(split.p_basis), len(split.z_basis)) == sizes
        report = pa.verify_cartan_split(split)
        assert report.all_ok and report.pl_spans and not report.violations
        assert len(split.z_basis) == 2**n - 1
        assert pa.verify_maximal_abelian(split)

    def test_two_local_center(self):
        split = pa.builtin_split(2, "two_local")
        assert set(split.z_basis) == {"XX", "YY", "ZZ"}

    def test_invalid_counterexample(self):
        bad = pa.CartanSplit(1, ("X", "Y"), ("Z",), ("Z",), np.eye(2, dtype=complex))
        report = pa.verify_cartan_split(bad)
        assert not report.all_ok
        assert ("[l,l]", "X", "Y", "Z") in report.violations

    def test_non_maximal_z(self):
        split = pa.builtin_split(2, "two_local")
        shrunk = pa.CartanSplit(2, split.l_basis, split.p_basis, ("XX",), split.q)
        assert not pa.verify_maximal_abelian(shrunk)

    def test_unsupported_kinds(self):
        with pytest.raises(PreconditionError):
            pa.builtin_split(2, "single_x")
        with pytest.raises(PreconditionError):
            pa.builtin_split(1, "two_local")
        with pytest.raises(PreconditionError):
            pa.builtin_split(5, "ai")


class TestAdaptedBasis:
    @pytest.mark.parametrize("n,kind", [(1, "single_x"), (2, "two_local"), (2, "ai"), (3, "ai")])
    def test_builtin_frames(self, n, kind):
        report = pa.adapted_basis_properties(pa.builtin_split(n, kind), samples=10, seed=7)
        assert report.ok

    def test_magic_frame_realifies_products(self):
        # a random local product conjugates to a real matrix in the magic frame
        rng = np.random.default_rng(8)
        split = pa.builtin_split(2, "two_local")
        k = pa.random_hamiltonian(2, split.l_basis, rng, norm=1.3)
        img = split.q.conj().T @ expm(1j * k.to_matrix()) @ split.q
        assert np.linalg.norm(img.imag) < 1e-10

    def test_single_x_frame(self):
        split = pa.builtin_split(1, "single_x")
        img = split.q.conj().T @ expm(1j * 0.4 * pa.pauli_matrix("X")) @ split.q
        assert np.linalg.norm(img.imag) < 1e-12
