import numpy as np
import pytest

from cartancost import linalg as la
from cartancost.errors import PreconditionError


def random_antihermitian(rng, n, scale=1.0):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    return -1j * h * scale


def random_special_orthogonal(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    a = a - a.T
    return la.expm(a.astype(complex)).real


class TestPredicates:
    def test_unitary(self):
        assert la.is_unitary(np.eye(3))
        assert not la.is_unitary(np.diag([1.0, 2.0]))

    def test_structure_flags(self):
        m = np.array([[0, 1j], [1j, 0]])
        assert la.is_symmetric(m)
        assert np.linalg.norm(m.imag) > 1e-10
        assert np.linalg.norm(m - m.conj().T) > 1e-10
        assert np.linalg.norm(m + m.conj().T) <= 1e-10


class TestExpm:
    def test_zero(self):
        assert np.allclose(la.expm(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        got = la.expm(np.diag([1j * np.pi, -1j * np.pi]))
        assert np.allclose(got, -np.eye(2), atol=1e-12)

    def test_round_trip_with_log(self):
        # branch-safe when the eigenphases stay inside (-pi, pi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_antihermitian(rng, 4, scale=0.4)
            u = la.expm(x)
            w, v = np.linalg.eigh(1j * x)
            assert np.all(np.abs(w) < np.pi)
            back = (v * np.log(np.diag(v.conj().T @ u @ v).copy())) @ v.conj().T
            assert np.allclose(back, x, atol=1e-9)

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_antihermitian(rng, 8)
            x *= 10.0 / max(np.linalg.norm(x), 10.0)
            assert np.linalg.norm(la.expm(x) @ la.expm(-x) - np.eye(8)) < 1e-9

    def test_rejects_non_antihermitian(self):
        with pytest.raises(PreconditionError):
            la.expm(np.eye(2))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_stack_matches_each_matrix(self, n):
        rng = np.random.default_rng(2)
        xs = np.stack([random_antihermitian(rng, n) for _ in range(6)]).reshape(2, 3, n, n)
        got = la.expm(xs)
        assert got.shape == xs.shape
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(got[idx] - la.expm(xs[idx]))) <= 1e-14

    def test_stack_rejects_one_bad_member(self):
        rng = np.random.default_rng(3)
        xs = np.stack([random_antihermitian(rng, 4) for _ in range(5)])
        la.expm(xs)
        xs[3, 0, 1] += 1e-8
        with pytest.raises(PreconditionError):
            la.expm(xs)


class TestDiagSymmetricUnitary:
    def make(self, rng, n, degenerate):
        o = random_special_orthogonal(rng, n)
        if degenerate:
            ph = rng.uniform(-np.pi, np.pi, size=max(1, n // 2))
            ph = np.repeat(ph, 2)[:n]
        else:
            ph = rng.uniform(-np.pi, np.pi, size=n)
        return (o * np.exp(1j * ph)) @ o.T

    def test_identity(self):
        o, e = la.diag_symmetric_unitary(np.eye(4))
        assert np.allclose(o, np.eye(4)) or np.linalg.norm(o @ o.T - np.eye(4)) < 1e-12
        assert np.allclose(e, 1.0)

    def test_already_diagonal(self):
        m = np.diag(np.exp(1j * np.array([0.4, -0.4])))
        o, e = la.diag_symmetric_unitary(m)
        assert np.linalg.norm(o @ (e[:, None] * o.T) - m) < 1e-10

    def test_construct_decompose_corpus(self):
        # 1000 instances over dims 2/4/8, at least 100 with repeated phases
        rng = np.random.default_rng(3)
        n_degenerate = 0
        for trial in range(1000):
            n = int(rng.choice([2, 4, 8]))
            degenerate = trial % 5 == 0
            n_degenerate += degenerate
            m = self.make(rng, n, degenerate)
            o, e = la.diag_symmetric_unitary(m)
            assert np.linalg.norm(o @ (e[:, None] * o.T) - m) < 1e-8
            assert np.linalg.norm(o.imag) == 0.0
            assert abs(np.linalg.det(o) - 1.0) < 1e-8
            assert np.allclose(np.abs(e), 1.0, atol=1e-10)
        assert n_degenerate >= 100

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(4)
        u = la.haar_random_special_unitary(4, 5)
        if la.is_symmetric(u, 1e-8):  # essentially impossible, but stay honest
            u = u @ np.diag([1, 1j, 1, -1j])
        with pytest.raises(PreconditionError):
            la.diag_symmetric_unitary(u)


class TestLogSpecialOrthogonal:
    def test_identity(self):
        assert np.linalg.norm(la.log_special_orthogonal(np.eye(4))) == 0.0

    def test_planar_rotation(self):
        th = 0.7
        o = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        x = la.log_special_orthogonal(o)
        assert abs(abs(x[0, 1]) - th) < 1e-12
        assert np.linalg.norm(la.expm(x.astype(complex)).real - o) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.choice([2, 4, 8]))
            o = random_special_orthogonal(rng, n, scale=0.8)
            x = la.log_special_orthogonal(o)
            assert np.linalg.norm(x + x.T) < 1e-12
            assert np.linalg.norm(la.expm(x.astype(complex)).real - o) < 1e-7

    def test_minus_one_pairs(self):
        o = np.diag([-1.0, 1.0, -1.0, 1.0])
        x = la.log_special_orthogonal(o)
        assert np.linalg.norm(la.expm(x.astype(complex)).real - o) < 1e-10

    def test_rejects_reflection(self):
        with pytest.raises(PreconditionError):
            la.log_special_orthogonal(np.diag([1.0, -1.0]))


class TestFrobeniusDistance:
    def test_zero(self):
        assert la.frobenius_distance(np.eye(3), np.eye(3)) == 0.0

    def test_phase_quotient(self):
        assert la.frobenius_distance(np.eye(2), -np.eye(2), mod_global_phase=True) < 1e-12

    def test_analytic_value(self):
        assert abs(la.frobenius_distance(np.eye(2), np.diag([1.0, -1.0])) - 2.0) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(PreconditionError):
            la.frobenius_distance(np.eye(2), np.eye(4))


class TestHaar:
    def test_contract(self):
        u = la.haar_random_special_unitary(8, 11)
        assert la.is_unitary(u, 1e-10)
        assert abs(np.linalg.det(u) - 1) <= 1e-10

    def test_determinism(self):
        assert np.array_equal(
            la.haar_random_special_unitary(4, 3), la.haar_random_special_unitary(4, 3)
        )

    def test_trace_moment(self):
        # E |tr U|^2 = 1 by character orthogonality of the defining irrep
        acc = 0.0
        for seed in range(10_000):
            acc += abs(np.trace(la.haar_random_special_unitary(2, seed))) ** 2
        assert abs(acc / 10_000 - 1.0) < 0.05
