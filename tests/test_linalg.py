import warnings

import numpy as np
import pytest
import scipy.linalg

from cartancost import linalg as la
from cartancost import pauli
from cartancost.errors import NumericalFailure, PreconditionError


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

    @pytest.mark.parametrize("entry", [1e308, 1e200, -1e200j, np.inf, np.nan])
    def test_unitary_overflow_is_false_without_warning(self, entry):
        m = np.eye(4, dtype=complex)
        m[1, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not la.is_unitary(m)

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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_rejects_non_finite_without_warning(self, entry, stacked):
        x = np.array([[0.0, entry], [-np.conj(entry), 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="anti-Hermitian"):
                la.expm(np.stack([np.zeros((2, 2)), x]) if stacked else x)

    def test_stack_rejects_one_bad_member(self):
        rng = np.random.default_rng(3)
        xs = np.stack([random_antihermitian(rng, 4) for _ in range(5)])
        la.expm(xs)
        xs[3, 0, 1] += 1e-8
        with pytest.raises(PreconditionError):
            la.expm(xs)


def _ref_diag_symmetric_unitary(msym):
    """The attempt loop that creates its fallback generator up front; returns
    ``(o, e, attempt)`` or raises as :func:`la.diag_symmetric_unitary` does."""
    re, im = np.real(msym).copy(), np.imag(msym).copy()
    re = (re + re.T) / 2.0
    im = (im + im.T) / 2.0
    rng = np.random.default_rng(0x5D1A6)
    best_residual = np.inf
    eye_gap = 1e-7 * max(1.0, np.linalg.norm(msym))
    for attempt in range(60):
        c = 1.0 if attempt == 0 else rng.uniform(0.25, 4.0) * rng.choice([-1.0, 1.0])
        w, o = np.linalg.eigh(re + c * im)
        o = la._refine_clusters(o, w, im, eye_gap)
        e = np.einsum("ji,jk,ki->i", o, msym, o)
        residual = np.linalg.norm(o @ (e[:, None] * o.T) - msym)
        if residual <= la._DIAG_RESIDUAL_TOL:
            if np.linalg.det(o) < 0:
                o[:, 0] = -o[:, 0]
            return o, e / np.abs(e), attempt
        best_residual = min(best_residual, residual)
    raise NumericalFailure("failed", residual=best_residual)


def _near_swap_msym(delta, rng):
    """V^T V of SWAP exp(i delta H) in the magic frame, H Hermitian traceless
    of unit norm: the symmetric unitary that kak_decompose diagonalizes."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / 4 * np.eye(4)
    h /= np.linalg.norm(h)
    w, v = np.linalg.eigh(h)
    u, _ = la.project_special(np.eye(4)[[0, 2, 1, 3]] @ (v * np.exp(1j * delta * w)) @ v.conj().T)
    q = pauli.MAGIC_BASIS
    v = q.conj().T @ u @ q
    return v.T @ v


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

    def test_matches_eager_generator_reference(self):
        # near SWAP at delta = 3e-7 most inputs need a random coefficient
        rng = np.random.default_rng(7)
        late = 0
        for _ in range(12):
            msym = _near_swap_msym(3e-7, rng)
            try:
                o_ref, e_ref, attempt = _ref_diag_symmetric_unitary(msym)
            except NumericalFailure:
                with pytest.raises(NumericalFailure):
                    la.diag_symmetric_unitary(msym)
                continue
            o, e = la.diag_symmetric_unitary(msym)
            assert np.array_equal(o, o_ref) and np.array_equal(e, e_ref)
            late += attempt >= 1
        assert late >= 3

    def test_failure_residual_matches_reference(self):
        # the near-SWAP input of the CLI corpus, inside the failure window
        msym = _near_swap_msym(3e-8, np.random.default_rng(2024))
        with pytest.raises(NumericalFailure) as ref:
            _ref_diag_symmetric_unitary(msym)
        with pytest.raises(NumericalFailure) as got:
            la.diag_symmetric_unitary(msym)
        assert got.value.residual == ref.value.residual

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(4)
        u = la.haar_random_special_unitary(4, 5)
        if la.is_symmetric(u, 1e-8):  # essentially impossible, but stay honest
            u = u @ np.diag([1, 1j, 1, -1j])
        with pytest.raises(PreconditionError):
            la.diag_symmetric_unitary(u)


def _ref_log_special_orthogonal(o):
    """The logarithm from ``scipy.linalg.schur``, which checks its input and
    queries the workspace size before the one LAPACK call."""
    o = np.asarray(o, dtype=float)
    n = o.shape[0]
    t, q = scipy.linalg.schur(o, output="real")
    x = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12:
            c = (t[i, i] + t[i + 1, i + 1]) / 2.0
            s = (t[i + 1, i] - t[i, i + 1]) / 2.0
            theta = np.arctan2(s, c)
            x[i, i + 1] = -theta
            x[i + 1, i] = theta
            i += 2
        else:
            if t[i, i] < 0.0:
                minus_ones.append(i)
            i += 1
    for i, j in zip(minus_ones[::2], minus_ones[1::2]):
        x[i, j] = -np.pi
        x[j, i] = np.pi
    x = q @ x @ q.T
    return (x - x.T) / 2.0


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


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

    @pytest.mark.parametrize("o", [np.eye(3)[:, :2], np.eye(2)[0], np.eye(2)[None]],
                             ids=["3x2", "vector", "stack"])
    def test_rejects_non_square(self, o):
        # a shape NumPy's broadcasting would refuse with ValueError
        with pytest.raises(PreconditionError, match="expected a square matrix"):
            la.log_special_orthogonal(o)

    def test_matches_scipy_schur_reference(self):
        rng = np.random.default_rng(6)
        cases = [random_special_orthogonal(rng, n, scale)
                 for n in (2, 3, 4, 8, 16) for scale in (0.1, 1.0, 3.0) for _ in range(14)]
        # -1 eigenvalues: rotation-by-pi pairs, alone, beside a rotation, and
        # in a random frame
        cases += [np.eye(n) for n in (0, 1, 2, 3, 4, 8, 16)]
        cases += [np.diag([-1.0, -1.0]), np.diag([-1.0, 1.0, -1.0, 1.0]),
                  scipy.linalg.block_diag(_rotation(0.7), -np.eye(2), 1.0),
                  scipy.linalg.block_diag(_rotation(np.pi), _rotation(-2.5), -np.eye(4))]
        frame = random_special_orthogonal(rng, 4)
        cases.append(frame @ np.diag([-1.0, -1.0, 1.0, 1.0]) @ frame.T)
        assert len(cases) >= 200
        for o in cases:
            assert np.array_equal(la.log_special_orthogonal(o), _ref_log_special_orthogonal(o))
        x = la.log_special_orthogonal(np.diag([-1.0, 1.0, -1.0, 1.0]))
        assert abs(x[0, 2]) == np.pi  # the pairing wrote the rotation-by-pi plane

    @pytest.mark.parametrize("o", [
        [[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -np.inf]],
        np.full((2, 2), np.nan), [[1.0, np.nan], [0.0, 1.0]], np.full((4, 4), np.inf),
        [[1e200, 0.0], [0.0, 1.0]],
        np.array([[1.0, 0.0], [0.0, 1.0]]) + [[0.0, 0.0], [0.0, 1j * np.nan]],
        np.array([[np.inf + 0j, 0.0], [0.0, 1.0]]),
    ], ids=["inf", "minus_inf", "all_nan", "one_nan", "all_inf", "overflow",
            "complex_nan", "complex_inf"])
    def test_rejects_non_finite_without_warning(self, o):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError):
                la.log_special_orthogonal(np.asarray(o))


class TestProjectSpecial:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.inf])
    def test_rejects_non_finite_without_warning(self, entry):
        for u in (np.diag([entry, 1.0]), np.full((2, 2), entry)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PreconditionError, match="not unitary"):
                    la.project_special(u)


class TestFrobeniusDistance:
    def test_zero(self):
        assert la.frobenius_distance(np.eye(3), np.eye(3)) == 0.0

    def test_phase_quotient(self):
        assert la.frobenius_distance(np.eye(2), -np.eye(2)) < 1e-12

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
