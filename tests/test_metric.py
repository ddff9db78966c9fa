import dataclasses

import numpy as np
import pytest
import scipy.linalg

from cartancost import metric as mt
from cartancost import pauli
from cartancost.errors import PreconditionError
from cartancost.linalg import expm
from cartancost.serialize import split_from_json


@pytest.fixture(scope="module")
def single_x():
    return pauli.builtin_split(1, "single_x")


@pytest.fixture(scope="module")
def two_local():
    return pauli.builtin_split(2, "two_local")


def _ref_fd_gram(base, metric, fd_step):
    """One central-difference Gram, one exponential per displaced exponent:
    the per-direction loop that the stacked ``pullback_gram`` replaced."""
    split = metric.split
    l, z, m = base
    dense = [l.to_matrix(), z.to_matrix(), m.to_matrix()]
    exps = [expm(1j * d) for d in dense]
    u = exps[0] @ exps[1] @ exps[2]
    u_dag = u.conj().T
    dim = u.shape[0]
    unit = 2.0 ** (-split.n / 2.0)  # unit trace norm for a single string

    slots = [
        (0, split.l_basis),
        (1, split.z_basis),
        (2, split.l_basis),
    ]
    tangents = []
    for slot, directions in slots:
        left = exps[1] @ exps[2] if slot == 0 else (exps[2] if slot == 1 else None)
        for s in directions:
            step = (fd_step * unit) * pauli.pauli_matrix(s)
            plus = expm(1j * (dense[slot] + step))
            minus = expm(1j * (dense[slot] - step))
            if slot == 0:
                du = (plus - minus) @ left
            elif slot == 1:
                du = exps[0] @ ((plus - minus) @ left)
            else:
                du = exps[0] @ (exps[1] @ (plus - minus))
            du = du / (2.0 * fd_step)
            t = 1j * du @ u_dag
            t = (t + t.conj().T) / 2.0
            t = t - (np.trace(t) / dim) * np.eye(dim)
            tangents.append(t)

    stack = pauli.dense_basis(split.n)
    rows = np.einsum("kij,tji->tk", stack, np.array(tangents)).real / dim
    w = np.where(split.l_mask, metric.epsilon, 1.0)
    return dim * (rows * w) @ rows.T


def random_base(split, rng, norms=(0.8, 0.8, 0.8)):
    return (
        pauli.random_hamiltonian(split.n, split.l_basis, rng, norm=norms[0]),
        pauli.random_hamiltonian(split.n, split.z_basis, rng, norm=norms[1]),
        pauli.random_hamiltonian(split.n, split.l_basis, rng, norm=norms[2]),
    )


def _ref_hamiltonian_cost(h, metric):
    """sqrt(eps * |P_l H|^2 + |P_p H|^2) by projection and the trace inner
    product: the per-Hamiltonian form that ``PenaltyMetric.cost`` replaced."""
    hl, hp = (pauli.Hamiltonian(h.n, np.where(pauli._mask(h.n, basis), h.vec, 0.0))
              for basis in (metric.split.l_basis, metric.split.p_basis))
    return float(
        np.sqrt(
            metric.epsilon * pauli.trace_inner_product(hl, hl)
            + pauli.trace_inner_product(hp, hp)
        )
    )


class TestHamiltonianCost:
    def test_free_direction(self, single_x):
        m = mt.PenaltyMetric(single_x, 0.01)
        h = pauli.Hamiltonian(1, {"X": 1.0})
        assert abs(m.cost(h.vec) - np.sqrt(0.01) * h.norm()) < 1e-14

    def test_expensive_direction(self, single_x):
        m = mt.PenaltyMetric(single_x, 0.01)
        h = pauli.Hamiltonian(1, {"Z": 0.7})
        assert abs(m.cost(h.vec) - h.norm()) < 1e-14

    def test_mixed_arithmetic(self, single_x):
        m = mt.PenaltyMetric(single_x, 0.01)
        h = pauli.Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        assert abs(m.cost(h.vec) - np.sqrt(0.01 * 2 + 2)) < 1e-14

    def test_homogeneous(self, single_x):
        m = mt.PenaltyMetric(single_x, 0.3)
        rng = np.random.default_rng(0)
        h = pauli.random_hamiltonian(1, pauli.pauli_strings(1), rng)
        assert abs(m.cost(2.5 * h.vec) - 2.5 * m.cost(h.vec)) < 1e-12

    def test_epsilon_validated(self, single_x):
        with pytest.raises(PreconditionError):
            mt.PenaltyMetric(single_x, 0.0)

    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 1),
                                        ("ai", 2), ("ai", 3), ("ai", 4)])
    def test_matches_restricted_trace_form(self, kind, n):
        split = pauli.builtin_split(n, kind)
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((40, 4**n - 1)) * rng.uniform(0.01, 10.0, (40, 1))
        for eps in (1.0, 0.3, 1e-3):
            m = mt.PenaltyMetric(split, eps)
            stacked = m.cost(rows)
            for row, got in zip(rows, stacked):
                want = _ref_hamiltonian_cost(pauli.Hamiltonian(n, row), m)
                for value in (got, m.cost(row)):
                    assert abs(value - want) <= 4 * np.finfo(float).eps * want

    def test_weights_cached_and_read_only(self, two_local):
        m = mt.PenaltyMetric(two_local, 0.2)
        assert m.weights is m.weights
        assert np.array_equal(m.weights, np.where(two_local.l_mask, 0.2, 1.0))
        with pytest.raises(ValueError):
            m.weights[0] = 1.0


def _frechet_bch(l, p):
    """``B = -i Dexp(iL)[iP] exp(-iL)`` through SciPy's Frechet derivative."""
    lm = l.to_matrix()
    _, d = scipy.linalg.expm_frechet(1j * lm, 1j * p.to_matrix())
    return -1j * d @ scipy.linalg.expm(-1j * lm)


class TestBchOperator:
    def test_zero_exponent(self):
        p = pauli.Hamiltonian(1, {"Y": 0.8})
        assert np.array_equal(mt.bch_operator(pauli.Hamiltonian(1), p).vec, p.vec)

    def test_commuting_collapse(self):
        l = pauli.Hamiltonian(1, {"X": 0.5})
        p = pauli.Hamiltonian(1, {"X": -1.2})
        assert np.sqrt(2 * ((mt.bch_operator(l, p).vec - p.vec) ** 2).sum()) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defect_is_second_order(self, n):
        rng = np.random.default_rng(1)
        for _ in range(20):
            l = pauli.random_hamiltonian(n, pauli.pauli_strings(n), rng, norm=rng.uniform(0.3, 1.5))
            p = pauli.random_hamiltonian(n, pauli.pauli_strings(n), rng, norm=rng.uniform(0.3, 1.5))
            b = mt.bch_operator(l, p)

            def defect(delta):
                lhs = expm(1j * (l.to_matrix() + delta * p.to_matrix()))
                rhs = expm(1j * delta * b.to_matrix()) @ expm(1j * l.to_matrix())
                return np.linalg.norm(lhs - rhs)

            slope = np.log2(defect(1e-2) / defect(5e-3))
            assert abs(slope - 2.0) < 0.1

    def test_large_exponent_accepted(self):
        # the operator is exact at any norm of L
        l = pauli.Hamiltonian(1, {"X": 3.0 / np.sqrt(2.0)})
        p = pauli.Hamiltonian(1, {"Z": 1.0})
        assert abs(l.norm() - 3.0) < 1e-14
        assert np.max(np.abs(mt.bch_operator(l, p).to_matrix() - _frechet_bch(l, p))) <= 1e-13
        bch = mt.bch_matrix(l, pauli.builtin_split(1, "single_x"))
        assert np.max(np.abs(bch - [[1.0]])) <= 1e-13  # X commutes with L

    @pytest.mark.parametrize("norm", [0.5, 3.0, 10.0, 40.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operator_matches_frechet_oracle(self, n, norm):
        rng = np.random.default_rng(100 * n + int(norm))
        strings = pauli.pauli_strings(n)
        for _ in range(3):
            l = pauli.random_hamiltonian(n, strings, rng, norm=norm)
            p = pauli.random_hamiltonian(n, strings, rng, norm=1.0)
            got = mt.bch_operator(l, p).to_matrix()
            assert np.max(np.abs(got - _frechet_bch(l, p))) <= 1e-13

    @pytest.mark.parametrize("norm", [0.5, 3.0, 10.0, 40.0])
    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 3)])
    def test_matrix_matches_frechet_oracle(self, kind, n, norm):
        split = pauli.builtin_split(n, kind)
        l = pauli.random_hamiltonian(n, split.l_basis, np.random.default_rng(int(norm)), norm=norm)
        stack = pauli.dense_basis(n)[split.l_mask]
        want = np.array([
            np.einsum("kij,ji->k", stack, _frechet_bch(l, pauli.Hamiltonian(n, {s: 1.0}))).real
            for s in split.l_basis
        ]).T / 2**n
        assert np.max(np.abs(mt.bch_matrix(l, split) - want)) <= 1e-13

    def test_matrix_order_follows_the_split_document(self, two_local):
        # l listed out of canonical order: rows keep pauli_strings(n) order,
        # columns follow the document
        doc = {"l": list(reversed(two_local.l_basis)), "p": list(two_local.p_basis),
               "z": list(two_local.z_basis)}
        split = split_from_json(doc)
        strings = pauli.pauli_strings(2)
        rows = [s for s in strings if s in split.l_basis]
        assert list(split.l_basis) != rows
        l = pauli.random_hamiltonian(2, split.l_basis, np.random.default_rng(4), norm=2.5)
        bch = mt.bch_matrix(l, split)
        for col, s in zip(bch.T, split.l_basis):
            want = _frechet_bch(l, pauli.Hamiltonian(2, {s: 1.0}))
            coeffs = [np.trace(pauli.pauli_matrix(r) @ want).real / 4 for r in rows]
            assert np.max(np.abs(col - coeffs)) <= 1e-13
        builtin = mt.bch_matrix(l, two_local)
        assert np.max(np.abs(bch - builtin[:, ::-1])) <= 1e-15

    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 3)])
    def test_matrix_columns_are_operators(self, kind, n):
        split = pauli.builtin_split(n, kind)
        l = pauli.random_hamiltonian(n, split.l_basis, np.random.default_rng(10), norm=1.5)
        bch = mt.bch_matrix(l, split)
        assert bch.shape == (len(split.l_basis), len(split.l_basis))
        for col, s in zip(bch.T, split.l_basis):
            want = mt.bch_operator(l, pauli.Hamiltonian(n, {s: 1.0})).vec[split.l_mask]
            assert np.max(np.abs(col - want)) <= 1e-15


class TestPullbackGram:
    def test_zero_base_structure(self, single_x):
        # at the origin the diagonal is (eps, 1, eps); the corner block is
        # eps exactly (the two free legs are redundant there), so it passes
        # the 1e-5 vanishing check only in the small-eps regime
        eps = 1e-6
        metric = mt.PenaltyMetric(single_x, eps)
        zero = (pauli.Hamiltonian(1), pauli.Hamiltonian(1), pauli.Hamiltonian(1))
        gram = mt.pullback_gram(zero, metric)
        want = np.diag([eps, 1.0, eps])
        assert np.max(np.abs(gram.gram - want)) < 1e-5
        assert np.max(np.abs(gram.block(1, 1) - eps)) < 1e-9

    def test_center_block_identity(self, two_local):
        metric = mt.PenaltyMetric(two_local, 1e-5)
        gram = mt.pullback_gram(random_base(two_local, np.random.default_rng(2)), metric)
        eye = np.eye(len(two_local.z_basis))
        assert np.max(np.abs(gram.block(2, 2) - eye)) < 1e-5

    def test_exact_zero_off_blocks(self, single_x):
        # the (1,2) and (2,3) blocks vanish identically, not just as eps -> 0
        metric = mt.PenaltyMetric(single_x, 0.05)
        gram = mt.pullback_gram(random_base(single_x, np.random.default_rng(3)), metric)
        assert np.max(np.abs(gram.block(1, 2))) < 1e-8
        assert np.max(np.abs(gram.block(2, 3))) < 1e-8

    def test_corner_block_scales_with_eps(self, single_x):
        base = random_base(single_x, np.random.default_rng(4))
        g_big = mt.pullback_gram(base, mt.PenaltyMetric(single_x, 2e-4))
        g_small = mt.pullback_gram(base, mt.PenaltyMetric(single_x, 1e-4))
        ratio = g_big.block(1, 3) / g_small.block(1, 3)
        assert np.allclose(ratio, 2.0, rtol=1e-3)

    def test_gram_symmetry(self, two_local):
        metric = mt.PenaltyMetric(two_local, 1e-4)
        gram = mt.pullback_gram(random_base(two_local, np.random.default_rng(5)), metric)
        assert gram.sym_residual < 1e-8
        assert not gram.step_degenerate

    def test_first_block_eps_linearity(self, single_x):
        base = random_base(single_x, np.random.default_rng(6))
        g1 = mt.pullback_gram(base, mt.PenaltyMetric(single_x, 2e-5))
        g2 = mt.pullback_gram(base, mt.PenaltyMetric(single_x, 1e-5))
        assert np.allclose(g1.block(1, 1), 2.0 * g2.block(1, 1), rtol=1e-4)

    @pytest.mark.parametrize("zero_z", [False, True])
    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 3)])
    def test_matches_per_direction_reference(self, kind, n, zero_z):
        split = pauli.builtin_split(n, kind)
        metric = mt.PenaltyMetric(split, 1e-5)
        l, z, m = random_base(split, np.random.default_rng(11), norms=(0.9, 0.7, 0.5))
        base = (l, pauli.Hamiltonian(n) if zero_z else z, m)
        gram = mt.pullback_gram(base, metric)
        want = _ref_fd_gram(base, metric, 1e-4)
        want_half = _ref_fd_gram(base, metric, 5e-5)
        assert np.max(np.abs(gram.gram - want)) <= 1e-10
        assert abs(gram.check_delta - np.max(np.abs(want - want_half))) <= 1e-10

    def test_custom_basis_order(self, two_local):
        # a split file may list its strings in any order; the coordinate
        # directions and the BCH columns must follow that order
        split = dataclasses.replace(
            two_local, l_basis=two_local.l_basis[::-1], z_basis=two_local.z_basis[::-1]
        )
        metric = mt.PenaltyMetric(split, 1e-5)
        base = random_base(split, np.random.default_rng(12), norms=(0.9, 0.7, 0.5))
        gram = mt.pullback_gram(base, metric)
        assert np.max(np.abs(gram.gram - _ref_fd_gram(base, metric, 1e-4))) <= 1e-10
        assert mt.verify_gram_structure(gram, metric).all_ok

    def test_step_validation(self, single_x):
        metric = mt.PenaltyMetric(single_x, 1e-4)
        zero = (pauli.Hamiltonian(1), pauli.Hamiltonian(1), pauli.Hamiltonian(1))
        with pytest.raises(PreconditionError):
            mt.pullback_gram(zero, metric, fd_step=1e-2)


class TestGramStructure:
    @pytest.mark.parametrize(
        "kind,n,samples", [("single_x", 1, 6), ("two_local", 2, 3), ("ai", 4, 1)]
    )
    def test_random_bases_pass(self, kind, n, samples):
        split = pauli.builtin_split(n, kind)
        metric = mt.PenaltyMetric(split, 1e-5)
        rng = np.random.default_rng(7)
        for _ in range(samples):
            norms = rng.uniform(0.2, 1.0, 3)
            gram = mt.pullback_gram(random_base(split, rng, norms), metric)
            report = mt.verify_gram_structure(gram, metric)
            assert report.all_ok, report

    def test_first_block_matches_bch_prediction(self, two_local):
        metric = mt.PenaltyMetric(two_local, 1e-4)
        rng = np.random.default_rng(8)
        base = random_base(two_local, rng, norms=(1.0, 0.6, 0.6))
        gram = mt.pullback_gram(base, metric)
        bch = mt.bch_matrix(base[0], two_local)
        predicted = metric.epsilon * bch.T @ bch
        rel = np.linalg.norm(gram.block(1, 1) - predicted) / np.linalg.norm(predicted)
        assert rel < 1e-4

    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 3)])
    def test_zero_z_base_checks_last_block(self, kind, n):
        # at Z = 0 the last block is eps * B_M^T B_M, which is eps * I only
        # for an abelian l (single_x)
        split = pauli.builtin_split(n, kind)
        metric = mt.PenaltyMetric(split, 1e-5)
        rng = np.random.default_rng(9)
        base = (
            pauli.random_hamiltonian(n, split.l_basis, rng, norm=0.6),
            pauli.Hamiltonian(n),
            pauli.random_hamiltonian(n, split.l_basis, rng, norm=0.6),
        )
        gram = mt.pullback_gram(base, metric)
        report = mt.verify_gram_structure(gram, metric)
        assert report.last_block_zero_base_dev is not None
        assert report.all_ok, report


class TestGramThresholds:
    """Each threshold of verify_gram_structure, pinned by a synthetic single_x
    Gram that misses it by one part in 1e3 on either side."""

    EPS = 1e-2

    @pytest.mark.parametrize("check", ["offdiag", "center", "first", "psd", "zero_base"])
    @pytest.mark.parametrize("factor,ok", [(1 - 1e-3, True), (1 + 1e-3, False)])
    def test_threshold(self, single_x, check, factor, ok):
        metric = mt.PenaltyMetric(single_x, self.EPS)
        l, m = pauli.Hamiltonian(1, {"X": 0.4}), pauli.Hamiltonian(1, {"X": 0.7})
        z = pauli.Hamiltonian(1, {} if check == "zero_base" else {"Z": 0.3})
        first, last = (self.EPS * (b.T @ b)[0, 0]
                       for b in (mt.bch_matrix(h, single_x) for h in (l, m)))
        g = np.diag([first, 1.0, last])  # the predicted structure, exactly
        if check == "offdiag":
            g[0, 2] = g[2, 0] = 1e-4 * factor
        elif check == "center":
            g[1, 1] += 1e-5 * factor
        elif check == "first":
            g[0, 0] *= 1.0 + 1e-4 * factor
        elif check == "psd":
            g[2, 2] = -1e-8 * factor
        else:
            g[2, 2] += self.EPS * 1e-4 * factor
        gram = mt.CoordinateGram(base=(l, z, m), gram=g, fd_step=1e-4, sym_residual=0.0,
                                 check_delta=0.0, step_degenerate=False, _n_l=1, _n_z=1)
        report = mt.verify_gram_structure(gram, metric)
        flag = {"offdiag": report.offdiag_ok, "center": report.center_ok,
                "first": report.first_block_ok, "psd": report.last_block_psd,
                "zero_base": report.last_block_ok}[check]
        assert flag == ok and report.all_ok == ok
        assert (report.last_block_zero_base_dev is None) == (check != "zero_base")
