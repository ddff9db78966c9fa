import numpy as np
import pytest

from cartancost import control as ct
from cartancost import cost, metric as mt, pauli
from cartancost import linalg as la
from cartancost.errors import PreconditionError


@pytest.fixture(scope="module")
def single_x():
    return pauli.builtin_split(1, "single_x")


class TestEvolve:
    def test_single_segment(self):
        h = pauli.Hamiltonian(1, {"Z": 1.0})
        assert np.allclose(ct.evolve([0.7 * h.vec]), la.expm(-1j * 0.7 * h.to_matrix()))

    def test_segment_splitting(self):
        a = pauli.Hamiltonian(1, {"X": 0.4, "Y": -0.9}).vec
        b = pauli.Hamiltonian(1, {"Z": 1.3, "X": 0.2}).vec
        assert np.linalg.norm(ct.evolve([a]) - ct.evolve([a, a])) < 1e-12
        assert np.linalg.norm(ct.evolve([a, b]) - ct.evolve([a, a, a, b, b, b])) < 1e-12

    def test_later_segments_on_left(self):
        a = pauli.Hamiltonian(1, {"X": 1.0})
        b = pauli.Hamiltonian(1, {"Z": 1.0})
        want = la.expm(-0.5j * b.to_matrix()) @ la.expm(-0.5j * a.to_matrix())
        assert np.allclose(ct.evolve([a.vec, b.vec]), want)

    def test_special_unitary_output(self):
        rng = np.random.default_rng(0)
        rows = [pauli.random_hamiltonian(1, pauli.pauli_strings(1), rng).vec for _ in range(4)]
        u = ct.evolve(rows)
        assert la.is_unitary(u, 1e-9) and abs(np.linalg.det(u) - 1) <= 1e-9


class TestControlPath:
    @pytest.mark.parametrize("rows,message", [
        (np.zeros(3), "one or more coefficient rows"),
        (np.zeros((0, 3)), "one or more coefficient rows"),
        (np.zeros((1, 4)), "is not 4\\*\\*n - 1"),
        (np.zeros((1, 1023)), "is not 4\\*\\*n - 1"),
    ], ids=["one-dim-rows", "no-segments", "width-4", "width-1023"])
    def test_malformed_paths_refused(self, rows, message):
        with pytest.raises(PreconditionError, match=message):
            ct.evolve(rows)

    def test_read_only_copies(self):
        rows = np.ones((2, 15))
        stored, n = ct._rows(rows)
        rows[0, 0] = 7.0
        assert stored[0, 0] == 1.0 and n == 2
        with pytest.raises(ValueError):
            stored[0, 0] = 2.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", ["evolve", "path_cost", "init_paths"])
    def test_non_finite_rows_refused(self, single_x, call, entry):
        rows = np.array([[0.3, -0.2, 0.1], [entry, 0.0, 0.0], [0.0, 0.5, 0.0]])
        metric = mt.PenaltyMetric(single_x, 1e-2)
        with pytest.raises(PreconditionError, match="finite"):
            if call == "evolve":
                ct.evolve(rows)
            elif call == "path_cost":
                ct.path_cost(rows, metric)
            else:
                ct.optimize_path(np.eye(2, dtype=complex), metric, restarts=0,
                                 init_paths=(rows,))


def _ref_even_sign_patterns(n):
    for bits in range(2 ** (n - 1)):
        pattern = np.ones(n)
        for k in range(n - 1):
            if bits >> k & 1:
                pattern[k] = -1.0
        if int((pattern < 0).sum()) % 2 == 1:
            pattern[-1] = -1.0
        yield pattern


def _ref_optimal_feasible_path(report):
    """The three rows of the feasible path as the sign-pattern loop built
    them when the path was a tuple of (Hamiltonian, dt) segments."""
    factors = report.factors
    split = factors.split
    q = split.q
    signs = np.where(np.asarray(report.lattice_point) % 2 == 0, 1.0, -1.0)
    a_shifted = factors.a * signs[None, :]

    best = None
    for pattern in _ref_even_sign_patterns(a_shifted.shape[0]):
        log_a = la.log_special_orthogonal(a_shifted * pattern[None, :])
        log_bt = la.log_special_orthogonal((factors.b * pattern[None, :]).T)
        size = np.linalg.norm(log_a) + np.linalg.norm(log_bt)
        if best is None or size < best[0]:
            best = (size, log_a, log_bt)
    _, log_a, log_bt = best

    l_dense = q @ (-1j * log_a) @ q.conj().T
    m_dense = q @ (-1j * log_bt) @ q.conj().T
    z_dense = q @ np.diag(report.shifted_phases).astype(complex) @ q.conj().T
    l_new = np.where(split.l_mask, pauli.Hamiltonian.from_matrix(l_dense).vec, 0.0)
    z_new = np.where(split.z_mask, pauli.Hamiltonian.from_matrix(z_dense).vec, 0.0)
    m_old = np.where(split.l_mask, pauli.Hamiltonian.from_matrix(m_dense).vec, 0.0)
    dt = 1.0 / 3.0
    scale = -1.0 / dt
    return np.stack([m_old * scale, z_new * scale, l_new * scale])


class TestOneArithmetic:
    """The sign patterns and the feasible path each have one implementation,
    pinned against the loops they replaced."""

    def test_sign_patterns_match_reference(self):
        for n in (1, 2, 3, 4, 5, 8, 16):
            got, want = list(ct._even_sign_patterns(n)), list(_ref_even_sign_patterns(n))
            assert len(got) == len(want) and all(map(np.array_equal, got, want))

    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2)])
    def test_feasible_rows_match_reference(self, kind, n):
        split = pauli.builtin_split(n, kind)
        for seed in range(6):
            report = cost.optimal_cost(la.haar_random_special_unitary(2**n, 300 + seed), split)
            rows = ct.optimal_feasible_path(report)
            assert np.array_equal(rows, _ref_optimal_feasible_path(report))
            assert not rows.flags.writeable


class TestPathCost:
    def test_expensive_unit_segment(self, single_x):
        metric = mt.PenaltyMetric(single_x, 1e-2)
        h = pauli.Hamiltonian(1, {"Z": 1.0 / np.sqrt(2)})  # unit trace norm
        assert abs(ct.path_cost([0.6 * h.vec], metric) - 0.6) < 1e-12

    def test_free_segment(self, single_x):
        metric = mt.PenaltyMetric(single_x, 1e-2)
        h = pauli.Hamiltonian(1, {"X": 1.0})
        want = np.sqrt(1e-2) * h.norm() * 0.5
        assert abs(ct.path_cost([0.5 * h.vec], metric) - want) < 1e-12

    def test_reparameterization_invariance(self, single_x):
        # the same path at triple speed, then at rest; and each row split in equal sub-rows
        metric = mt.PenaltyMetric(single_x, 0.3)
        rng = np.random.default_rng(1)
        a, b = (pauli.random_hamiltonian(1, pauli.pauli_strings(1), rng).vec for _ in range(2))
        c = ct.path_cost([a], metric)
        assert abs(c - ct.path_cost([3.0 * a, 0.0 * a, 0.0 * a], metric)) < 1e-12
        assert abs(c - ct.path_cost([a, a, a], metric)) < 1e-12
        assert abs(ct.path_cost([a, b], metric) - ct.path_cost([a, a, b, b], metric)) < 1e-12

    def test_qubit_count_must_match(self, single_x):
        with pytest.raises(PreconditionError, match="qubit counts"):
            ct.path_cost(np.ones((1, 15)), mt.PenaltyMetric(single_x, 0.1))


class TestFeasiblePath:
    @pytest.mark.parametrize("kind,n,dim", [("single_x", 1, 2), ("two_local", 2, 4)])
    def test_reaches_target_and_bounds_cost(self, kind, n, dim):
        split = pauli.builtin_split(n, kind)
        for seed in range(4):
            u = la.haar_random_special_unitary(dim, 600 + seed)
            report = cost.optimal_cost(u, split)
            rows = ct.optimal_feasible_path(report)
            assert la.frobenius_distance(ct.evolve(rows), u) < 1e-9
            for eps in (1e-2, 1e-4):
                metric = mt.PenaltyMetric(split, eps)
                assert ct.path_cost(rows, metric) >= report.cost - 1e-12

    def test_middle_leg_norm_is_analytic_cost(self, single_x):
        u = la.haar_random_special_unitary(2, 77)
        report = cost.optimal_cost(u, single_x)
        h_mid = pauli.Hamiltonian(1, ct.optimal_feasible_path(report)[1])
        assert abs(h_mid.norm() / 3.0 - report.cost) < 1e-10


class TestOptimizePath:
    def test_identity_target(self, single_x):
        metric = mt.PenaltyMetric(single_x, 1e-2)
        _, value = ct.optimize_path(
            np.eye(2, dtype=complex), metric, segments=3, restarts=1, seed=0
        )
        assert value <= 1e-6

    def test_free_target_upper_bound(self, single_x):
        k = pauli.Hamiltonian(1, {"X": 0.6})
        u = la.expm(1j * k.to_matrix())
        report = cost.optimal_cost(u, single_x)
        rows = ct.optimal_feasible_path(report)
        metric = mt.PenaltyMetric(single_x, 1e-2)
        _, value = ct.optimize_path(
            u, metric, segments=3, restarts=1, seed=0, init_paths=(rows,)
        )
        assert value <= np.sqrt(1e-2) * k.norm() + 1e-3

    def test_segment_floor(self, single_x):
        with pytest.raises(PreconditionError):
            ct.optimize_path(np.eye(2, dtype=complex), mt.PenaltyMetric(single_x, 0.1), segments=2)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_floor(self, single_x, max_iter):
        with pytest.raises(PreconditionError, match="max_iter"):
            ct.optimize_path(np.eye(2, dtype=complex), mt.PenaltyMetric(single_x, 0.1),
                             max_iter=max_iter)

    def test_target_dimension_must_match_split(self, single_x):
        with pytest.raises(PreconditionError, match="does not match the split"):
            ct.optimize_path(np.eye(4, dtype=complex), mt.PenaltyMetric(single_x, 0.1))

    def test_init_path_qubit_count_must_match(self, single_x):
        two_local = pauli.builtin_split(2, "two_local")
        report = cost.optimal_cost(la.haar_random_special_unitary(4, 3), two_local)
        with pytest.raises(PreconditionError, match="qubit count"):
            ct.optimize_path(np.eye(2, dtype=complex), mt.PenaltyMetric(single_x, 0.1),
                             init_paths=(ct.optimal_feasible_path(report),))

    def test_result_is_the_reported_cost(self, single_x):
        u = la.haar_random_special_unitary(2, 8)
        metric = mt.PenaltyMetric(single_x, 1e-2)
        rows, value = ct.optimize_path(u, metric, segments=4, restarts=1, seed=0)
        assert rows.shape == (4, 3) and not rows.flags.writeable
        assert ct.path_cost(rows, metric) == value
        assert la.frobenius_distance(ct.evolve(rows), u) <= ct._ENDPOINT_TOL


def _ref_value_and_grad(target, metric, rows, lam):
    """The objective as per-segment loops built it: prefix and suffix lists,
    one M_s per segment, and the phases of both eigenvalues of each gap."""
    n = metric.split.n
    stack = pauli.dense_basis(n)
    dim, segments = 2**n, len(rows)
    slices = np.full(segments, 1.0 / segments)
    target_h = target.conj().T
    w, v = np.linalg.eigh(np.einsum("sk,kij->sij", rows, stack))
    props = [v[s] @ np.diag(np.exp(-1j * w[s] * slices[s])) @ v[s].conj().T
             for s in range(segments)]
    prefix, suffix = [np.eye(dim)], [np.eye(dim)]
    for s in range(segments - 1):
        prefix.append(props[s] @ prefix[-1])
        suffix.append(suffix[-1] @ props[segments - 1 - s])
    suffix.reverse()
    overlap = np.trace(target_h @ props[-1] @ prefix[-1])
    unit = overlap / abs(overlap)
    grad = np.empty_like(rows)
    for s in range(segments):
        dt, vs = slices[s], v[s]
        m = prefix[s] @ target_h @ suffix[s]
        gap = (w[s][:, None] - w[s][None, :]) * dt / 2.0
        half = np.exp(-0.5j * w[s] * dt)
        g = -1j * dt * np.outer(half, half) * np.sinc(gap / np.pi)
        for k, pk in enumerate(stack):
            du = vs @ ((vs.conj().T @ pk @ vs) * g) @ vs.conj().T
            grad[s, k] = -2.0 * (np.conj(unit) * np.trace(m @ du)).real
    speeds = metric.cost(rows)
    safe = np.where(speeds > 0.0, speeds, 1.0)
    cost_grad = 2.0**n * metric.weights * rows * (slices / safe)[:, None]
    value = speeds @ slices + lam * (2.0 * dim - 2.0 * abs(overlap))
    return value, cost_grad + lam * grad


class TestObjectiveGradient:
    @pytest.mark.parametrize("kind,n,segments", [
        pytest.param(kind, n, segments, id=f"{kind}-{n}" + ("" if segments == 3 else "-4-segments"))
        for segments in (3, 4) for kind, n in (("single_x", 1), ("two_local", 2), ("ai", 3))])
    @pytest.mark.parametrize("lam", [10.0, 1e4])
    def test_matches_central_differences(self, kind, n, segments, lam):
        split = pauli.builtin_split(n, kind)
        target = la.haar_random_special_unitary(2**n, 11)
        metric = mt.PenaltyMetric(split, 1e-2)
        obj = ct._Objective(target, metric, segments)
        rows = np.random.default_rng(n).standard_normal((segments, 4**n - 1)) * 0.4
        rows[1] = 0.0  # a segment at zero speed
        value, grad = obj.value_and_grad(rows.ravel(), lam)
        grad = grad.reshape(rows.shape)
        endpoint = la.frobenius_distance(ct.evolve(rows), target)
        assert abs(value - (ct.path_cost(rows, metric) + lam * endpoint**2)) <= 1e-9 * value
        step = 1e-6
        numeric = np.empty_like(rows)
        for idx in np.ndindex(rows.shape):
            up, down = rows.copy(), rows.copy()
            up[idx] += step
            down[idx] -= step
            numeric[idx] = (obj.value_and_grad(up.ravel(), lam)[0]
                            - obj.value_and_grad(down.ravel(), lam)[0]) / (2 * step)
        assert np.abs(grad - numeric).max() <= 1e-7 * np.abs(grad).max()

    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2), ("ai", 3)])
    @pytest.mark.parametrize("segments", [3, 5])
    def test_matches_per_segment_reference(self, kind, n, segments):
        # the stacked kernel reorders floating-point work, so equal to rounding, not bits
        split = pauli.builtin_split(n, kind)
        rng = np.random.default_rng(40 + n)
        for trial in range(4):
            target = la.haar_random_special_unitary(2**n, trial)
            metric = mt.PenaltyMetric(split, (1e-1, 1e-3)[trial % 2])
            rows = rng.standard_normal((segments, 4**n - 1)) * (0.05, 0.4, 3.0, 1.0)[trial]
            if trial == 3:
                rows[1] = 0.0  # a segment at zero speed
            obj = ct._Objective(target, metric, segments)
            value, grad = obj.value_and_grad(rows.ravel(), 1e3)
            want_value, want_grad = _ref_value_and_grad(target, metric, rows, 1e3)
            want_grad = want_grad.ravel()
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


class TestEpsilonSweep:
    def test_single_qubit_convergence(self, single_x):
        xm, zm = pauli.pauli_matrix("X"), pauli.pauli_matrix("Z")
        u = la.expm(-1j * 0.25 * xm) @ la.expm(-1j * 0.9 * zm) @ la.expm(-1j * 0.3 * xm)
        sweep = ct.epsilon_sweep(u, single_x, [1e-1, 1e-2, 1e-3], segments=3, restarts=1, seed=0)
        assert sweep.ok
        rel = np.abs(sweep.numeric_costs - sweep.analytic_cost) / sweep.analytic_cost
        assert rel[-1] <= 0.05
        assert np.all(np.diff(rel) <= 1e-4)
        assert np.all(sweep.endpoint_residuals <= 1e-4)

    def test_free_target_sqrt_eps_scaling(self, single_x):
        k = pauli.Hamiltonian(1, {"X": 0.6})
        u = la.expm(1j * k.to_matrix())
        sweep = ct.epsilon_sweep(u, single_x, [1e-1, 1e-2], segments=3, restarts=1, seed=5)
        expected = np.sqrt(sweep.epsilon_values) * k.norm()
        ratio = sweep.numeric_costs / expected
        assert np.all((ratio > 0.5) & (ratio < 2.0))

    def test_determinism(self, single_x):
        u = la.expm(-1j * 0.4 * pauli.pauli_matrix("Z"))
        s1 = ct.epsilon_sweep(u, single_x, [1e-1, 1e-2], segments=3, restarts=1, seed=9)
        s2 = ct.epsilon_sweep(u, single_x, [1e-1, 1e-2], segments=3, restarts=1, seed=9)
        assert np.array_equal(s1.numeric_costs, s2.numeric_costs)
        assert np.array_equal(s1.endpoint_residuals, s2.endpoint_residuals)

    def test_lambda_stages_reuse_bit_identical_parts(self, single_x):
        target = la.haar_random_special_unitary(2, 21)
        metric = mt.PenaltyMetric(single_x, 1e-2)
        rows = np.random.default_rng(21).standard_normal(9) * 0.4
        obj = ct._Objective(target, metric, 3)
        for lam in (10.0, 1e3):  # the second call reuses the first call's parts
            value, grad = obj.value_and_grad(rows, lam)
            fresh_value, fresh_grad = ct._Objective(target, metric, 3).value_and_grad(rows, lam)
            assert value == fresh_value and np.array_equal(grad, fresh_grad)

    def test_rows_mutated_in_place_are_not_served_from_the_cache(self, single_x):
        target = la.haar_random_special_unitary(2, 22)
        metric = mt.PenaltyMetric(single_x, 1e-2)
        rows = np.random.default_rng(22).standard_normal(9) * 0.4
        obj = ct._Objective(target, metric, 3)
        first_value, first_grad = obj.value_and_grad(rows, 10.0)
        rows[5] += 0.25
        value, grad = obj.value_and_grad(rows, 10.0)
        fresh_value, fresh_grad = ct._Objective(target, metric, 3).value_and_grad(rows, 10.0)
        assert value == fresh_value and np.array_equal(grad, fresh_grad)
        assert value != first_value and not np.array_equal(grad, first_grad)

    def test_epsilons_must_descend(self, single_x):
        with pytest.raises(PreconditionError):
            ct.epsilon_sweep(np.eye(2, dtype=complex), single_x, [1e-3, 1e-2])


class TestSweepInvariant:
    """The feasible path is a candidate at every epsilon and reaches the
    target to rounding, so no sweep row can fail and none costs more than it."""

    @pytest.mark.parametrize("segments", [3, 4])
    @pytest.mark.parametrize("kind,n", [("single_x", 1), ("two_local", 2)])
    def test_rows_converge_below_feasible_cost(self, kind, n, segments):
        split = pauli.builtin_split(n, kind)
        u = la.haar_random_special_unitary(2**n, 70 + n)
        sweep = ct.epsilon_sweep(u, split, [1e-1, 1e-2], segments=segments, restarts=1, seed=2)
        assert np.all(sweep.converged)
        assert np.all(sweep.endpoint_residuals <= ct._ENDPOINT_TOL)
        # at 3 segments the feasible rows are the candidate unchanged; at 4 they are
        # rescaled onto the grid, which moves their cost by rounding only
        slack = 0.0 if segments == 3 else 1e-12 * sweep.feasible_costs
        assert np.all(sweep.numeric_costs <= sweep.feasible_costs + slack)


class TestTwoQubitSweep:
    def test_su4_cnot_class(self):
        split = pauli.builtin_split(2, "two_local")
        rng = np.random.default_rng(77)
        k1 = pauli.random_hamiltonian(2, split.l_basis, rng, norm=0.3)
        k2 = pauli.random_hamiltonian(2, split.l_basis, rng, norm=0.3)
        u = (
            la.expm(1j * k1.to_matrix())
            @ la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX"))
            @ la.expm(1j * k2.to_matrix())
        )
        sweep = ct.epsilon_sweep(u, split, [1e-1, 1e-2, 1e-3], segments=3,
                                 restarts=0, seed=1)
        assert sweep.ok
        assert 0.95 * np.pi / 2 <= sweep.numeric_costs[1] <= 1.2 * np.pi / 2
        rel = abs(sweep.numeric_costs[-1] - sweep.analytic_cost) / sweep.analytic_cost
        assert rel <= 0.2


class TestNonConvergence:
    def test_unreachable_tolerance_raises(self, monkeypatch):
        from cartancost.errors import ConvergenceFailure

        monkeypatch.setattr(ct, "_ENDPOINT_TOL", 1e-16)
        split = pauli.builtin_split(1, "single_x")
        u = la.haar_random_special_unitary(2, 42)
        with pytest.raises(ConvergenceFailure) as exc:
            ct.optimize_path(
                u, mt.PenaltyMetric(split, 1e-2), segments=3, restarts=1,
                seed=0, max_iter=2,
            )
        assert exc.value.residual is not None and exc.value.residual > 1e-16

    def test_non_finite_optimizer_result_is_not_a_candidate(self, monkeypatch):
        # a non-finite L-BFGS-B result ranks below the finite starts, as a nan
        # residual did, rather than being refused as a caller's rows are
        class Result:
            x = np.full(9, np.nan)

        monkeypatch.setattr(ct.scipy.optimize, "minimize", lambda *args, **kwargs: Result)
        split = pauli.builtin_split(1, "single_x")
        u = la.haar_random_special_unitary(2, 5)
        feasible = ct.optimal_feasible_path(cost.optimal_cost(u, split))
        metric = mt.PenaltyMetric(split, 1e-2)
        rows, value = ct.optimize_path(u, metric, restarts=1, init_paths=(feasible,))
        assert np.array_equal(rows, feasible) and value == ct.path_cost(feasible, metric)

    def test_zero_starts_rejected(self):
        split = pauli.builtin_split(1, "single_x")
        with pytest.raises(PreconditionError):
            ct.optimize_path(
                np.eye(2, dtype=complex), mt.PenaltyMetric(split, 1e-2),
                segments=3, restarts=0, seed=0,
            )
