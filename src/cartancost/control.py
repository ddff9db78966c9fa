"""Discretized optimal-control oracle for the small-penalty limit.

Piecewise-constant control paths are optimized under the penalty cost with a
quadratic endpoint penalty; as the penalty weight epsilon shrinks, the
numerical optimum must converge to the analytic lattice cost.  The objective
comes with its exact gradient (GRAPE-style: prefix and suffix products of
the segment propagators, with each propagator's derivative taken from its
eigendecomposition), and L-BFGS-B descends it.  All segment propagators of
a path come from one stacked eigendecomposition.  The explicit three-leg
path exp(iL') exp(iZ') exp(iM) built from the lattice-shifted KAK factors
realizes the upper bound  analytic + sqrt(eps) * (|L'| + |M|)  and doubles
as the optimizer's warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .cost import CostReport, optimal_cost
from .errors import ConvergenceFailure, PreconditionError
from .linalg import frobenius_distance, hermitian_exp, is_unitary, log_special_orthogonal
from .metric import PenaltyMetric, hamiltonian_cost
from .pauli import CartanSplit, Hamiltonian, dense_basis

__all__ = [
    "ControlPath",
    "evolve",
    "path_cost",
    "optimal_feasible_path",
    "optimize_path",
    "SweepResult",
    "epsilon_sweep",
]

_LAMBDA_SCHEDULE = (10.0, 1e2, 1e3, 1e4)


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Ordered piecewise-constant schedule; every duration is positive."""

    segments: tuple[tuple[Hamiltonian, float], ...]

    def __post_init__(self):
        for _, dt in self.segments:
            if dt <= 0:
                raise PreconditionError("segment durations must be positive")


def _ordered_product(props: np.ndarray) -> np.ndarray:
    u = props[0]
    for p in props[1:]:
        u = p @ u
    return u


def evolve(path: ControlPath) -> np.ndarray:
    """Ordered product of segment propagators, later segments on the left."""
    if not path.segments:
        raise PreconditionError("cannot evolve an empty path without a dimension")
    h = np.stack([h.to_matrix() for h, _ in path.segments])
    durations = np.array([dt for _, dt in path.segments], dtype=float)
    return _ordered_product(hermitian_exp(h, durations)[2])


def path_cost(path: ControlPath, metric: PenaltyMetric) -> float:
    """Sum of per-segment costs; exactly reparameterization invariant."""
    return float(
        sum(hamiltonian_cost(h, metric) * dt for h, dt in path.segments)
    )


def _even_sign_patterns(n: int):
    for bits in range(2 ** (n - 1)):
        pattern = np.ones(n)
        for k in range(n - 1):
            if bits >> k & 1:
                pattern[k] = -1.0
        if int((pattern < 0).sum()) % 2 == 1:
            pattern[-1] = -1.0
        yield pattern


def optimal_feasible_path(report: CostReport) -> ControlPath:
    """Unit-time three-leg path hitting the analytic optimum up to the free-leg cost.

    The lattice shift is absorbed into the left orthogonal factor (an even
    sign pattern keeps it special orthogonal), so the middle leg's generator
    has trace norm exactly equal to the reported cost.  The residual freedom
    A -> AF, B -> BF over even sign patterns F (which commute with the
    diagonal factor) is used to shrink the free legs.
    """
    factors = report.factors
    split = factors.split
    q = split.q
    signs = np.where(np.asarray(report.lattice_point) % 2 == 0, 1.0, -1.0)
    a_shifted = factors.a * signs[None, :]

    best = None
    for pattern in _even_sign_patterns(a_shifted.shape[0]):
        log_a = log_special_orthogonal(a_shifted * pattern[None, :])
        log_bt = log_special_orthogonal((factors.b * pattern[None, :]).T)
        size = np.linalg.norm(log_a) + np.linalg.norm(log_bt)
        if best is None or size < best[0]:
            best = (size, log_a, log_bt)
    _, log_a, log_bt = best

    l_dense = q @ (-1j * log_a) @ q.conj().T
    m_dense = q @ (-1j * log_bt) @ q.conj().T
    z_dense = q @ np.diag(report.shifted_phases).astype(complex) @ q.conj().T
    l_new = Hamiltonian.from_matrix(l_dense).restrict(split.l_basis)
    z_new = Hamiltonian.from_matrix(z_dense).restrict(split.z_basis)
    m_old = Hamiltonian.from_matrix(m_dense).restrict(split.l_basis)
    dt = 1.0 / 3.0
    scale = -1.0 / dt
    return ControlPath(
        (
            (m_old * scale, dt),   # applied first: exp(iM)
            (z_new * scale, dt),
            (l_new * scale, dt),   # applied last: exp(iL')
        )
    )


class _Objective:
    """Penalty objective over per-segment coefficient rows (full Pauli basis).

    The value is ``cost + lam * D^2`` with ``D`` the endpoint distance modulo
    global phase, ``D^2 = 2N - 2|tr(T^+ U)|``.
    """

    def __init__(self, target, metric: PenaltyMetric, durations):
        split = metric.split
        stack = dense_basis(split.n)[1]
        k, dim = stack.shape[0], stack.shape[1]
        self.basis = stack.reshape(k, dim * dim)
        # tr(W P_k) for a stack of W is one product with the transposed basis
        self.basis_t = stack.transpose(0, 2, 1).reshape(k, dim * dim).T
        self.durations = np.asarray(durations, dtype=float)
        self.target = target
        self.target_h = target.conj().T
        self.dim = dim
        self.weights = np.where(split.l_mask, metric.epsilon, 1.0)
        self.scale = 2.0**split.n

    def _segments(self, rows: np.ndarray):
        h = (rows @ self.basis).reshape(-1, self.dim, self.dim)
        return hermitian_exp(h, self.durations)

    def cost(self, rows: np.ndarray) -> float:
        return float(self._speeds(rows) @ self.durations)

    def _speeds(self, rows: np.ndarray) -> np.ndarray:
        return np.sqrt(self.scale * ((rows * rows) @ self.weights))

    def endpoint(self, rows: np.ndarray) -> float:
        u = _ordered_product(self._segments(rows)[2])
        return frobenius_distance(u, self.target, mod_global_phase=True)

    def value_and_grad(self, rows: np.ndarray, lam: float):
        """Penalized value and its exact gradient with respect to ``rows``.

        Each propagator's derivative comes from its eigendecomposition
        (Daleckii-Krein): ``dU_s = V (G o V^+ dH V) V^+`` with the divided
        differences ``G_ab = (e^{-i w_a dt} - e^{-i w_b dt}) / (w_a - w_b)``,
        written as ``-i dt e^{-i (w_a + w_b) dt / 2} sinc((w_a - w_b) dt / 2)``
        so that it is exact at and near coinciding eigenvalues, where it
        tends to ``-i dt e^{-i w_a dt}``.
        """
        dts = self.durations
        w, v, props = self._segments(rows)
        segments = len(props)
        # prefix[s] = U_{s-1}...U_0 and suffix[s] = U_{S-1}...U_{s+1}
        prefix = [np.eye(self.dim, dtype=complex)]
        for p in props[:-1]:
            prefix.append(p @ prefix[-1])
        suffix = [np.eye(self.dim, dtype=complex)]
        for p in props[:0:-1]:
            suffix.append(suffix[-1] @ p)
        suffix.reverse()
        overlap = np.trace(self.target_h @ props[-1] @ prefix[-1])
        # d tr(T^+ U) = tr(M_s dU_s) with M_s = prefix_s T^+ suffix_s
        m = np.stack([prefix[s] @ self.target_h @ suffix[s] for s in range(segments)])
        vh = v.conj().swapaxes(1, 2)
        gap = (w[:, :, None] - w[:, None, :]) * dts[:, None, None] / 2.0
        half = np.exp(-0.5j * w * dts[:, None])
        g = -1j * dts[:, None, None] * half[:, :, None] * half[:, None, :] * np.sinc(gap / np.pi)
        x = (vh @ m @ v) * g
        d_overlap = (v @ x @ vh).reshape(segments, -1) @ self.basis_t
        size = abs(overlap)
        unit = overlap / size if size > 0.0 else 1.0
        endpoint_sq = 2.0 * self.dim - 2.0 * size
        endpoint_grad = -2.0 * (np.conj(unit) * d_overlap).real

        speeds = self._speeds(rows)
        # a row at zero speed is all zeros, so its gradient is zero too
        safe = np.where(speeds > 0.0, speeds, 1.0)
        cost_grad = self.scale * self.weights * rows * (dts / safe)[:, None]
        value = float(speeds @ dts) + lam * endpoint_sq
        return value, cost_grad + lam * endpoint_grad


def _descend(obj: _Objective, rows: np.ndarray, lam: float,
             max_iter: int) -> np.ndarray:
    shape = rows.shape

    def fun(flat):
        value, grad = obj.value_and_grad(flat.reshape(shape), lam)
        return value, grad.ravel()

    res = scipy.optimize.minimize(
        fun, rows.ravel(), jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter},
    )
    return res.x.reshape(shape)


def optimize_path(
    target,
    metric: PenaltyMetric,
    segments: int = 3,
    restarts: int = 2,
    seed: int = 0,
    init_paths=(),
    endpoint_tol: float = 1e-4,
    max_iter: int = 2000,
) -> tuple[ControlPath, float]:
    """Best-of-restarts local search for a cheap path reaching ``target``.

    L-BFGS-B minimization, on exact gradients, over segment coefficients
    under a quadratic endpoint penalty whose weight follows the continuation
    schedule 10..1e4; ``max_iter`` caps the L-BFGS-B iterations of each
    stage of that schedule.  ``init_paths`` seed extra starts (e.g. the
    analytic feasible path) and also stand as candidate answers in their own
    right; ``restarts`` random starts are added.  The reported cost excludes the
    penalty term.
    """
    target = np.asarray(target, dtype=complex)
    if segments < 3:
        raise PreconditionError("need at least 3 segments")
    if restarts < 0:
        raise PreconditionError("restarts must be non-negative")
    if not is_unitary(target, 1e-9):
        raise PreconditionError("target is not unitary")
    n = metric.split.n
    durations = np.full(segments, 1.0 / segments)
    obj = _Objective(target, metric, durations)
    rng = np.random.default_rng(seed)

    starts = []
    for path in init_paths:
        rows = np.zeros((segments, 4**n - 1))
        if len(path.segments) > segments:
            raise PreconditionError("init path has more segments than requested")
        # place the init legs on an equal-duration grid, rescaling each
        # generator so the per-leg propagator is unchanged
        for i, (h, dt) in enumerate(path.segments):
            rows[i] = h.vec * (dt / durations[i])
        starts.append(rows)
    for _ in range(restarts):
        starts.append(rng.standard_normal((segments, 4**n - 1)) * 0.4)
    if not starts:
        raise PreconditionError("need at least one start (restarts or init_paths)")

    candidates = list(starts)  # a seed path is itself a valid answer
    for rows in starts:
        for lam in _LAMBDA_SCHEDULE:
            rows = _descend(obj, rows, lam, max_iter=max_iter)
        candidates.append(rows)

    best_rows, best_key = None, None
    for rows in candidates:
        residual = obj.endpoint(rows)
        key = (residual > endpoint_tol, obj.cost(rows) if residual <= endpoint_tol else residual)
        if best_key is None or key < best_key:
            best_key, best_rows = key, rows
    failed, value = best_key
    if failed:
        raise ConvergenceFailure(
            "endpoint residual did not reach tolerance", residual=value
        )
    segs = tuple((Hamiltonian(n, row), float(dt)) for row, dt in zip(best_rows, durations))
    return ControlPath(segs), float(obj.cost(best_rows))


@dataclass(eq=False)
class SweepResult:
    """Numeric optima across descending penalty weights for one target.

    ``within_bounds`` records, per epsilon, membership in the bracket
    [analytic - slack - margin, analytic + slack + margin] with
    slack = sqrt(eps) * (|L'| + |M|) from the explicit feasible path.
    """

    epsilon_values: np.ndarray
    numeric_costs: np.ndarray
    analytic_cost: float
    endpoint_residuals: np.ndarray
    feasible_costs: np.ndarray = field(default=None)
    converged: np.ndarray = field(default=None)
    within_bounds: np.ndarray = field(default=None)

    @property
    def ok(self) -> bool:
        return bool(np.all(self.converged) and np.all(self.within_bounds))


def epsilon_sweep(
    target,
    split: CartanSplit,
    epsilons,
    segments: int = 3,
    restarts: int = 2,
    seed: int = 0,
    endpoint_tol: float = 1e-4,
    max_iter: int = 2000,
) -> SweepResult:
    """Optimize the target at each penalty weight and compare to the
    analytic cost.  Epsilons must be descending; per-epsilon optimizer
    failures leave NaN entries rather than aborting the sweep.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if len(eps) == 0 or np.any(np.diff(eps) >= 0):
        raise PreconditionError("epsilons must be strictly descending")
    report = optimal_cost(target, split)
    analytic = report.cost
    feasible = optimal_feasible_path(report)
    free_norm = sum(
        h.norm() * dt for h, dt in (feasible.segments[0], feasible.segments[2])
    )

    numeric = np.full(len(eps), np.nan)
    residuals = np.full(len(eps), np.nan)
    feasible_costs = np.empty(len(eps))
    converged = np.zeros(len(eps), dtype=bool)
    within = np.zeros(len(eps), dtype=bool)
    for i, e in enumerate(eps):
        metric = PenaltyMetric(split, float(e))
        feasible_costs[i] = path_cost(feasible, metric)
        slack = np.sqrt(e) * free_norm
        margin = 1e-3 * max(analytic, 1.0) + 10.0 * endpoint_tol
        try:
            path, value = optimize_path(
                target, metric, segments=segments, restarts=restarts,
                seed=seed + i, init_paths=(feasible,),
                endpoint_tol=endpoint_tol, max_iter=max_iter,
            )
        except ConvergenceFailure as err:
            residuals[i] = err.residual if err.residual is not None else np.nan
            continue
        numeric[i] = value
        residuals[i] = _endpoint_of(path, target)
        converged[i] = True
        within[i] = (analytic - slack - margin) <= value <= (analytic + slack + margin)
    return SweepResult(
        epsilon_values=eps,
        numeric_costs=numeric,
        analytic_cost=float(analytic),
        endpoint_residuals=residuals,
        feasible_costs=feasible_costs,
        converged=converged,
        within_bounds=within,
    )


def _endpoint_of(path: ControlPath, target) -> float:
    return frobenius_distance(evolve(path), target, mod_global_phase=True)
