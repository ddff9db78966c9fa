"""Discretized optimal-control oracle for the small-penalty limit.

Piecewise-constant control paths are optimized under the penalty cost with a
quadratic endpoint penalty; as the penalty weight epsilon shrinks, the
numerical optimum must converge to the analytic lattice cost.  The objective
comes with its exact gradient (GRAPE-style: prefix products of the segment
propagators, with each propagator's derivative taken from its
eigendecomposition), and L-BFGS-B descends it under a rising endpoint weight
lambda.  All segment propagators of a path come from one stacked
eigendecomposition, ``linalg.hermitian_exp``, for :func:`evolve` too.  On
2^n x 2^n matrices an evaluation's time goes to NumPy calls, not arithmetic,
so the objective builds its target- and duration-only factors once, works on
stacks, and keeps the lambda-free parts of its value for the next stage,
which starts where the last one ended.  The explicit three-leg path
exp(iL') exp(iZ') exp(iM) built from the lattice-shifted KAK factors realizes
the upper bound  analytic + sqrt(eps) * (|L'| + |M|)  and doubles as the
optimizer's warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .cost import CostReport, optimal_cost
from .errors import ConvergenceFailure, PreconditionError
from .kak import _legs
from .linalg import frobenius_distance, hermitian_exp, is_unitary, log_special_orthogonal
from .metric import PenaltyMetric
from .pauli import CartanSplit, dense_basis

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
_ENDPOINT_TOL = 1e-4  # largest accepted endpoint distance of an optimized path


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Piecewise-constant schedule: segment ``s`` applies the coefficient row
    ``rows[s]`` over ``pauli_strings(n)`` for time ``durations[s] > 0``, later
    segments on the left.  Both are read-only copies, with at least one segment."""

    rows: np.ndarray
    durations: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        durations = np.array(self.durations, dtype=float)
        if rows.ndim != 2 or not len(rows) or durations.shape != rows.shape[:1]:
            raise PreconditionError("need one or more coefficient rows, one duration each")
        if rows.shape[1] not in (3, 15, 63, 255):
            raise PreconditionError(f"row width {rows.shape[1]} is not 4**n - 1 for n = 1..4")
        if np.any(durations <= 0):
            raise PreconditionError("segment durations must be positive")
        for name, value in (("rows", rows), ("durations", durations)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        """Qubit count: a row has ``4**n - 1`` entries."""
        return (self.rows.shape[1] + 1).bit_length() // 2


def evolve(path: ControlPath) -> np.ndarray:
    """Ordered product of segment propagators, later segments on the left."""
    stack = dense_basis(path.n)[1]
    h = (path.rows @ stack.reshape(len(stack), -1)).reshape(-1, *stack.shape[1:])
    props = hermitian_exp(h, path.durations)[2]
    u = props[0]
    for p in props[1:]:
        u = p @ u
    return u


def path_cost(path: ControlPath, metric: PenaltyMetric) -> float:
    """Sum of per-segment costs; exactly reparameterization invariant."""
    if path.n != metric.split.n:
        raise PreconditionError("path and metric act on different qubit counts")
    return float(metric.cost(path.rows) @ path.durations)


def _even_sign_patterns(n: int):
    for bits in range(2 ** (n - 1)):
        head = [-1.0 if bits >> k & 1 else 1.0 for k in range(n - 1)]
        yield np.array(head + [float(np.prod(head))])  # an even count of -1


def optimal_feasible_path(report: CostReport) -> ControlPath:
    """Unit-time three-leg path hitting the analytic optimum up to the free-leg cost.

    The lattice shift is absorbed into the left orthogonal factor (an even
    sign pattern keeps it special orthogonal), so the middle leg's generator
    has trace norm exactly equal to the reported cost.  The residual freedom
    A -> AF, B -> BF over even sign patterns F (which commute with the
    diagonal factor) is used to shrink the free legs.
    """
    factors = report.factors
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

    legs = _legs(factors.split, log_a, report.shifted_phases, log_bt)
    dt = 1.0 / 3.0
    # exp(iM) is applied first and exp(iL') last; a segment applies exp(-i H dt)
    rows = legs[::-1] * (-1.0 / dt)
    return ControlPath(rows, np.full(3, dt))


class _Objective:
    """Penalty objective over per-segment coefficient rows (full Pauli basis).

    The value is ``path_cost + lam * D^2`` with ``D = frobenius_distance(evolve(path),
    target)`` the endpoint distance modulo global phase, ``D^2 = 2N - 2|tr(T^+ U)|``.

    Built once: the flattened basis, ``T^+``, the prefix stack and the factors
    of the divided differences.  Neither ``c = path_cost`` nor ``e = D^2``
    nor their gradients depends on ``lam``; these four parts are kept for the
    last rows seen, so the first evaluation of a new ``lam`` stage, at the
    previous stage's end point, costs no eigendecomposition.
    """

    def __init__(self, target, metric: PenaltyMetric, durations):
        stack = dense_basis(metric.split.n)[1]
        self.basis = stack.reshape(len(stack), -1)
        # tr(W P_k) for a stack of W is one product with the transposed basis
        self.basis_t = stack.transpose(0, 2, 1).reshape(len(stack), -1).T
        self.durations = dts = np.asarray(durations, dtype=float)
        self.target, self.target_h = target, target.conj().T
        dim = stack.shape[-1]
        self.shape, self.two_dim = (len(dts), dim, dim), 2.0 * dim
        # prefix[s] = U_{s-1}...U_0, and prefix[-1] is the endpoint U
        self.prefix = np.empty((len(dts) + 1, dim, dim), dtype=complex)
        self.prefix[0] = np.eye(dim)
        # per-segment factors of the divided differences over eigenvalue gaps
        self.dd_scale = -1j * dts[:, None, None]
        self.rot_scale = -0.5j * dts[:, None, None]
        self.sinc_scale = dts[:, None, None] / (2.0 * np.pi)
        # cost = sqrt(rows^2 @ grad_weights), d cost / d row = grad_weights * row * dt / speed
        self.grad_weights = 2.0**metric.split.n * metric.weights
        self._key = self._parts = None

    def value_and_grad(self, rows: np.ndarray, lam: float):
        """Penalized value and its exact gradient with respect to ``rows``."""
        key = rows.tobytes()
        if key != self._key:
            self._key, self._parts = key, self._lambda_free_parts(rows)
        cost, cost_grad, endpoint_sq, endpoint_grad = self._parts
        return cost + lam * endpoint_sq, cost_grad + lam * endpoint_grad

    def _lambda_free_parts(self, rows: np.ndarray):
        """``path_cost``, its gradient, ``D^2`` and its gradient.

        With ``U = S_s U_s P_s`` (suffix, segment, prefix), ``d tr(T^+ U) =
        tr(M_s dU_s)`` with ``M_s = P_s T^+ S_s = P_s (T^+ U) P_{s+1}^+``, so
        the prefix products alone give every ``M_s``.  ``dU_s = V (G o V^+ dH
        V) V^+`` (Daleckii-Krein) with ``G_ab = (e^{-i w_a dt} - e^{-i w_b dt})
        / (w_a - w_b) = -i dt e^{-i (w_a + w_b) dt/2} sinc((w_a - w_b) dt/2)``,
        exact at and near coinciding eigenvalues.  ``P_{s+1}^+ V = P_s^+ V
        e^{i w dt}`` turns that phase into ``e^{-i (w_a - w_b) dt/2}``.
        """
        dts, prefix = self.durations, self.prefix
        w, v, props = hermitian_exp((rows @ self.basis).reshape(self.shape), dts)
        for s, p in enumerate(props):
            np.matmul(p, prefix[s], out=prefix[s + 1])
        u = prefix[-1]
        overlap = np.vdot(self.target, u)  # tr(T^+ U)
        vh = v.conj().swapaxes(1, 2)
        a = vh @ prefix[:-1]  # V^+ P_s
        gap = w[:, :, None] - w[:, None, :]
        g = self.dd_scale * np.exp(self.rot_scale * gap) * np.sinc(self.sinc_scale * gap)
        x = (a @ (self.target_h @ u) @ a.conj().swapaxes(1, 2)) * g
        d_overlap = (v @ x @ vh).reshape(len(dts), -1) @ self.basis_t
        size = abs(overlap)
        unit = overlap / size if size > 0.0 else 1.0
        speeds = np.sqrt((rows * rows) @ self.grad_weights)  # metric.cost(rows)
        # a row at zero speed is all zeros, so its gradient is zero too
        safe = np.where(speeds > 0.0, speeds, 1.0)
        return (float(speeds @ dts), self.grad_weights * rows * (dts / safe)[:, None],
                self.two_dim - 2.0 * size, (d_overlap * (-2.0 * np.conj(unit))).real)


def optimize_path(
    target,
    metric: PenaltyMetric,
    segments: int = 3,
    restarts: int = 2,
    seed: int = 0,
    init_paths=(),
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
    if max_iter < 1:
        raise PreconditionError("max_iter must be at least 1")
    n = metric.split.n
    if target.shape != (2**n, 2**n):
        raise PreconditionError(f"target shape {target.shape} does not match the split (n={n})")
    if not is_unitary(target, 1e-9):
        raise PreconditionError("target is not unitary")
    durations = np.full(segments, 1.0 / segments)
    shape = (segments, 4**n - 1)
    obj = _Objective(target, metric, durations)
    rng = np.random.default_rng(seed)

    starts = []
    for path in init_paths:
        if path.n != n:
            raise PreconditionError("init path acts on another qubit count than the split")
        k = len(path.durations)
        if k > segments:
            raise PreconditionError("init path has more segments than requested")
        # place the init legs on an equal-duration grid, rescaling each
        # generator so the per-leg propagator is unchanged
        rows = np.zeros(shape)
        rows[:k] = path.rows * (path.durations / durations[:k])[:, None]
        starts.append(rows)
    for _ in range(restarts):
        starts.append(rng.standard_normal(shape) * 0.4)
    if not starts:
        raise PreconditionError("need at least one start (restarts or init_paths)")

    def fun(flat, lam):
        value, grad = obj.value_and_grad(flat.reshape(shape), lam)
        return value, grad.ravel()

    candidates = list(starts)  # a seed path is itself a valid answer
    for rows in starts:
        flat = rows.ravel()
        for lam in _LAMBDA_SCHEDULE:
            flat = scipy.optimize.minimize(fun, flat, args=(lam,), jac=True, method="L-BFGS-B",
                                           options={"maxiter": max_iter}).x
        candidates.append(flat.reshape(shape))

    best, best_key = None, None
    for rows in candidates:
        path = ControlPath(rows, durations)
        residual = frobenius_distance(evolve(path), target)
        reached = residual <= _ENDPOINT_TOL
        key = (not reached, path_cost(path, metric) if reached else residual)
        if best_key is None or key < best_key:
            best_key, best = key, path
    failed, value = best_key
    if failed:
        raise ConvergenceFailure(
            "endpoint residual did not reach tolerance", residual=value
        )
    return best, value


@dataclass(eq=False)
class SweepResult:
    """Numeric optima across descending penalty weights for one target.

    ``within_bounds`` records, per epsilon, membership in the bracket
    [analytic - slack - margin, analytic + slack + margin] with
    slack = sqrt(eps) * (|L'| + |M|) from the explicit feasible path.
    ``converged`` is true at every epsilon: :func:`epsilon_sweep` returns
    only when every optimization reached the target.
    """

    epsilon_values: np.ndarray
    numeric_costs: np.ndarray
    analytic_cost: float
    endpoint_residuals: np.ndarray
    feasible_costs: np.ndarray
    converged: np.ndarray
    within_bounds: np.ndarray

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
    max_iter: int = 2000,
) -> SweepResult:
    """Optimize the target at each penalty weight and compare to the
    analytic cost.  Epsilons must be descending.  The feasible path is a
    candidate at every epsilon and reaches the target to rounding, so every
    row converges; a :class:`ConvergenceFailure` would propagate.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if len(eps) == 0 or np.any(np.diff(eps) >= 0):
        raise PreconditionError("epsilons must be strictly descending")
    report = optimal_cost(target, split)
    analytic = report.cost
    feasible = optimal_feasible_path(report)
    # at eps = 1 the form is the trace norm: |L'| + |M| of the free legs
    free_norm = PenaltyMetric(split, 1.0).cost(feasible.rows[::2]) @ feasible.durations[::2]
    margin = 1e-3 * max(analytic, 1.0) + 10.0 * _ENDPOINT_TOL

    numeric = np.empty(len(eps))
    residuals = np.empty(len(eps))
    feasible_costs = np.empty(len(eps))
    within = np.empty(len(eps), dtype=bool)
    for i, e in enumerate(eps):
        metric = PenaltyMetric(split, float(e))
        feasible_costs[i] = path_cost(feasible, metric)
        slack = np.sqrt(e) * free_norm
        path, numeric[i] = optimize_path(
            target, metric, segments=segments, restarts=restarts,
            seed=seed + i, init_paths=(feasible,), max_iter=max_iter,
        )
        residuals[i] = frobenius_distance(evolve(path), target)
        within[i] = (analytic - slack - margin) <= numeric[i] <= (analytic + slack + margin)
    return SweepResult(
        epsilon_values=eps,
        numeric_costs=numeric,
        analytic_cost=float(analytic),
        endpoint_residuals=residuals,
        feasible_costs=feasible_costs,
        converged=np.ones(len(eps), dtype=bool),
        within_bounds=within,
    )
