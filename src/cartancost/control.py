"""Discretized optimal-control oracle for the small-penalty limit.

A control path is a read-only ``(k, 4**n - 1)`` array of coefficient rows over
``pauli_strings(n)``: row ``s`` is the Hamiltonian applied for time ``1/k``,
and later rows act on the left.  Paths are optimized under the penalty cost
with a quadratic endpoint penalty; as the penalty weight epsilon shrinks, the
numerical optimum must converge to the analytic lattice cost.  The objective
comes with its exact gradient (GRAPE-style: prefix products of the row
propagators, each differentiated through its eigendecomposition), and
L-BFGS-B descends it under a rising endpoint weight lambda.  The package
drives SciPy's L-BFGS-B routine ``setulb`` itself, with the default stopping
rules of ``scipy.optimize.minimize``, whose iterates it reproduces bit for
bit without the wrapper's per-evaluation bookkeeping.  All row
propagators of a path come from one stacked eigendecomposition,
``linalg.hermitian_exp``.  The explicit polar path exp(ia) exp(ib), with a in
l and b in p, built from the lattice-shifted KAK factors realizes the upper
bound analytic + sqrt(eps) * |a| and doubles as the optimizer's warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostReport, optimal_cost
from .errors import ConvergenceFailure, PreconditionError
from .kak import _legs
from .linalg import (exp_divided_differences, frobenius_distance, hermitian_exp, is_unitary,
                     log_special_orthogonal)
from .metric import PenaltyMetric
from .pauli import CartanSplit, dense_basis

__all__ = [
    "evolve",
    "path_cost",
    "optimal_feasible_path",
    "optimize_path",
    "SweepResult",
    "epsilon_sweep",
]

_LAMBDA_SCHEDULE = (10.0, 1e2, 1e3, 1e4)
_ENDPOINT_TOL = 1e-4  # largest accepted endpoint distance of an optimized path
_TIE_TOL = 1e-9  # largest certificate gap, and phase spread, read as a lattice tie

# scipy.optimize.minimize's L-BFGS-B defaults: memory, factr = ftol / eps,
# projected-gradient tolerance, line-search steps and evaluation cap
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000


def _rows(rows) -> tuple[np.ndarray, int]:
    """A caller's control path as a read-only float copy, with its qubit
    count: one or more finite rows of width ``4**n - 1`` for n = 1..4."""
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or not len(rows):
        raise PreconditionError("need one or more coefficient rows")
    if rows.shape[1] not in (3, 15, 63, 255):
        raise PreconditionError(f"row width {rows.shape[1]} is not 4**n - 1 for n = 1..4")
    if not np.isfinite(rows).all():
        raise PreconditionError("coefficient rows must be finite")
    rows.setflags(write=False)
    return rows, (rows.shape[1] + 1).bit_length() // 2


def evolve(rows) -> np.ndarray:
    """Ordered product of the ``k`` row propagators ``exp(-i H_s / k)``,
    later rows on the left."""
    rows, n = _rows(rows)
    stack = dense_basis(n)
    h = (rows @ stack.reshape(len(stack), -1)).reshape(-1, *stack.shape[1:])
    props = hermitian_exp(h, 1.0 / len(rows))[2]
    u = props[0]
    for p in props[1:]:
        u = p @ u
    return u


def path_cost(rows, metric: PenaltyMetric) -> float:
    """Mean of the per-row costs; splitting every row into equal sub-rows
    leaves it unchanged up to rounding."""
    rows, n = _rows(rows)
    if n != metric.split.n:
        raise PreconditionError("path and metric act on different qubit counts")
    return float(metric.cost(rows) @ np.full(len(rows), 1.0 / len(rows)))


def optimal_feasible_path(report: CostReport) -> np.ndarray:
    """Three-row polar path exp(ia) exp(ib) reaching the report's target.

    In the adapted frame ``V = A D B^T = (A S B^T)(B e^{i Phi'} B^T)`` with
    ``S = diag((-1)^m)`` (det 1, as sum(m) = 0) and ``Phi' = phases - pi m``
    for a lattice point m: the global polar decomposition, ``a = -i log(A S
    B^T)`` in l and ``b = B diag(Phi') B^T`` in p, so ``|b|`` is the cost.
    Rows ``[-1.5 b, -1.5 b, -3 a]`` cost ``|b| + sqrt(eps) |a|``.  At a tie
    (certificate gap within 1e-9 of 0), the single pi-moves from a tied
    largest to a tied smallest shifted phase are tried too; the smallest
    ``|a|`` wins.
    """
    factors = report.factors
    a, b, split = factors.a, factors.b, factors.split
    point, s = report.lattice_point, report.shifted_phases
    tie = report.certificate_gap <= _TIE_TOL
    tops = np.flatnonzero(tie & (s >= s.max() - _TIE_TOL))
    bottoms = np.flatnonzero(tie & (s <= s.min() + _TIE_TOL))
    unit = np.eye(len(s), dtype=int)
    points = [point] + [point + unit[i] - unit[j] for i in tops for j in bottoms]
    logs = [log_special_orthogonal((a * (-1.0) ** m) @ b.T) for m in points]
    k = int(np.argmin([np.linalg.norm(x) for x in logs]))
    gens = np.stack([-1j * logs[k], ((b * (factors.phases - np.pi * points[k])) @ b.T) + 0j])
    a_row, b_row = _legs(split, "ab", gens, np.stack([split.l_mask, ~split.l_mask]))
    rows = np.stack([-1.5 * b_row, -1.5 * b_row, -3.0 * a_row])  # a row applies exp(-i H / 3)
    rows.setflags(write=False)
    return rows


class _Objective:
    """Penalty objective over the coefficient rows of a ``segments``-row path.

    The value is ``path_cost + lam * D^2`` with ``D = frobenius_distance(evolve(rows),
    target)`` the endpoint distance modulo global phase, ``D^2 = 2N - 2|tr(T^+ U)|``.

    Evaluations spend their time in NumPy calls, so the flattened basis,
    ``T^+`` and the prefix stack are built once, and rows come flat, as
    L-BFGS-B holds them.  Neither ``c = path_cost`` nor ``e = D^2`` nor their
    gradients depends on ``lam``; these four parts are kept for the last rows
    seen, so the first evaluation of a new ``lam`` stage, at the previous
    stage's end point, costs no eigendecomposition.
    """

    def __init__(self, target, metric: PenaltyMetric, segments: int):
        stack = dense_basis(metric.split.n)
        self.basis = stack.reshape(len(stack), -1)
        # tr(W P_k) for a stack of W is one product with the transposed basis
        self.basis_t = stack.transpose(0, 2, 1).reshape(len(stack), -1).T
        self.dt = dt = 1.0 / segments
        self.slices = np.full(segments, dt)
        self.target, self.target_h = target, target.conj().T
        dim = stack.shape[-1]
        self.shape, self.two_dim = (segments, dim, dim), 2.0 * dim
        self.rows_shape = (segments, len(stack))
        # prefix[s] = U_{s-1}...U_0, and prefix[-1] is the endpoint U
        self.prefix = np.empty((segments + 1, dim, dim), dtype=complex)
        self.prefix[0] = np.eye(dim)
        # cost = sqrt(rows^2 @ grad_weights), d cost / d row = grad_weights * row * dt / speed
        self.grad_weights = 2.0**metric.split.n * metric.weights
        self._key = self._parts = None

    def value_and_grad(self, flat: np.ndarray, lam: float):
        """Penalized value and its exact gradient, both over the flattened rows."""
        key = flat.tobytes()
        if key != self._key:
            self._key, self._parts = key, self._lambda_free_parts(flat.reshape(self.rows_shape))
        cost, cost_grad, endpoint_sq, endpoint_grad = self._parts
        return cost + lam * endpoint_sq, (cost_grad + lam * endpoint_grad).ravel()

    def _lambda_free_parts(self, rows: np.ndarray):
        """``path_cost``, its gradient, ``D^2`` and its gradient.

        With ``U = S_s U_s P_s`` (suffix, segment, prefix), ``d tr(T^+ U) =
        tr(M_s dU_s)`` with ``M_s = P_s T^+ S_s = P_s (T^+ U) P_{s+1}^+``, so
        the prefix products alone give every ``M_s``.  ``dU_s = U_s V (g^T o
        V^+ dH V) V^+`` (Daleckii-Krein), ``g`` from :func:`exp_divided_differences`
        at ``t = dt``, and ``P_{s+1}^+ U_s = P_s^+``, so ``tr(M_s dU_s)`` pairs
        ``g o V^+ P_s (T^+ U) P_s^+ V`` with the transpose of ``V^+ dH V``.
        """
        dt, prefix = self.dt, self.prefix
        w, v, props = hermitian_exp((rows @ self.basis).reshape(self.shape), dt)
        for s, p in enumerate(props):
            np.matmul(p, prefix[s], out=prefix[s + 1])
        u = prefix[-1]
        overlap = np.vdot(self.target, u)  # tr(T^+ U)
        vh = v.conj().swapaxes(1, 2)
        a = vh @ prefix[:-1]  # V^+ P_s
        x = (a @ (self.target_h @ u) @ a.conj().swapaxes(1, 2)) * exp_divided_differences(w, dt)
        d_overlap = (v @ x @ vh).reshape(len(rows), -1) @ self.basis_t
        size = abs(overlap)
        unit = overlap / size if size > 0.0 else 1.0
        speeds = np.sqrt((rows * rows) @ self.grad_weights)  # metric.cost(rows)
        # a row at zero speed is all zeros, so its gradient is zero too
        safe = np.where(speeds > 0.0, speeds, 1.0)
        return (float(speeds @ self.slices), self.grad_weights * rows * (dt / safe)[:, None],
                self.two_dim - 2.0 * size, (d_overlap * (-2.0 * np.conj(unit))).real)


def _descend(obj: _Objective, x0: np.ndarray, lam: float, max_iter: int) -> np.ndarray:
    """Unbounded L-BFGS-B from the flat rows ``x0`` on ``obj.value_and_grad``
    at weight ``lam``: the loop of ``scipy.optimize.minimize(method="L-BFGS-B",
    jac=True)`` over SciPy's ``setulb``, with the same stopping rules and so
    the same bits, without its per-evaluation bookkeeping.  ``x0`` is left as
    it is; ``setulb`` updates its own copy in place.
    """
    # imported here so that loading the package does not load scipy.optimize
    from scipy.optimize._lbfgsb import setulb

    x = np.array(x0, dtype=float)
    n, m = len(x), _LBFGSB_M
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd 0: x is unbounded
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    iterations = evaluations = 0
    while True:
        setulb(m, x, bound, bound, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa, task,
               lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # wants f and g at x
            f, g = obj.value_and_grad(x, lam)
            evaluations += 1
        elif task[0] == 1:  # a new iterate
            iterations += 1
            if iterations >= max_iter:
                task[:] = 5, 504
            elif evaluations > _LBFGSB_MAXFUN:
                task[:] = 5, 502
        else:
            return x


def optimize_path(
    target,
    metric: PenaltyMetric,
    segments: int = 3,
    restarts: int = 2,
    seed: int = 0,
    init_paths=(),
    max_iter: int = 2000,
) -> tuple[np.ndarray, float, float]:
    """Best-of-restarts local search for a cheap path reaching ``target``.

    L-BFGS-B minimization, on exact gradients, over the rows of a
    ``segments``-row path under a quadratic endpoint penalty whose weight
    follows the continuation schedule 10..1e4; ``max_iter`` caps the L-BFGS-B
    iterations of each stage.  Each stage runs SciPy's L-BFGS-B routine
    directly, with ``scipy.optimize.minimize``'s default stopping rules and
    the same output bits.  ``init_paths``, paths of at most ``segments``
    rows (e.g. the analytic feasible path), seed extra starts and also stand
    as candidate answers; ``restarts`` random starts are added.  Returns the
    best rows, their cost, which excludes the penalty term, and their endpoint
    residual ``frobenius_distance(evolve(rows), target)``.
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
    obj = _Objective(target, metric, segments)
    shape = obj.rows_shape
    rng = np.random.default_rng(seed)

    starts = []
    for path in init_paths:
        path, path_n = _rows(path)
        if path_n != n:
            raise PreconditionError("init path acts on another qubit count than the split")
        k = len(path)
        if k > segments:
            raise PreconditionError("init path has more segments than requested")
        # place the init rows on the finer grid, rescaling each so that its
        # propagator exp(-i H / k) is unchanged
        rows = np.zeros(shape)
        rows[:k] = path * ((1.0 / k) / (1.0 / segments))
        starts.append(rows)
    for _ in range(restarts):
        starts.append(rng.standard_normal(shape) * 0.4)
    if not starts:
        raise PreconditionError("need at least one start (restarts or init_paths)")

    candidates = list(starts)  # a seed path is itself a valid answer
    for rows in starts:
        flat = rows.ravel()
        for lam in _LAMBDA_SCHEDULE:
            flat = _descend(obj, flat, lam, max_iter)
        if np.isfinite(flat).all():  # a non-finite result never beats the finite starts
            candidates.append(flat.reshape(shape))

    best, best_key = None, None
    for rows in candidates:
        residual = frobenius_distance(evolve(rows), target)
        reached = residual <= _ENDPOINT_TOL
        key = (not reached, path_cost(rows, metric) if reached else residual)
        if best_key is None or key < best_key:
            best_key, best, best_residual = key, rows, residual
    failed, value = best_key
    if failed:
        raise ConvergenceFailure(
            "endpoint residual did not reach tolerance", residual=value
        )
    best.setflags(write=False)
    return best, value, best_residual


@dataclass(eq=False)
class SweepResult:
    """Numeric optima across descending penalty weights for one target.

    ``within_bounds`` records, per epsilon, membership in the bracket
    [analytic - slack - margin, analytic + slack + margin] with
    slack = feasible_cost - analytic = sqrt(eps) * |a|, the free leg of the
    polar feasible path exp(ia) exp(ib).
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
    margin = 1e-3 * max(analytic, 1.0) + 10.0 * _ENDPOINT_TOL

    numeric = np.empty(len(eps))
    residuals = np.empty(len(eps))
    feasible_costs = np.empty(len(eps))
    within = np.empty(len(eps), dtype=bool)
    for i, e in enumerate(eps):
        metric = PenaltyMetric(split, float(e))
        feasible_costs[i] = path_cost(feasible, metric)
        slack = feasible_costs[i] - analytic  # sqrt(eps) |a| of the polar path
        _, numeric[i], residuals[i] = optimize_path(
            target, metric, segments=segments, restarts=restarts,
            seed=seed + i, init_paths=(feasible,), max_iter=max_iter,
        )
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
