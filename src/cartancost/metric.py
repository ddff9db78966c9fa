"""The penalty metric and finite-difference verification of its coordinate form.

The cost form is ``C(H) = sqrt(eps * <P_l H, P_l H> + <P_p H, P_p H>)``:
free-subalgebra directions are eps-cheap, everything else costs full price.
In the (L, Z, M) coordinates induced by the KAK factorization the pulled-back
Gram is expected to acquire a characteristic structure: the central z-block
is the identity, the first block is eps times the squared
Baker-Campbell-Hausdorff (dexp) operator of L, at Z = 0 the last block is
eps times the squared BCH operator of M, and the blocks decouple as eps goes
to zero.  This module measures that Gram by central finite
differences and checks the structure at stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .linalg import expm
from .pauli import (
    CartanSplit,
    Hamiltonian,
    dense_basis,
    pauli_matrix,
    project,
    support_residual,
    trace_inner_product,
)

__all__ = [
    "PenaltyMetric",
    "hamiltonian_cost",
    "bch_operator",
    "bch_matrix",
    "CoordinateGram",
    "pullback_gram",
    "GramTolerances",
    "GramStructureReport",
    "verify_gram_structure",
]


@dataclass(frozen=True, eq=False)
class PenaltyMetric:
    """Penalty cost form over a Cartan split; epsilon in (0, 1]."""

    split: CartanSplit
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise PreconditionError("epsilon must lie in (0, 1]")


def hamiltonian_cost(h: Hamiltonian, metric: PenaltyMetric) -> float:
    """sqrt(eps * |P_l H|^2 + |P_p H|^2) in the trace inner product.

    Independent of the base unitary (the cost form is right-invariant) and
    exactly homogeneous: C(a*H) = |a| * C(H).
    """
    hl = project(h, metric.split, "l")
    hp = project(h, metric.split, "p")
    return float(
        np.sqrt(
            metric.epsilon * trace_inner_product(hl, hl)
            + trace_inner_product(hp, hp)
        )
    )


def bch_operator(l: Hamiltonian, p: Hamiltonian, terms: int = 16) -> Hamiltonian:
    """First-order group response to perturbing an exponent.

    Returns ``B = phi(ad_{iL})(P)`` with ``phi(w) = (e^w - 1)/w`` truncated
    after ``terms`` terms, so that
    ``exp(i(L + t P)) = exp(i t B) exp(i L) + O(t^2)``.
    The series converges fast for |L| <= 2, which is enforced as a guard.
    """
    if terms < 1:
        raise PreconditionError("need at least one series term")
    if l.norm() > 2.0:
        raise PreconditionError("series guard: |L| must not exceed 2")
    lm = l.to_matrix()
    acc = term = p.to_matrix()
    factorial = 1.0
    for j in range(1, terms):
        term = 1j * (lm @ term - term @ lm)
        factorial *= j + 1
        acc = acc + term / factorial
    return Hamiltonian.from_matrix(acc)


def bch_matrix(l: Hamiltonian, split: CartanSplit) -> np.ndarray:
    """The BCH operator of L restricted to the free subalgebra, as a matrix
    over unit-normalized l-basis directions: columns follow ``split.l_basis``,
    rows ``pauli_strings(n)`` (the same order for the built-in splits)."""
    cols = [bch_operator(l, Hamiltonian(split.n, {s: 1.0})).vec for s in split.l_basis]
    return np.array(cols).T[split.l_mask]


@dataclass(eq=False)
class CoordinateGram:
    """Finite-difference Gram of the pulled-back metric at a base point.

    Coordinate directions are unit trace-norm multiples of the basis
    strings, ordered (l-block for L, z-block for Z, l-block for M).
    ``check_delta`` is the max entrywise change under halving the step (the
    two-step consistency check); ``step_degenerate`` flags noise-dominated
    steps via the symmetrization residual.
    """

    base: tuple[Hamiltonian, Hamiltonian, Hamiltonian]
    gram: np.ndarray = field(repr=False)
    fd_step: float = 1e-4
    sym_residual: float = 0.0
    check_delta: float = 0.0
    step_degenerate: bool = False
    _n_l: int = 0
    _n_z: int = 0

    def block(self, i: int, j: int) -> np.ndarray:
        """1-indexed (i, j) sub-block of the 3x3 block partition."""
        edges = [0, self._n_l, self._n_l + self._n_z, 2 * self._n_l + self._n_z]
        return self.gram[edges[i - 1]:edges[i], edges[j - 1]:edges[j]]


def _fd_gram(base, metric: PenaltyMetric, fd_step: float) -> np.ndarray:
    """One central-difference Gram over unit coordinate directions."""
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
            step = (fd_step * unit) * pauli_matrix(s)
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

    # tangent rows in pauli_strings(n) order; the penalty form weighs l by eps
    _, stack = dense_basis(split.n)
    rows = np.einsum("kij,tji->tk", stack, np.array(tangents)).real / dim
    w = np.where(split.l_mask, metric.epsilon, 1.0)
    return dim * (rows * w) @ rows.T


def pullback_gram(base, metric: PenaltyMetric, fd_step: float = 1e-4) -> CoordinateGram:
    """Measure the coordinate metric at ``base = (L, Z, M)`` by central
    finite differences of U = exp(iL) exp(iZ) exp(iM).

    Tangents are right-trivialized (H = i (dU/dq) U^+, the Schrodinger
    convention) and evaluated against the penalty form.  A second pass at
    half the step provides a consistency estimate.
    """
    if not 1e-6 <= fd_step <= 1e-3:
        raise PreconditionError("fd_step must lie in [1e-6, 1e-3]")
    split = metric.split
    l, z, m = base
    for h, basis, name in ((l, split.l_basis, "L"), (z, split.z_basis, "Z"),
                           (m, split.l_basis, "M")):
        if support_residual(h, basis) > 1e-12:
            raise PreconditionError(f"base component {name} leaves its subspace")

    gram = _fd_gram(base, metric, fd_step)
    gram_half = _fd_gram(base, metric, fd_step / 2.0)
    check_delta = float(np.max(np.abs(gram - gram_half)))
    sym_residual = float(np.linalg.norm(gram - gram.T))
    return CoordinateGram(
        base=(l, z, m),
        gram=gram,
        fd_step=fd_step,
        sym_residual=sym_residual,
        check_delta=check_delta,
        step_degenerate=sym_residual > 1e-6 or check_delta > 1e-4,
        _n_l=len(split.l_basis),
        _n_z=len(split.z_basis),
    )


@dataclass
class GramTolerances:
    """Tolerances for the Gram structure checks."""

    offdiag_abs: float = 1e-4
    center_abs: float = 1e-5
    first_block_rel: float = 1e-4
    psd_tol: float = 1e-8
    zero_base_rel: float = 1e-4


@dataclass
class GramStructureReport:
    """Outcome of the block-structure checks on a measured Gram."""

    offdiag_max: float
    offdiag_ok: bool
    center_max_dev: float
    center_ok: bool
    first_block_rel_dev: float
    first_block_ok: bool
    last_block_eigs: tuple[float, float]
    last_block_psd: bool
    last_block_zero_base_dev: float | None
    last_block_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.offdiag_ok
            and self.center_ok
            and self.first_block_ok
            and self.last_block_ok
        )


def verify_gram_structure(
    gram: CoordinateGram,
    metric: PenaltyMetric,
    tolerances: GramTolerances | None = None,
) -> GramStructureReport:
    """Check the measured Gram against the predicted block structure.

    (a) off-diagonal blocks vanish (they are exactly zero for the (1,2) and
    (2,3) blocks and of order eps for (1,3), so the absolute tolerance is
    meaningful for small eps); (b) the central block is the identity;
    (c) the first block equals eps times the squared BCH operator of the
    L component; (d) the last block is PSD, and when the base Z vanishes it
    equals eps times the squared BCH operator of the M component (eps times
    the identity for an abelian l).  Eigenvalue ranges of the last block
    are recorded either way.
    """
    tol = tolerances or GramTolerances()
    l, z, m = gram.base

    offdiag_max = max(
        float(np.max(np.abs(gram.block(1, 2)))),
        float(np.max(np.abs(gram.block(2, 3)))),
        float(np.max(np.abs(gram.block(1, 3)))),
    )
    offdiag_ok = offdiag_max <= tol.offdiag_abs

    center = gram.block(2, 2)
    center_max_dev = float(np.max(np.abs(center - np.eye(center.shape[0]))))
    center_ok = center_max_dev <= tol.center_abs

    bch = bch_matrix(l, metric.split)
    predicted = metric.epsilon * bch.T @ bch
    first = gram.block(1, 1)
    denom = max(float(np.linalg.norm(predicted)), 1e-300)
    first_rel = float(np.linalg.norm(first - predicted)) / denom
    first_block_ok = first_rel <= tol.first_block_rel

    last = gram.block(3, 3)
    eigs = np.linalg.eigvalsh((last + last.T) / 2.0)
    psd = bool(eigs.min() >= -tol.psd_tol)
    zero_dev = None
    last_ok = psd
    if z.norm() == 0.0:
        # U = exp(iL) exp(iM): conjugation by exp(iL) preserves the l-norm
        bch_m = bch_matrix(m, metric.split)
        target = metric.epsilon * bch_m.T @ bch_m
        zero_dev = float(np.linalg.norm(last - target)) / metric.epsilon
        last_ok = psd and zero_dev <= tol.zero_base_rel
    return GramStructureReport(
        offdiag_max=offdiag_max,
        offdiag_ok=offdiag_ok,
        center_max_dev=center_max_dev,
        center_ok=center_ok,
        first_block_rel_dev=first_rel,
        first_block_ok=first_block_ok,
        last_block_eigs=(float(eigs.min()), float(eigs.max())),
        last_block_psd=psd,
        last_block_zero_base_dev=zero_dev,
        last_block_ok=last_ok,
    )
