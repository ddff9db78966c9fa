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

Both run on stacks, not per direction: every displaced exponent of the
Gram's differences (step and half step) goes through one eigendecomposition,
and the BCH series runs once over the stack of all l strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .linalg import expm
from .pauli import (
    CartanSplit,
    Hamiltonian,
    _indices,
    dense_basis,
    hermitian_coefficients,
    support_residual,
)

__all__ = [
    "PenaltyMetric",
    "bch_operator",
    "bch_matrix",
    "CoordinateGram",
    "pullback_gram",
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

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only weight of each of ``pauli_strings(n)`` in the form: eps on l, else 1."""
        w = np.where(self.split.l_mask, self.epsilon, 1.0)
        w.setflags(write=False)
        return w

    def cost(self, rows: np.ndarray):
        """sqrt(eps * |P_l H|^2 + |P_p H|^2) in the trace inner product, for
        one coefficient row over ``pauli_strings(n)`` or each row of a stack.

        Independent of the base unitary (the cost form is right-invariant) and
        exactly homogeneous: C(a*H) = |a| * C(H).
        """
        return np.sqrt(2.0**self.split.n * ((rows * rows) @ self.weights))


def _bch_series(l: Hamiltonian, p: np.ndarray, terms: int) -> np.ndarray:
    """Coefficient rows of ``phi(ad_{iL})`` on each matrix of the stack ``p``."""
    if terms < 1:
        raise PreconditionError("need at least one series term")
    if l.norm() > 2.0:
        raise PreconditionError("series guard: |L| must not exceed 2")
    lm = l.to_matrix()
    acc = term = p
    factorial = 1.0
    for j in range(1, terms):
        term = 1j * (lm @ term - term @ lm)
        factorial *= j + 1
        acc = acc + term / factorial
    return hermitian_coefficients(acc)


def bch_operator(l: Hamiltonian, p: Hamiltonian, terms: int = 16) -> Hamiltonian:
    """First-order group response to perturbing an exponent.

    Returns ``B = phi(ad_{iL})(P)`` with ``phi(w) = (e^w - 1)/w`` truncated
    after ``terms`` terms, so that
    ``exp(i(L + t P)) = exp(i t B) exp(i L) + O(t^2)``.
    The series converges fast for |L| <= 2, which is enforced as a guard.
    """
    return Hamiltonian(l.n, _bch_series(l, p.to_matrix(), terms))


def bch_matrix(l: Hamiltonian, split: CartanSplit) -> np.ndarray:
    """The BCH operator of L restricted to the free subalgebra, as a matrix
    over unit-normalized l-basis directions: columns follow ``split.l_basis``,
    rows ``pauli_strings(n)`` (the same order for the built-in splits)."""
    directions = dense_basis(split.n)[_indices(split.n, split.l_basis)]
    return _bch_series(l, directions, 16).T[split.l_mask]


@dataclass(eq=False)
class CoordinateGram:
    """Finite-difference Gram of the pulled-back metric at a base point.

    Coordinate directions are unit trace-norm multiples of the basis
    strings, ordered (l-block for L, z-block for Z, l-block for M).
    ``check_delta`` is the max entrywise change under halving the step (the
    two-step consistency check) and alone decides ``step_degenerate``.
    ``sym_residual`` = ||G - G^T|| is reported only: G is a product of a row
    matrix with its own transpose, so it is zero to rounding.
    """

    base: tuple[Hamiltonian, Hamiltonian, Hamiltonian]
    gram: np.ndarray = field(repr=False)
    fd_step: float
    sym_residual: float
    check_delta: float
    step_degenerate: bool
    _n_l: int
    _n_z: int

    def block(self, i: int, j: int) -> np.ndarray:
        """1-indexed (i, j) sub-block of the 3x3 block partition."""
        edges = [0, self._n_l, self._n_l + self._n_z, 2 * self._n_l + self._n_z]
        return self.gram[edges[i - 1]:edges[i], edges[j - 1]:edges[j]]


def _fd_grams(base, metric: PenaltyMetric, steps: np.ndarray) -> np.ndarray:
    """Central-difference Grams over unit coordinate directions, one per
    entry of ``steps``.  One stacked ``expm`` call exponentiates the three
    base exponents and every displaced one."""
    split = metric.split
    stack = dense_basis(split.n)
    dim = stack.shape[-1]
    # coordinate directions (l for L, z for Z, l for M) and the slot of each
    slot = np.repeat([0, 1, 2], [len(split.l_basis), len(split.z_basis), len(split.l_basis)])
    directions = stack[_indices(split.n, split.l_basis + split.z_basis + split.l_basis)]
    dense = np.stack([h.to_matrix() for h in base])
    # +-step times the unit trace norm of a single string, shaped (steps, +-, 1, 1, 1)
    shifts = np.multiply.outer(steps, [1.0, -1.0])[..., None, None, None] * 2.0 ** (-split.n / 2)
    displaced = dense[slot] + shifts * directions
    exps = expm(1j * np.concatenate([dense, displaced.reshape(-1, dim, dim)]))
    moved = exps[3:].reshape(displaced.shape)
    # prefix[k] is the product of the factors left of slot k (prefix[3] = U), so
    # the right-trivialized tangent i dU U^+ is i prefix[k] dF_k prefix[k+1]^+
    prefix = np.stack([np.eye(dim), exps[0], exps[0] @ exps[1], exps[0] @ exps[1] @ exps[2]])
    t = prefix[slot] @ (moved[:, 0] - moved[:, 1]) @ prefix[slot + 1].conj().swapaxes(-1, -2)
    t = t * (1j / (2.0 * steps))[:, None, None, None]
    # rows in pauli_strings(n) order: Re tr(P t) / dim is the coefficient of
    # the Hermitian part of t, and no non-identity string sees its trace;
    # the penalty form weighs l by eps
    t_flat = t.swapaxes(-1, -2).reshape(len(steps), -1, dim * dim)
    rows = (t_flat @ stack.reshape(len(stack), -1).T).real / dim
    return dim * (rows * metric.weights) @ rows.swapaxes(-1, -2)


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

    gram, gram_half = _fd_grams(base, metric, np.array([fd_step, fd_step / 2.0]))
    check_delta = float(np.max(np.abs(gram - gram_half)))
    return CoordinateGram(
        base=(l, z, m),
        gram=gram,
        fd_step=fd_step,
        sym_residual=float(np.linalg.norm(gram - gram.T)),
        check_delta=check_delta,
        step_degenerate=check_delta > 1e-4,
        _n_l=len(split.l_basis),
        _n_z=len(split.z_basis),
    )


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


# thresholds of the four checks of verify_gram_structure, in its order
_OFFDIAG_ABS = 1e-4      # largest entry of the (1,2), (2,3) and (1,3) blocks
_CENTER_ABS = 1e-5       # largest entry of G22 - I
_FIRST_BLOCK_REL = 1e-4  # |G11 - eps B_L^T B_L| / |eps B_L^T B_L|
_PSD_TOL = 1e-8          # least eigenvalue of G33 may not lie below -_PSD_TOL
_ZERO_BASE_REL = 1e-4    # at Z = 0: |G33 - eps B_M^T B_M| / eps


def verify_gram_structure(gram: CoordinateGram, metric: PenaltyMetric) -> GramStructureReport:
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
    l, z, m = gram.base

    offdiag_max = max(
        float(np.max(np.abs(gram.block(1, 2)))),
        float(np.max(np.abs(gram.block(2, 3)))),
        float(np.max(np.abs(gram.block(1, 3)))),
    )
    offdiag_ok = offdiag_max <= _OFFDIAG_ABS

    center = gram.block(2, 2)
    center_max_dev = float(np.max(np.abs(center - np.eye(center.shape[0]))))
    center_ok = center_max_dev <= _CENTER_ABS

    bch = bch_matrix(l, metric.split)
    predicted = metric.epsilon * bch.T @ bch
    first = gram.block(1, 1)
    denom = max(float(np.linalg.norm(predicted)), 1e-300)
    first_rel = float(np.linalg.norm(first - predicted)) / denom
    first_block_ok = first_rel <= _FIRST_BLOCK_REL

    last = gram.block(3, 3)
    eigs = np.linalg.eigvalsh((last + last.T) / 2.0)
    psd = bool(eigs.min() >= -_PSD_TOL)
    zero_dev = None
    last_ok = psd
    if z.norm() == 0.0:
        # U = exp(iL) exp(iM): conjugation by exp(iL) preserves the l-norm
        bch_m = bch_matrix(m, metric.split)
        target = metric.epsilon * bch_m.T @ bch_m
        zero_dev = float(np.linalg.norm(last - target)) / metric.epsilon
        last_ok = psd and zero_dev <= _ZERO_BASE_REL
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
