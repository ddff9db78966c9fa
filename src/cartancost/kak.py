"""KAK decomposition U = exp(iL) exp(iZ) exp(iM) against a Cartan split.

In the adapted frame the factorization is orthogonal-diagonal-orthogonal:
``V = A D B^T`` with A, B real special orthogonal and D diagonal unitary,
where ``D^2`` diagonalizes the symmetric unitary ``V^T V``.  The eigenphases
of D are canonicalized to a descending, sum-zero vector with entries in
(-pi, pi]; the pi-shift and permutation freedom this uses is absorbed into
column signs and orderings of A and B, so the factors always reconstruct the
input (after projection into the special unitary group).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, PreconditionError
from .linalg import (
    diag_symmetric_unitary,
    expm,
    is_unitary,
    log_special_orthogonal,
    project_special,
)
from .pauli import CartanSplit, Hamiltonian, hermitian_coefficients

__all__ = ["KakFactors", "kak_decompose", "reconstruct", "eigenphases",
           "canonicalize_phases"]

_TWO_PI = 2.0 * np.pi
_PHASE_SUM_TOL = 1e-6  # largest accepted distance of the phase sum from a multiple of pi


def _canonical_moves(x):
    """Fold phases into (-pi, pi], zero the sum by integer pi-moves, sort
    descending.  Returns (canonical, pi_moves, permutation): the input
    satisfies ``x = canonical[inv(perm)] + pi * pi_moves`` up to rounding.
    """
    x = np.asarray(x, dtype=float)
    folds = np.round(x / _TWO_PI)
    z = x - _TWO_PI * folds
    moves = 2 * folds
    low = z <= -np.pi
    z[low] += _TWO_PI
    moves[low] -= 2

    total = z.sum()
    k = int(round(total / np.pi))
    if abs(total - k * np.pi) > _PHASE_SUM_TOL:
        raise PreconditionError(
            f"phase sum {total:.6g} is not an integer multiple of pi"
        )
    step = 1 if k > 0 else -1
    for _ in range(abs(k)):
        j = int(np.argmax(z)) if step > 0 else int(np.argmin(z))
        z[j] -= step * np.pi
        moves[j] += step

    # remove the rounding-level residual so the sum is zero to machine terms
    z -= z.mean()
    z[int(np.argmax(np.abs(z)))] -= z.sum()

    perm = np.argsort(-z, kind="stable")
    return z[perm], moves.astype(int), perm


def canonicalize_phases(x) -> np.ndarray:
    """Canonical eigenphase vector: descending, entries in (-pi, pi],
    sum zero (enforced by pi-lattice moves plus a rounding-level snap)."""
    z, _, _ = _canonical_moves(x)
    return z


@dataclass(frozen=True, eq=False)
class KakFactors:
    """The Hamiltonian triple (l, z, m) and the adapted-frame factors.

    ``l`` and ``m`` live on the split's l-basis, ``z`` on its z-basis.  In
    the adapted frame ``a`` and ``b`` are real special orthogonal and ``d``
    is diagonal with det 1; the source unitary (projected into SU) equals
    ``q (a d b^T) q^+``.
    """

    l: Hamiltonian
    z: Hamiltonian
    m: Hamiltonian
    a: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    split: CartanSplit = field(repr=False)
    removed_phase: float = 0.0


_UNITARY_TOL = 1e-9  # largest accepted |u^+ u - I|_F of an input


def kak_decompose(u, split: CartanSplit) -> KakFactors:
    """Decompose a special unitary against a Cartan split.

    Pipeline: move to the adapted frame, diagonalize V^T V with a real
    orthogonal frame, take the det-corrected principal square root for D,
    recover A = V O D^{-1} (real orthogonal by construction), canonicalize
    the eigenphases, and map the matrix logarithms back to Hamiltonians.
    """
    if split.type != "AI":
        raise PreconditionError("not a Cartan split" if split.type is None
                                else f"split of type {split.type}: only type AI is priced")
    frame = split.adapted
    if not frame.ok:
        raise PreconditionError(
            f"the split's frame Q is not adapted to it (im {frame.realness:.2e}, "
            f"orth {frame.orthogonality:.2e}, diag {frame.diagonality:.2e})"
        )
    u = np.asarray(u, dtype=complex)
    dim = 2**split.n
    if u.shape != (dim, dim):
        raise PreconditionError(
            f"matrix dimension {u.shape} does not match the split (n={split.n})"
        )
    if not is_unitary(u, _UNITARY_TOL):
        raise PreconditionError("input is not unitary within tolerance")
    u_s, removed = project_special(u)

    q = split.q
    v = q.conj().T @ u_s @ q
    msym = v.T @ v
    o, e = diag_symmetric_unitary(msym)

    phases = np.angle(e) / 2.0  # principal square root, in (-pi/2, pi/2]
    if int(round(phases.sum() / np.pi)) % 2 != 0:
        # det(D) = -1 under the principal branch: pi-shift one entry
        j = int(np.argmin(phases))
        phases[j] += np.pi if phases[j] <= 0 else -np.pi
    d_diag = np.exp(1j * phases)

    a = (v @ o) * d_diag.conj()[None, :]
    im_norm = float(np.linalg.norm(a.imag))
    if im_norm > 1e-7:
        raise NumericalFailure(
            "left orthogonal factor failed the realness tolerance",
            residual=im_norm,
        )
    a = a.real
    b = o.copy()

    z_vec, moves, perm = _canonical_moves(phases)
    if moves.sum() % 2 != 0:
        raise NumericalFailure(
            "pi-move parity violated the det convention",
            residual=float(moves.sum()),
        )
    signs = np.where(moves % 2 == 0, 1.0, -1.0)
    a = (a * signs[None, :])[:, perm]
    b = b[:, perm]
    if np.linalg.det(b) < 0:  # det(o) = +1, so this is the sign of perm
        a[:, 0] = -a[:, 0]
        b[:, 0] = -b[:, 0]
    d = np.diag(np.exp(1j * z_vec))

    l, z, m = _legs(split, log_special_orthogonal(a), z_vec, log_special_orthogonal(b.T))
    return KakFactors(l=l, z=z, m=m, a=a, d=d, b=b, split=split, removed_phase=removed)


def _legs(split: CartanSplit, log_a, phases, log_bt):
    """Hamiltonians (l, z, m) of the frame factors exp(log_a), diag(exp(i phases))
    and exp(log_bt), each restricted to its basis; a leak raises NumericalFailure.
    The three generators are expanded by one stacked call; a leak is the trace
    norm of a row outside its basis mask."""
    q, n, dim = split.q, split.n, 2**split.n
    gens = np.stack([-1j * log_a, np.diag(phases).astype(complex), -1j * log_bt])
    rows = hermitian_coefficients(q @ gens @ q.conj().T)
    masks = np.stack([split.l_mask, split.z_mask, split.l_mask])
    off = np.where(masks, 0.0, rows)
    norms = np.sqrt(dim * (rows * rows).sum(axis=-1))
    leaks = np.sqrt(dim * (off * off).sum(axis=-1))
    for name, leak, norm in zip("lzm", leaks, norms):
        if leak > 1e-9 * max(1.0, norm):
            raise NumericalFailure(
                f"factor {name} leaks outside its subspace", residual=float(leak)
            )
    return tuple(Hamiltonian(n, row) for row in np.where(masks, rows, 0.0))


def reconstruct(f: KakFactors) -> np.ndarray:
    """exp(i l) exp(i z) exp(i m) as a dense matrix."""
    el, ez, em = expm(1j * np.stack([f.l.to_matrix(), f.z.to_matrix(), f.m.to_matrix()]))
    return el @ ez @ em


def eigenphases(f: KakFactors) -> np.ndarray:
    """Canonical eigenphase vector of the diagonal factor."""
    return canonicalize_phases(np.angle(np.diagonal(f.d)))
