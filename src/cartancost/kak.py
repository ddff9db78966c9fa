"""KAK decomposition U = exp(iL) exp(iZ) exp(iM) against a Cartan split.

In the adapted frame the factorization is orthogonal-diagonal-orthogonal:
``V = A D B^T`` with A, B real special orthogonal and D diagonal unitary,
where ``D^2`` diagonalizes the symmetric unitary ``V^T V``.  The eigenphases
of D are canonicalized to a descending, sum-zero vector with entries in
(-pi, pi] before A is formed: any square root D of the spectrum makes
``A = V B D^-1`` unitary and complex orthogonal, hence real, and a zero phase
sum with det B = +1 makes det A = +1, so the factors always reconstruct the
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
from .pauli import CartanSplit, dense_basis, hermitian_coefficients

__all__ = ["KakFactors", "kak_decompose", "reconstruct", "canonicalize_phases"]

_TWO_PI = 2.0 * np.pi
_PHASE_SUM_TOL = 1e-6  # largest accepted distance of the phase sum from a multiple of pi


def _canonical_moves(x):
    """Fold phases into (-pi, pi], zero the sum by pi-moves, sort descending.
    Returns (canonical, permutation): ``canonical`` equals ``x[perm]`` modulo
    pi, up to rounding.  While the sum is +k pi the largest entry moves down
    by pi; while it is -k pi the smallest moves up.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise PreconditionError("phases must be finite")
    z = x - _TWO_PI * np.round(x / _TWO_PI)
    z[z <= -np.pi] += _TWO_PI

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

    # remove the rounding-level residual so the sum is zero to machine terms
    z -= z.mean()
    z[int(np.argmax(np.abs(z)))] -= z.sum()

    perm = np.argsort(-z, kind="stable")
    return z[perm], perm


def canonicalize_phases(x) -> np.ndarray:
    """Canonical eigenphase vector: descending, entries in (-pi, pi],
    sum zero (enforced by pi-lattice moves plus a rounding-level snap)."""
    return _canonical_moves(x)[0]


@dataclass(frozen=True, eq=False)
class KakFactors:
    """The generator triple (l, z, m) and the adapted-frame factors.

    ``l``, ``z`` and ``m`` are read-only coefficient rows over
    ``pauli_strings(n)``, zero off the split's l-basis (``l``, ``m``) or
    z-basis (``z``).  In the adapted frame ``a`` and ``b`` are real special
    orthogonal and ``d = diag(exp(i phases))``, with ``phases`` the read-only
    canonical eigenphase vector; the source unitary (projected into SU)
    equals ``q (a d b^T) q^+`` with q the split's frame.
    """

    l: np.ndarray
    z: np.ndarray
    m: np.ndarray
    a: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    split: CartanSplit = field(repr=False)
    removed_phase: float = 0.0

    @property
    def d(self) -> np.ndarray:
        """The diagonal factor, det 1."""
        return np.diag(np.exp(1j * self.phases))


_UNITARY_TOL = 1e-9  # largest accepted |u^+ u - I|_F of an input


def kak_decompose(u, split: CartanSplit) -> KakFactors:
    """Decompose a special unitary against a Cartan split.

    Pipeline: move to the adapted frame, diagonalize V^T V = O E O^T with a
    real orthogonal O, canonicalize the principal halved phases of E, order
    O's columns to match as B (det +1), recover A = V B D^{-1} (real special
    orthogonal by construction), and map the matrix logarithms back to
    coefficient rows.  A refused split raises its ``refusal`` before that.
    """
    if split.refusal:
        raise PreconditionError(split.refusal)
    u = np.asarray(u, dtype=complex)
    dim = 2**split.n
    if u.shape != (dim, dim):
        raise PreconditionError(
            f"matrix dimension {u.shape} does not match the split (n={split.n})"
        )
    if not is_unitary(u, _UNITARY_TOL):
        raise PreconditionError("input is not unitary within tolerance")
    u_s, removed = project_special(u)

    q = split.frame
    v = q.conj().T @ u_s @ q
    msym = v.T @ v
    o, e = diag_symmetric_unitary(msym)

    phases, perm = _canonical_moves(np.angle(e) / 2.0)
    phases.setflags(write=False)
    b = o[:, perm]
    if np.linalg.det(b) < 0:  # det(o) = +1, so this is the sign of perm
        b[:, 0] = -b[:, 0]
    a = (v @ b) * np.exp(-1j * phases)
    im_norm = float(np.linalg.norm(a.imag))
    if im_norm > 1e-7:
        raise NumericalFailure(
            "left orthogonal factor failed the realness tolerance",
            residual=im_norm,
        )
    a = a.real

    gens = np.stack([-1j * log_special_orthogonal(a), np.diag(phases).astype(complex),
                     -1j * log_special_orthogonal(b.T)])
    l, z, m = _legs(split, "lzm", gens, np.stack([split.l_mask, split.z_mask, split.l_mask]))
    return KakFactors(l=l, z=z, m=m, a=a, phases=phases, b=b, split=split,
                      removed_phase=removed)


def _legs(split: CartanSplit, names: str, gens, masks):
    """Coefficient rows, as one read-only array, of a stack of Hermitian
    frame generators, each zeroed off its basis mask; a leak, the trace norm
    of a row outside its mask, raises NumericalFailure naming the leg.  The
    generators are expanded by one stacked call."""
    q, dim = split.frame, 2**split.n
    rows = hermitian_coefficients(q @ gens @ q.conj().T)
    off = np.where(masks, 0.0, rows)
    norms = np.sqrt(dim * (rows * rows).sum(axis=-1))
    leaks = np.sqrt(dim * (off * off).sum(axis=-1))
    for name, leak, norm in zip(names, leaks, norms):
        if leak > 1e-9 * max(1.0, norm):
            raise NumericalFailure(
                f"factor {name} leaks outside its subspace", residual=float(leak)
            )
    legs = np.where(masks, rows, 0.0)
    legs.setflags(write=False)
    return legs


def reconstruct(f: KakFactors) -> np.ndarray:
    """exp(i l) exp(i z) exp(i m) as a dense matrix."""
    stack = dense_basis(f.split.n)
    flat = stack.reshape(len(stack), -1)
    el, ez, em = expm(1j * np.stack([(row @ flat).reshape(stack.shape[1:])
                                     for row in (f.l, f.z, f.m)]))
    return el @ ez @ em
