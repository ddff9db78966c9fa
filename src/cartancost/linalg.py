"""Dense complex matrix kernels for small unitary groups (dim 2..16).

Everything here operates on plain ``numpy.ndarray`` matrices.  The sizes are
tiny (2**n for n <= 4), so exact structure and reproducibility matter far
more than asymptotics: exponentials and logarithms go through explicit
eigendecompositions, which are exact for the normal matrices that appear in
this problem domain.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import NumericalFailure, PreconditionError

__all__ = [
    "is_unitary",
    "is_symmetric",
    "expm",
    "hermitian_exp",
    "exp_divided_differences",
    "diag_symmetric_unitary",
    "log_special_orthogonal",
    "frobenius_distance",
    "haar_random_special_unitary",
    "project_special",
]


def _as_matrix(m, dtype=complex) -> np.ndarray:
    m = np.asarray(m, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(m, tol: float = 1e-10) -> bool:
    """Whether ``|m^+ m - I|_F <= tol``; false, without a warning, when the
    residual overflows or ``m`` holds NaN or inf."""
    m = _as_matrix(m)
    eye = np.eye(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(m.conj().T @ m - eye) <= tol


def is_symmetric(m, tol: float = 1e-10) -> bool:
    m = _as_matrix(m)
    return np.linalg.norm(m - m.T) <= tol


def hermitian_exp(h, t=None):
    """Eigenvalues ``w``, eigenvectors ``v`` and ``exp(-i h t)`` of a
    Hermitian matrix or of each member of a ``(..., N, N)`` stack, from one
    eigendecomposition; times ``t`` broadcast over the stack (None: t = 1).
    Only the lower triangle of ``h`` is read, as by ``numpy.linalg.eigh``, so
    ``h`` must be Hermitian; :func:`expm` checks a matrix from elsewhere.
    """
    times = 1.0 if t is None else np.asarray(t, dtype=float)
    # h = v diag(w) v^+, so e^{-i h t} = v diag(e^{-i w t}) v^+
    w, v = np.linalg.eigh(h)
    del h  # a stack of exponents can be large: free it before the products
    phases = np.exp(-1j * w if t is None else -1j * w * times[..., None])
    return w, v, (v * phases[..., None, :]) @ v.swapaxes(-1, -2).conj()


def exp_divided_differences(w, t) -> np.ndarray:
    """``g_ab = e^{i w_b t} (e^{-i w_a t} - e^{-i w_b t}) / (w_a - w_b)`` over an
    eigenvalue vector ``w`` or each row of a stack, as ``-i t e^{-i t (w_a -
    w_b)/2} sinc(t (w_a - w_b)/2)``: exact at coinciding eigenvalues (``-i t``).
    For ``h = v diag(w) v^+``, ``d e^{-i h t} = v (g o v^+ dh v) v^+ e^{-i h t}``
    (Daleckii-Krein), and ``-i g`` at ``t = -1`` is ``(e^{ad_{ih}} - 1) / ad_{ih}``."""
    gap = w[..., :, None] - w[..., None, :]
    return -1j * t * np.exp(-0.5j * t * gap) * np.sinc(t / (2.0 * np.pi) * gap)


def expm(x) -> np.ndarray:
    """Exponential of an anti-Hermitian matrix, or of each member of a
    ``(..., N, N)`` stack: :func:`hermitian_exp` at ``h = i*x``.  Exact (to
    rounding) for these normal inputs; the result is unitary.  Raises if a
    member is not square or its anti-Hermitian gap ``|x + x^+|_F`` is NaN or
    exceeds 1e-10, as it is for a member holding NaN or inf.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise PreconditionError(f"expected square matrices, got shape {x.shape}")
    with np.errstate(invalid="ignore"):
        gap = np.linalg.norm(x + x.swapaxes(-1, -2).conj(), axis=(-2, -1) if x.ndim > 2 else None)
    if not (gap <= 1e-10).all():
        raise PreconditionError("the exponent is not anti-Hermitian")
    return hermitian_exp(1j * x)[2]


def frobenius_distance(u, v) -> float:
    """Frobenius distance ||u - v||_F minimized over a global phase of ``v``.

    The minimizing phase is the argument of tr(u^+ v), so the quotient
    distance is still closed-form.
    """
    u = _as_matrix(u)
    v = _as_matrix(v)
    if u.shape != v.shape:
        raise PreconditionError(f"dimension mismatch: {u.shape} vs {v.shape}")
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) > 0.0:
        v = v * (overlap.conjugate() / abs(overlap))
    return float(np.linalg.norm(u - v))


def haar_random_special_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random element of SU(n), deterministic for a fixed seed.

    Ginibre + QR with the usual phase fix gives Haar on U(n); dividing by the
    principal n-th root of the determinant lands in SU(n).
    """
    if n < 2:
        raise PreconditionError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return project_special(q)[0]


def project_special(u) -> tuple[np.ndarray, float]:
    """Divide a unitary by the principal N-th root of its determinant.

    Returns the SU(N) representative together with the removed phase angle
    (the argument of that root).  A NaN or inf entry fails the ``|det| = 1`` test.
    """
    u = _as_matrix(u)
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(u)
    if not abs(abs(det) - 1.0) <= 1e-8:
        raise PreconditionError("matrix is not unitary (|det| != 1)")
    phase = np.angle(det) / u.shape[0]
    return u * np.exp(-1j * phase), float(phase)


# -- simultaneous diagonalization of a symmetric unitary ----------------------

def _refine_clusters(o: np.ndarray, values: np.ndarray, other: np.ndarray,
                     gap: float) -> np.ndarray:
    """Rotate eigenvector columns inside degenerate clusters of ``values`` so
    they also diagonalize ``other`` (which commutes with the first matrix)."""
    order = np.argsort(values, kind="stable")
    o = o[:, order]
    values = values[order]
    start = 0
    n = len(values)
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] < gap:
            stop += 1
        if stop - start > 1:
            block = o[:, start:stop]
            sub = block.T @ other @ block
            sub = (sub + sub.T) / 2.0
            _, rot = np.linalg.eigh(sub)
            o[:, start:stop] = block @ rot
        start = stop
    return o


_DIAG_RESIDUAL_TOL = 1e-9  # largest accepted |o diag(e) o^T - msym|_F


def _combination_coefficients():
    """The fixed sequence of 60 coefficients c tried in ``re + c * im``: 1, then
    draws from a seeded generator, which is created only if 1 fails."""
    yield 1.0
    rng = np.random.default_rng(0x5D1A6)
    for _ in range(59):
        yield rng.uniform(0.25, 4.0) * rng.choice([-1.0, 1.0])


def diag_symmetric_unitary(msym) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex-symmetric unitary with a real orthogonal frame.

    Returns ``(o, e)`` with ``o`` real special orthogonal and ``e`` the vector
    of unit-modulus eigenvalues, such that ``msym = o @ diag(e) @ o.T``.

    A symmetric unitary splits into commuting real-symmetric parts
    ``re(msym)`` and ``im(msym)``; a random real combination of the two is
    diagonalized, with per-cluster refinement when that combination is
    accidentally degenerate.  The combination coefficient sequence is fixed,
    so the routine is deterministic.
    """
    msym = _as_matrix(msym)
    if not is_unitary(msym, 1e-8):
        raise PreconditionError("input is not unitary")
    if not is_symmetric(msym, 1e-8):
        raise PreconditionError("input is not complex-symmetric")

    re, im = np.real(msym).copy(), np.imag(msym).copy()
    re = (re + re.T) / 2.0
    im = (im + im.T) / 2.0
    best_residual = np.inf
    eye_gap = 1e-7 * max(1.0, np.linalg.norm(msym))
    for c in _combination_coefficients():
        w, o = np.linalg.eigh(re + c * im)
        o = _refine_clusters(o, w, im, eye_gap)
        e = np.einsum("ji,jk,ki->i", o, msym, o)
        residual = np.linalg.norm(o @ (e[:, None] * o.T) - msym)
        if residual <= _DIAG_RESIDUAL_TOL:
            if np.linalg.det(o) < 0:
                o[:, 0] = -o[:, 0]
            e = e / np.abs(e)
            return o, e
        best_residual = min(best_residual, residual)
    raise NumericalFailure(
        "failed to diagonalize symmetric unitary with a real orthogonal frame",
        residual=best_residual,
    )


# -- real logarithm of a special orthogonal matrix ----------------------------

_DGEES = get_lapack_funcs("gees", dtype=np.float64)


def _no_sort(re, im):  # dgees takes a selector even when it does not sort
    return 0


def log_special_orthogonal(o) -> np.ndarray:
    """Real antisymmetric logarithm of a real special orthogonal matrix.

    The real Schur form comes from one LAPACK ``dgees`` call, without SciPy's
    input checks and workspace query (``lwork = max(1, 3n)``); a non-square
    input, NaN, inf or an overflowing ``o^T o`` raise PreconditionError
    before it.  Planar rotation angles are taken in (-pi, pi].  Eigenvalue -1
    always has even multiplicity here (det +1); such eigenvalues are paired
    into explicit rotation-by-pi planes.
    """
    o = _as_matrix(o, None)
    n = o.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(o):
            if not np.linalg.norm(o.imag) <= 1e-8:
                raise PreconditionError("input is not real")
            o = o.real
        o = np.asarray(o, dtype=float)
        if not np.linalg.norm(o.T @ o - np.eye(n)) <= 1e-8:
            raise PreconditionError("input is not orthogonal")
    if np.linalg.det(o) < 0:
        raise PreconditionError("input has determinant -1")
    if n == 0:  # dgees refuses an empty matrix
        return np.zeros((0, 0))

    t, _, _, _, q, _, info = _DGEES(_no_sort, o, lwork=max(1, 3 * n))
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    x = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12:
            # 2x2 rotation block; average the redundant entries for robustness.
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
    if len(minus_ones) % 2 != 0:
        raise NumericalFailure(
            "odd multiplicity of eigenvalue -1 in a det +1 orthogonal matrix",
            residual=float(len(minus_ones)),
        )
    # A rotation by pi in the (i, j) plane exponentiates to -1 on both axes.
    for i, j in zip(minus_ones[::2], minus_ones[1::2]):
        x[i, j] = -np.pi
        x[j, i] = np.pi
    x = q @ x @ q.T
    return (x - x.T) / 2.0
