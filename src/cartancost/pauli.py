"""Pauli-string operator algebra for su(2**n), n <= 4.

Pauli strings are plain letter strings over ``IXYZ`` ("XZ" means X on qubit 0
and Z on qubit 1).  ``pauli_strings(n)`` fixes one order of the 4**n - 1
non-identity strings, and a Hermitian operator (class :class:`Hamiltonian`)
is its real coefficient vector in that order.  Sums, restrictions to a basis
list and the trace inner product ``tr(AB) = 2**n * (a . b)`` are vector
operations, because distinct strings are trace orthogonal and every string
squares to the identity.  The dense matrix is one contraction with
``dense_basis(n)``; commutators are taken on dense matrices.

Each string also has one integer code: the string read as a base-4 number
with I, X, Y, Z = 0, 1, 2, 3, so the identity is 0 and ``pauli_strings(n)[k]``
has code ``k + 1``.  In each two-bit digit ``(hi, lo)`` the symplectic bits
are ``x = lo ^ hi`` and ``z = hi`` (Aaronson & Gottesman, PRA 70, 052328).
The product of two strings is, up to phase, the string of the XOR of their
codes; two strings anticommute when ``(x_s & z_t) ^ (z_s & x_t)`` has odd
parity; and ``x & z`` marks the Y letters.  Every split question below is
such a bit operation on arrays of codes.

The module also owns Cartan splits: a pair of subspaces (l, p) closing under
commutators as ``[l,l] in l``, ``[p,l] in p``, ``[p,p] in l``, together with
a maximal commuting subspace z of p and the basis change that makes exp(i*l)
real orthogonal and z diagonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError

__all__ = [
    "pauli_product",
    "pauli_matrix",
    "pauli_strings",
    "dense_basis",
    "Hamiltonian",
    "hermitian_coefficients",
    "trace_inner_product",
    "i_commutator",
    "random_hamiltonian",
    "support_residual",
    "CartanSplit",
    "project",
    "SplitReport",
    "verify_cartan_split",
    "builtin_split",
    "verify_maximal_abelian",
    "AdaptedBasisReport",
    "adapted_basis_properties",
    "MAGIC_BASIS",
]

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_DIGITS = str.maketrans("IXYZ", "0123")

#: Frame in which SU(2) x SU(2) acts as SO(4) and XX, YY, ZZ are diagonal.
MAGIC_BASIS = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)


def _code(s: str) -> int:
    """The code of a string over ``IXYZ``, the identity included."""
    return int("0" + s.translate(_DIGITS), 4)


def _xz(code, n: int):
    """Symplectic bit masks (x, z) of a code or an array of codes."""
    lo = (4**n - 1) // 3  # the low bit of every digit
    hi = (code >> 1) & lo
    return (code & lo) ^ hi, hi


def _anticommute(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Boolean matrix: True where string code ``a[i]`` anticommutes with ``b[j]``."""
    (xa, za), (xb, zb) = _xz(a[:, None], n), _xz(b[None, :], n)
    return np.bitwise_count((xa & zb) ^ (za & xb)) & 1 == 1


def pauli_product(p: str, q: str) -> tuple[complex, str]:
    """Product of two Pauli strings: matrix(p) @ matrix(q) = phase * matrix(r).

    ``r`` has the XOR of the codes of ``p`` and ``q``; with ``#Y`` the count
    of Y letters the phase is ``i**(#Y(p) + #Y(q) - #Y(r) + 2 |z_p & x_q|)``.
    """
    if len(p) != len(q):
        raise PreconditionError("strings act on different qubit counts")
    if (p + q).strip("IXYZ"):  # a digit would otherwise read as its own code
        raise PreconditionError(f"{p!r} or {q!r} has a letter outside IXYZ")
    n = len(p)
    a, b = _code(p), _code(q)
    r = a ^ b
    (xa, za), (xb, zb), (xr, zr) = _xz(a, n), _xz(b, n), _xz(r, n)
    power = (xa & za).bit_count() + (xb & zb).bit_count() - (xr & zr).bit_count()
    power += 2 * (za & xb).bit_count()
    return 1j ** (power % 4), "".join("IXYZ"[r >> 2 * k & 3] for k in reversed(range(n)))


@lru_cache(maxsize=None)
def pauli_matrix(s: str) -> np.ndarray:
    m = _SINGLE[s[0]]
    for c in s[1:]:
        m = np.kron(m, _SINGLE[c])
    m.setflags(write=False)
    return m


@lru_cache(maxsize=8)
def pauli_strings(n: int) -> tuple[str, ...]:
    """All 4**n - 1 non-identity strings on n qubits, in product order."""
    if not 1 <= n <= 4:
        raise PreconditionError("supported qubit counts are 1..4")
    idn = "I" * n
    return tuple(
        "".join(t) for t in itertools.product("IXYZ", repeat=n) if "".join(t) != idn
    )


@lru_cache(maxsize=8)
def dense_basis(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Stacked dense matrices of all non-identity strings, for vectorized use."""
    strings = pauli_strings(n)
    stack = np.stack([pauli_matrix(s) for s in strings])
    stack.setflags(write=False)
    return strings, stack


@lru_cache(maxsize=8)
def _positions(n: int) -> dict[str, int]:
    return {s: k for k, s in enumerate(pauli_strings(n))}


def _indices(n: int, strings) -> list[int]:
    """Positions of ``strings`` in ``pauli_strings(n)``."""
    try:
        return [_positions(n)[s] for s in strings]
    except KeyError as err:
        raise PreconditionError(f"{err.args[0]!r} is not a non-identity string on {n} qubits")


def _codes(n: int, strings) -> np.ndarray:
    return np.array(_indices(n, strings), dtype=np.int64) + 1


def _mask(n: int, strings) -> np.ndarray:
    """Read-only; True at the positions of ``strings`` in ``pauli_strings(n)``."""
    mask = np.zeros(len(pauli_strings(n)), dtype=bool)
    mask[_indices(n, strings)] = True
    mask.setflags(write=False)
    return mask


class Hamiltonian:
    """A Hermitian operator as its real coefficient vector over ``pauli_strings(n)``.

    Built from a ``{string: coefficient}`` map or from one coefficient per
    string in ``pauli_strings(n)`` order.  ``vec`` is read-only; arithmetic
    returns new instances.
    """

    __slots__ = ("n", "vec")

    def __init__(self, n: int, coeffs=None):
        vec = np.zeros(len(pauli_strings(n)))
        if isinstance(coeffs, dict):
            vec[_indices(n, coeffs)] = list(coeffs.values())
        elif coeffs is not None:
            if np.shape(coeffs) != vec.shape:
                raise PreconditionError(f"need {len(vec)} coefficients for n={n}")
            vec[:] = coeffs
        vec.setflags(write=False)
        self.n = n
        self.vec = vec

    @property
    def coeffs(self) -> dict[str, float]:
        """The nonzero terms as a ``{string: coefficient}`` map."""
        return {s: float(c) for s, c in zip(pauli_strings(self.n), self.vec) if c != 0.0}

    def __repr__(self):
        terms = ", ".join(f"{s}: {c:+.4g}" for s, c in sorted(self.coeffs.items()))
        return f"Hamiltonian(n={self.n}, {{{terms}}})"

    def _same_n(self, other: "Hamiltonian") -> None:
        if self.n != other.n:
            raise PreconditionError("operands act on different qubit counts")

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        self._same_n(other)
        return Hamiltonian(self.n, self.vec + other.vec)

    def __sub__(self, other: "Hamiltonian") -> "Hamiltonian":
        self._same_n(other)
        return Hamiltonian(self.n, self.vec - other.vec)

    def __mul__(self, scalar: float) -> "Hamiltonian":
        return Hamiltonian(self.n, self.vec * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Hamiltonian":
        return self * -1.0

    def norm(self) -> float:
        """Trace norm sqrt(tr(H^2)) with unnormalized strings (tr P^2 = 2**n)."""
        return float(np.sqrt(2**self.n * (self.vec * self.vec).sum()))

    def restrict(self, strings) -> "Hamiltonian":
        return Hamiltonian(self.n, np.where(_mask(self.n, strings), self.vec, 0.0))

    def to_matrix(self) -> np.ndarray:
        stack = dense_basis(self.n)[1]
        return (self.vec @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Hamiltonian":
        """Expansion of a Hermitian traceless matrix by :func:`hermitian_coefficients`."""
        m = np.asarray(m, dtype=complex)
        return cls(m.shape[0].bit_length() - 1, hermitian_coefficients(m))


def hermitian_coefficients(m: np.ndarray) -> np.ndarray:
    """Real coefficients over ``pauli_strings(n)`` of a Hermitian traceless
    ``2**n``-dimensional matrix, one row per member of a stack.  Raises if a
    member's anti-Hermitian or identity leakage exceeds 1e-9 * max(|m|_F, 1)."""
    dim = m.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise PreconditionError(f"dimension {dim} is not a power of two")
    raw = np.einsum("kij,...ji->...k", dense_basis(n)[1], m) / dim
    scale = np.maximum(np.linalg.norm(m, axis=(-2, -1) if m.ndim > 2 else None), 1.0)
    leak = np.linalg.norm(raw.imag, axis=-1) + abs(np.trace(m, axis1=-2, axis2=-1)) / dim
    if (leak > 1e-9 * scale).any():
        raise PreconditionError(
            f"matrix is not Hermitian-traceless within tolerance (leak {leak.max():.2e})"
        )
    return raw.real


def trace_inner_product(a: Hamiltonian, b: Hamiltonian) -> float:
    """tr(AB) computed in coefficient space."""
    a._same_n(b)
    # product then sum rather than a dot: no fused multiply-add, so short
    # sums round exactly as a plain loop does
    return float(2**a.n * (a.vec * b.vec).sum())


def i_commutator(a: Hamiltonian, b: Hamiltonian) -> Hamiltonian:
    """i[A, B]; Hermitian again, with real string coefficients."""
    am, bm = a.to_matrix(), b.to_matrix()
    return Hamiltonian.from_matrix(1j * (am @ bm - bm @ am))


def random_hamiltonian(n: int, strings, rng, norm: float | None = None) -> Hamiltonian:
    """Random element of the span of ``strings`` with N(0,1) coefficients,
    optionally rescaled to a given trace norm."""
    strings = tuple(strings)
    values = rng.standard_normal(len(strings))
    h = Hamiltonian(n, dict(zip(strings, values)))
    if norm is not None and h.norm() > 0:
        h = h * (norm / h.norm())
    return h


def support_residual(h: Hamiltonian, strings) -> float:
    """Trace norm of the component of ``h`` outside the span of ``strings``."""
    return (h - h.restrict(strings)).norm()


# -- Cartan splits -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CartanSplit:
    """An orthogonal split of su(2**n) with commutator closure, plus the
    maximal commuting subspace ``z_basis`` of p and the adapted frame ``q``
    (conjugation by which diagonalizes z and realifies exp(i*l))."""

    n: int
    l_basis: tuple[str, ...]
    p_basis: tuple[str, ...]
    z_basis: tuple[str, ...]
    q: np.ndarray = field(repr=False)
    kind: str = "custom"

    @cached_property
    def l_mask(self) -> np.ndarray:
        """True at the l strings, over ``pauli_strings(n)``."""
        return _mask(self.n, self.l_basis)


def project(h: Hamiltonian, split: CartanSplit, which: str) -> Hamiltonian:
    """Coefficient-wise restriction of ``h`` to the l or p basis list."""
    if which not in ("l", "p"):
        raise PreconditionError("which must be 'l' or 'p'")
    return h.restrict(split.l_basis if which == "l" else split.p_basis)


@dataclass
class SplitReport:
    """Outcome of the commutator-closure checks on a split.

    ``pl_spans`` records whether the commutators [p, l] span all of p (the
    strict form of the middle relation); containment alone decides ``pl_ok``.
    """

    ll_ok: bool
    pl_ok: bool
    pp_ok: bool
    orthogonal_ok: bool
    pl_spans: bool
    violations: list[tuple[str, str, str, str]]

    @property
    def all_ok(self) -> bool:
        return self.ll_ok and self.pl_ok and self.pp_ok and self.orthogonal_ok


def verify_cartan_split(split: CartanSplit) -> SplitReport:
    """Check [l,l] in l, [p,l] in p, [p,p] in l on every basis pair.

    Commutators of Pauli strings are single strings, so the containment
    checks are exact and need no tolerance: a pair violates its relation
    when it anticommutes and the XOR of its codes lies outside the target.
    """
    n, strings = split.n, pauli_strings(split.n)
    l, p, z = (_codes(n, b) for b in (split.l_basis, split.p_basis, split.z_basis))
    violations = []

    def check(label, s_basis, t_basis, target, unordered):
        s, t = _codes(n, s_basis), _codes(n, t_basis)
        anti = _anticommute(s, t, n)
        if unordered:  # each pair of one list once, i < j
            anti = np.triu(anti, 1)
        prod = s[:, None] ^ t[None, :]
        bad = anti & ~np.isin(prod, target)
        # nonzero walks row-major, the order of combinations() and product()
        violations.extend((label, s_basis[i], t_basis[j], strings[prod[i, j] - 1])
                          for i, j in zip(*np.nonzero(bad)))
        return not bad.any(), prod[anti]

    ll_ok, _ = check("[l,l]", split.l_basis, split.l_basis, l, True)
    pl_ok, pl_products = check("[p,l]", split.p_basis, split.l_basis, p, False)
    pp_ok, _ = check("[p,p]", split.p_basis, split.p_basis, l, True)
    pl_spans = bool(np.isin(p, pl_products).all())
    # every non-identity string exactly once in l or p, and z inside p
    counts = np.bincount(np.concatenate([l, p]), minlength=4**n)
    orthogonal_ok = bool((counts[1:] == 1).all() and np.isin(z, p).all())
    return SplitReport(ll_ok, pl_ok, pp_ok, orthogonal_ok, pl_spans, violations)


@lru_cache(maxsize=None)
def _involution_bases(n: int, t: str) -> tuple[tuple[str, ...], ...]:
    """l and p of theta(P) = -T P^T T^+ with T = ``t``, and the diagonal strings."""
    codes = np.arange(1, 4**n)
    x, z = _xz(codes, n)
    flips = _anticommute(codes, np.array([_code(t)]), n)[:, 0]  # T P T^+ = -P
    in_l = (np.bitwise_count(x & z) + flips) & 1 == 1
    return tuple(tuple(itertools.compress(pauli_strings(n), m)) for m in (in_l, ~in_l, x == 0))


def builtin_split(n: int, kind: str) -> CartanSplit:
    """The built-in splits.  Each is the eigenspace split of an involution
    theta(P) = -T P^T T^+ of su(2**n): l where theta = +1, p where theta = -1.
    As P^T = (-1)^#Y(P) P and T P T^+ = (-1)^<T,P> P, with <T,P> = 1 when T
    and P anticommute, a string P lies in l iff #Y(P) + <T,P> is odd.

    ``single_x``  n=1, T = Z: l = span(X), so magnetic fields along x are free.
    ``two_local`` n=2, T = YY: l = all one-qubit strings, so local operations
                  are free; the frame is the magic basis.
    ``ai``        1<=n<=4, T = I, so theta(P) = -P^T: l = strings with an odd
                  number of Y letters, the orthogonal so(2**n) split; z is the
                  diagonal {I,Z} span and the adapted frame is the
                  computational basis itself.
    """
    if kind == "single_x":
        if n != 1:
            raise PreconditionError("single_x requires n=1")
        t, z, q = "Z", ("Z",), np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    elif kind == "two_local":
        if n != 2:
            raise PreconditionError("two_local requires n=2")
        t, z, q = "YY", ("XX", "YY", "ZZ"), MAGIC_BASIS.copy()
    elif kind == "ai":
        if not 1 <= n <= 4:
            raise PreconditionError("ai split supports 1 <= n <= 4")
        t, z, q = "I", None, np.eye(2**n, dtype=complex)
    else:
        raise PreconditionError(f"unknown split kind {kind!r}")
    l, p, diagonal = _involution_bases(n, t)
    return CartanSplit(n, l, p, diagonal if z is None else z, q, kind)


def verify_maximal_abelian(split: CartanSplit) -> bool:
    """True iff z is commuting and nothing in p outside span(z) commutes
    with all of z.  For distinct strings, the kernel of the joint commutator
    map on span(p) is spanned by the p strings commuting with every z string.
    """
    p, z = _codes(split.n, split.p_basis), _codes(split.n, split.z_basis)
    if _anticommute(z, z, split.n).any():
        return False
    return int((~_anticommute(p, z, split.n).any(axis=1)).sum()) == len(z)


@dataclass
class AdaptedBasisReport:
    """Residuals of the adapted-frame properties on random samples."""

    realness: float       # max || Im(q^+ exp(iK) q) || over K in l
    orthogonality: float  # max || R^T R - I || for the realified images
    diagonality: float    # max off-diagonal norm of q^+ Z q over Z in z
    ok: bool


def adapted_basis_properties(
    split: CartanSplit, samples: int = 20, seed: int = 0
) -> AdaptedBasisReport:
    """Numerically verify the adapted frame: conjugation sends exp(i*l) to
    real orthogonal matrices and z elements to diagonal matrices."""
    from .linalg import expm  # local import to avoid a cycle

    rng = np.random.default_rng(seed)
    q = split.q
    realness = orthogonality = diagonality = 0.0
    dim = 2**split.n
    for _ in range(samples):
        k = random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.2, 2.0))
        img = q.conj().T @ expm(1j * k.to_matrix()) @ q
        realness = max(realness, float(np.linalg.norm(img.imag)))
        r = img.real
        orthogonality = max(
            orthogonality, float(np.linalg.norm(r.T @ r - np.eye(dim)))
        )
        z = random_hamiltonian(split.n, split.z_basis, rng, norm=rng.uniform(0.2, 2.0))
        img_z = q.conj().T @ z.to_matrix() @ q
        off = img_z - np.diag(np.diagonal(img_z))
        diagonality = max(diagonality, float(np.linalg.norm(off)))
    ok = realness <= 1e-8 and orthogonality <= 1e-8 and diagonality <= 1e-10
    return AdaptedBasisReport(realness, orthogonality, diagonality, ok)
