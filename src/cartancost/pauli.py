"""Pauli-string operator algebra for su(2**n), n <= 4.

Pauli strings are plain letter strings over ``IXYZ`` ("XZ" means X on qubit 0
and Z on qubit 1).  ``pauli_strings(n)`` fixes one order of the 4**n - 1
non-identity strings, and a Hermitian operator (class :class:`Hamiltonian`)
is its real coefficient vector in that order.  The trace inner product
``tr(AB) = 2**n * (a . b)`` is a vector operation, because distinct strings
are trace orthogonal and every string squares to the identity.  The dense
matrix is one contraction with ``dense_basis(n)``; commutators are taken on
dense matrices.

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
real orthogonal and z diagonal.  Each such split is the eigenspace split of
an involution theta, which fixes its type (see :func:`involution`) and, for
type AI, the basis change when none is given; :attr:`CartanSplit.refusal` judges it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError
from .linalg import diag_symmetric_unitary

__all__ = [
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
    "SplitReport",
    "verify_cartan_split",
    "involution",
    "builtin_split",
    "AdaptedBasisReport",
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
def dense_basis(n: int) -> np.ndarray:
    """Read-only stack of the dense matrices of ``pauli_strings(n)``, in order."""
    stack = np.stack([pauli_matrix(s) for s in pauli_strings(n)])
    stack.setflags(write=False)
    return stack


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
    string in ``pauli_strings(n)`` order.  ``vec`` is read-only.
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

    def norm(self) -> float:
        """Trace norm sqrt(tr(H^2)) with unnormalized strings (tr P^2 = 2**n)."""
        return float(np.sqrt(2**self.n * (self.vec * self.vec).sum()))

    def to_matrix(self) -> np.ndarray:
        stack = dense_basis(self.n)
        return (self.vec @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Hamiltonian":
        """Expansion of a Hermitian traceless matrix by :func:`hermitian_coefficients`."""
        m = np.asarray(m, dtype=complex)
        return cls(m.shape[0].bit_length() - 1, hermitian_coefficients(m))


def hermitian_coefficients(m: np.ndarray) -> np.ndarray:
    """Real coefficients over ``pauli_strings(n)`` of a Hermitian traceless
    ``2**n``-dimensional matrix, one row per member of a stack.  Raises if a
    member's anti-Hermitian or identity leakage over max(its largest |entry|,
    1), a scale no norm of a huge matrix overflows, exceeds 1e-9 or is NaN, as
    it is for a member holding NaN or inf."""
    dim = m.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise PreconditionError(f"dimension {dim} is not a power of two")
    with np.errstate(invalid="ignore"):
        raw = np.einsum("kij,...ji->...k", dense_basis(n), m) / dim
        scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
        leak = (np.linalg.norm(raw.imag / scale[..., None], axis=-1)
                + abs(np.trace(m, axis1=-2, axis2=-1)) / dim / scale)
    if not (leak <= 1e-9).all():
        raise PreconditionError(
            f"matrix is not Hermitian-traceless within tolerance (relative leak {leak.max():.2e})"
        )
    return raw.real


def trace_inner_product(a: Hamiltonian, b: Hamiltonian) -> float:
    """tr(AB) computed in coefficient space."""
    if a.n != b.n:
        raise PreconditionError("operands act on different qubit counts")
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
        h = Hamiltonian(n, h.vec * (norm / h.norm()))
    return h


def support_residual(h: Hamiltonian, strings) -> float:
    """Trace norm of the component of ``h`` outside the span of ``strings``."""
    return Hamiltonian(h.n, np.where(_mask(h.n, strings), 0.0, h.vec)).norm()


# -- Cartan splits -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CartanSplit:
    """A split su(2**n) = span(l) + span(p) with the maximal commuting subspace
    ``z_basis`` of p and the adapted :attr:`frame`, conjugation by which
    diagonalizes z and realifies exp(i*l); :attr:`refusal` judges the split."""

    n: int
    l_basis: tuple[str, ...]
    p_basis: tuple[str, ...]
    z_basis: tuple[str, ...]
    q: np.ndarray | None = field(default=None, repr=False)
    kind: str = "custom"

    @cached_property
    def theta(self) -> tuple[str, bool] | None:
        """The :func:`involution` of the l and p lists, None if there is none."""
        return involution(self.n, self.l_basis, self.p_basis)

    @cached_property
    def frame(self) -> np.ndarray:
        """``q``; without it, read-only, for type AI the Takagi factor W = O diag(sqrt e)
        of T = O diag(e) O^T = W W^T, which realifies exp(i*l), turned by the
        eigenbasis of the z images W^+ P W (real symmetric, as P is in p, and
        commuting) unless they are diagonal; for other types the identity."""
        if self.q is not None:
            return self.q
        w = np.eye(2**self.n, dtype=complex)
        if self.type == "AI":
            o, e = diag_symmetric_unitary(pauli_matrix(self.theta[0]))
            w = o * np.sqrt(e)
            img = w.conj().T @ dense_basis(self.n)[_indices(self.n, self.z_basis)] @ w
            if np.count_nonzero(img - img * np.eye(len(w))):
                # no nonzero {-1, 0, 1} combination of sqrt(2), ..., sqrt(16) vanishes, so
                # the distinct joint signs of a maximal z (<= 15 images) stay distinct
                c = np.sqrt(np.arange(2, len(img) + 2))
                w = w @ np.linalg.eigh(np.tensordot(c, img.real, 1))[1]
        w.setflags(write=False)
        return w

    @cached_property
    def adapted(self) -> "AdaptedBasisReport":
        """Residuals of :attr:`frame`, once per split and exact over the strings:
        a unitary q realifies exp(i*l) iff q^+ (iP) q is real for every l string
        P, and diagonalizes z iff q^+ P q is diagonal for every z string P."""
        n, q, dim = self.n, self.frame, 2**self.n
        if np.shape(q) != (dim, dim):
            return AdaptedBasisReport(np.inf, np.inf, np.inf, False)
        qh, stack = q.conj().T, dense_basis(n)
        # a frame too large to square gives inf or NaN residuals, which fail the check
        with np.errstate(over="ignore", invalid="ignore"):
            l_img, z_img = (qh @ stack[_indices(n, b)] @ q for b in (self.l_basis, self.z_basis))
            # Im(iM) = Re M
            realness = float(np.max(np.linalg.norm(l_img.real, axis=(1, 2)), initial=0.0))
            orthogonality = float(np.linalg.norm(qh @ q - np.eye(dim)))
            off = np.linalg.norm(z_img * (1 - np.eye(dim)), axis=(1, 2))
            diagonality = float(np.max(off, initial=0.0))
        ok = realness <= 1e-8 and orthogonality <= 1e-8 and diagonality <= 1e-10
        return AdaptedBasisReport(realness, orthogonality, diagonality, ok)

    @cached_property
    def z_maximal(self) -> bool:
        """True iff z lies in p, is commuting and nothing in p outside span(z)
        commutes with all of z; computed once per split.  For distinct
        strings, the kernel of the joint commutator map on span(p) is spanned
        by the p strings commuting with every z string."""
        if not set(self.z_basis) <= set(self.p_basis):
            return False
        p, z = _codes(self.n, self.p_basis), _codes(self.n, self.z_basis)
        return (not _anticommute(z, z, self.n).any()
                and int((~_anticommute(p, z, self.n).any(axis=1)).sum()) == len(z))

    @cached_property
    def refusal(self) -> str | None:
        """Why KAK cannot price the split, None if it can: the first gate it
        fails of its type (only AI is priced), its z and its frame."""
        if self.type != "AI":
            return ("not a Cartan split" if self.type is None
                    else f"split of type {self.type}: only type AI is priced")
        if not self.z_maximal:
            return "the split's z is not a maximal commuting subset of p"
        frame = self.adapted
        if not frame.ok:
            return (f"the split's frame Q is not adapted to it (im {frame.realness:.2e}, "
                    f"orth {frame.orthogonality:.2e}, diag {frame.diagonality:.2e})")
        return None

    @property
    def type(self) -> str | None:
        """AI or AII for an outer theta with even or odd #Y(T), AIII for an inner one."""
        if self.theta:
            return "AIII" if self.theta[1] else ("AI", "AII")[self.theta[0].count("Y") % 2]
        return None

    @cached_property
    def l_mask(self) -> np.ndarray:
        """True at the l strings, over ``pauli_strings(n)``."""
        return _mask(self.n, self.l_basis)

    @cached_property
    def z_mask(self) -> np.ndarray:
        """True at the z strings, over ``pauli_strings(n)``."""
        return _mask(self.n, self.z_basis)


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


def _involution_table(n: int) -> np.ndarray:
    """Row per string of ``pauli_strings(n)``, True in l; column j < 4**n for
    the outer theta with T of code j, then the inner ones.  uint8 codes
    (4**n <= 256) keep it small; it is not cached, as it takes 0.1 ms."""
    codes = np.arange(4**n, dtype=np.uint8)
    flips = _anticommute(codes[1:], codes, n)  # <T,P> = 1: T P T^+ = -P
    odd_y = np.bitwise_count(np.bitwise_and(*_xz(codes[1:, None], n))) & 1 == 1  # x & z marks Y
    return np.hstack([odd_y ^ flips, ~flips])


def involution(n: int, l_basis, p_basis) -> tuple[str, bool] | None:
    """The involution theta = (T, inner), T a string, with +1 eigenspace span(l)
    and -1 eigenspace span(p), p not empty; the first in code order, outer
    before inner, or None (also when a string is in both lists or in neither).
    By P^T = (-1)^#Y(P) P and T P T^+ = (-1)^<T,P> P (<T,P> = 1 when T and P
    anticommute), P is in l iff #Y(P) + <T,P> is odd for an outer theta(P) =
    -T P^T T^+, and iff <T,P> = 0 for an inner theta(P) = T P T^+."""
    once = sorted(_indices(n, l_basis) + _indices(n, p_basis)) == list(range(4**n - 1))
    once = once and len(p_basis) > 0  # theta = id is no Cartan involution
    match = (_involution_table(n) == _mask(n, l_basis)[:, None]).all(axis=0)
    j = int(match.argmax())
    return (("I" * n, *pauli_strings(n))[j % 4**n], j >= 4**n) if once and match[j] else None


@lru_cache(maxsize=None)
def _involution_bases(n: int, t: str) -> tuple[tuple[str, ...], ...]:
    """l and p of theta(P) = -T P^T T^+ with T = ``t``, and the diagonal strings."""
    in_l = _involution_table(n)[:, _code(t)]
    diagonal = _xz(np.arange(1, 4**n), n)[0] == 0
    return tuple(tuple(itertools.compress(pauli_strings(n), m)) for m in (in_l, ~in_l, diagonal))


@lru_cache(maxsize=None)
def builtin_split(n: int, kind: str) -> CartanSplit:
    """The built-in splits, each the eigenspace split of an outer involution
    theta(P) = -T P^T T^+ with a symmetric T, of type AI (see :func:`involution`).
    Each is built once and shared, with a read-only frame ``q``.

    ``single_x``  n=1, T = Z: l = span(X), so magnetic fields along x are free.
    ``two_local`` n=2, T = YY: l = all one-qubit strings, so local operations
                  are free; the frame is the magic basis.
    ``ai``        1<=n<=4, T = I...I, so theta(P) = -P^T: l = strings with an
                  odd number of Y letters, the orthogonal so(2**n) split; z is
                  the diagonal {I,Z} span and the adapted frame is the
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
        t, z, q = "I" * n, None, np.eye(2**n, dtype=complex)
    else:
        raise PreconditionError(f"unknown split kind {kind!r}")
    l, p, diagonal = _involution_bases(n, t)
    q.setflags(write=False)
    return CartanSplit(n, l, p, diagonal if z is None else z, q, kind)


@dataclass
class AdaptedBasisReport:
    """Residuals of the adapted-frame properties over the basis strings."""

    realness: float       # max || Im(q^+ (iP) q) || over the l strings P
    orthogonality: float  # || q^+ q - I ||
    diagonality: float    # max off-diagonal norm of q^+ P q over the z strings P
    ok: bool
