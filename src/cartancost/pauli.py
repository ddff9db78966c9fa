"""Pauli-string operator algebra for su(2**n), n <= 4.

Pauli strings are plain letter strings over ``IXYZ`` ("XZ" means X on qubit 0
and Z on qubit 1).  ``pauli_strings(n)`` fixes one order of the 4**n - 1
non-identity strings, and a Hermitian operator (class :class:`Hamiltonian`)
is its real coefficient vector in that order.  Sums, restrictions to a basis
list and the trace inner product ``tr(AB) = 2**n * (a . b)`` are vector
operations, because distinct strings are trace orthogonal and every string
squares to the identity.  The dense matrix is one contraction with
``dense_basis(n)``; commutators are taken on dense matrices.

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
    "pauli_weight",
    "pauli_matrix",
    "pauli_strings",
    "dense_basis",
    "Hamiltonian",
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

# sigma_a sigma_b = phase * sigma_c for the non-trivial combinations
_PRODUCT = {
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}

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


def pauli_product(p: str, q: str) -> tuple[complex, str]:
    """Product of two Pauli strings: matrix(p) @ matrix(q) = phase * matrix(r)."""
    if len(p) != len(q):
        raise PreconditionError("strings act on different qubit counts")
    phase = 1 + 0j
    out = []
    for a, b in zip(p, q):
        if a == "I":
            out.append(b)
        elif b == "I" or a == b:
            out.append("I" if a == b else a)
        else:
            ph, c = _PRODUCT[(a, b)]
            phase *= ph
            out.append(c)
    return phase, "".join(out)


def pauli_weight(s: str) -> int:
    return sum(1 for c in s if c != "I")


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

    def to_vector(self, strings) -> np.ndarray:
        return self.vec[_indices(self.n, strings)]

    def to_matrix(self) -> np.ndarray:
        stack = dense_basis(self.n)[1]
        return (self.vec @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])

    @classmethod
    def from_vector(cls, n: int, strings, values) -> "Hamiltonian":
        return cls(n, dict(zip(strings, values)))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Hamiltonian":
        """Coefficient expansion of a Hermitian traceless matrix.

        Raises if the anti-Hermitian or identity leakage exceeds 1e-9
        relative to the matrix norm.
        """
        m = np.asarray(m, dtype=complex)
        dim = m.shape[0]
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise PreconditionError(f"dimension {dim} is not a power of two")
        _, stack = dense_basis(n)
        raw = np.einsum("kij,ji->k", stack, m) / dim
        scale = max(np.linalg.norm(m), 1.0)
        leak = np.linalg.norm(raw.imag) + abs(np.trace(m)) / dim
        if leak > 1e-9 * scale:
            raise PreconditionError(
                f"matrix is not Hermitian-traceless within tolerance (leak {leak:.2e})"
            )
        return cls(n, raw.real)


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
    h = Hamiltonian.from_vector(n, strings, values)
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


def _strings_commute(s: str, t: str) -> bool:
    return pauli_product(s, t)[0] == pauli_product(t, s)[0]


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
    checks are exact and need no tolerance.
    """
    lset, pset = set(split.l_basis), set(split.p_basis)
    violations = []

    def check(pairs, target, label):
        ok = True
        for s, t in pairs:
            if _strings_commute(s, t):
                continue
            _, r = pauli_product(s, t)
            if r not in target:
                ok = False
                violations.append((label, s, t, r))
        return ok

    ll_ok = check(itertools.combinations(split.l_basis, 2), lset, "[l,l]")
    pl_ok = check(itertools.product(split.p_basis, split.l_basis), pset, "[p,l]")
    pp_ok = check(itertools.combinations(split.p_basis, 2), lset, "[p,p]")

    spanned = {
        pauli_product(s, t)[1]
        for s, t in itertools.product(split.p_basis, split.l_basis)
        if not _strings_commute(s, t)
    }
    pl_spans = pset <= spanned

    full = set(pauli_strings(split.n))
    orthogonal_ok = (
        not (lset & pset)
        and len(lset) == len(split.l_basis)
        and len(pset) == len(split.p_basis)
        and lset | pset == full
        and set(split.z_basis) <= pset
    )
    return SplitReport(ll_ok, pl_ok, pp_ok, orthogonal_ok, pl_spans, violations)


def builtin_split(n: int, kind: str) -> CartanSplit:
    """The built-in splits.

    ``single_x``  n=1, l = span(X): magnetic fields along x are free.
    ``two_local`` n=2, l = all one-qubit strings: local operations are free.
    ``ai``        1<=n<=4, l = strings with an odd number of Y letters, the
                  orthogonal so(2**n) split; z is the diagonal {I,Z} span and
                  the adapted frame is the computational basis itself.
    """
    if kind == "single_x":
        if n != 1:
            raise PreconditionError("single_x requires n=1")
        q = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        return CartanSplit(1, ("X",), ("Y", "Z"), ("Z",), q, kind)
    elif kind == "two_local":
        if n != 2:
            raise PreconditionError("two_local requires n=2")
        strings = pauli_strings(2)
        l = tuple(s for s in strings if pauli_weight(s) == 1)
        p = tuple(s for s in strings if pauli_weight(s) == 2)
        return CartanSplit(2, l, p, ("XX", "YY", "ZZ"), MAGIC_BASIS.copy(), kind)
    elif kind == "ai":
        if not 1 <= n <= 4:
            raise PreconditionError("ai split supports 1 <= n <= 4")
        strings = pauli_strings(n)
        l = tuple(s for s in strings if s.count("Y") % 2 == 1)
        p = tuple(s for s in strings if s.count("Y") % 2 == 0)
        z = tuple(s for s in strings if set(s) <= {"I", "Z"})
        return CartanSplit(n, l, p, z, np.eye(2**n, dtype=complex), kind)
    raise PreconditionError(f"unknown split kind {kind!r}")


def verify_maximal_abelian(split: CartanSplit) -> bool:
    """True iff z is commuting and nothing in p outside span(z) commutes
    with all of z (kernel of the joint commutator map has dimension |z|)."""
    for s, t in itertools.combinations(split.z_basis, 2):
        if not _strings_commute(s, t):
            return False
    # column per p string: its commutators with every z element, stacked
    joint = np.array([
        np.concatenate([
            i_commutator(Hamiltonian(split.n, {s: 1.0}), Hamiltonian(split.n, {z: 1.0})).vec
            for z in split.z_basis
        ])
        for s in split.p_basis
    ]).T
    kernel_dim = len(split.p_basis) - np.linalg.matrix_rank(joint, tol=1e-10)
    return kernel_dim == len(split.z_basis)


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
