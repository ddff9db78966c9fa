import itertools
import warnings

import numpy as np
import pytest

from cartancost import pauli as pa
from cartancost.errors import PreconditionError
from cartancost.linalg import expm

BUILTIN = [(1, "single_x"), (2, "two_local"), (1, "ai"), (2, "ai"), (3, "ai"), (4, "ai")]


def _product(p, q):
    """matrix(p) @ matrix(q) = phase * matrix(r) from the module's codes: r has
    the XOR of the codes of p and q, and with #Y the count of Y letters (the
    bits x & z) the phase is i**(#Y(p) + #Y(q) - #Y(r) + 2 |z_p & x_q|)."""
    n = len(p)
    a, b = pa._code(p), pa._code(q)
    r = a ^ b
    (xa, za), (xb, zb), (xr, zr) = pa._xz(a, n), pa._xz(b, n), pa._xz(r, n)
    power = (xa & za).bit_count() + (xb & zb).bit_count() - (xr & zr).bit_count()
    power += 2 * (za & xb).bit_count()
    return 1j ** (power % 4), "".join("IXYZ"[r >> 2 * k & 3] for k in reversed(range(n)))


class TestProducts:
    """The string codes and their symplectic bits, on which the split checks
    run, reproduce the dense Pauli products."""

    def test_single_qubit_table(self):
        assert _product("X", "Y") == (1j, "Z")
        assert _product("Y", "X") == (-1j, "Z")
        assert _product("Z", "X") == (1j, "Y")

    def test_tensor_factorwise(self):
        assert _product("XZ", "YZ") == (1j, "ZI")

    def test_rejects_other_letters(self):
        # a digit would otherwise read as its own code in the bit checks
        for p in ("1", "Q", "X3"):
            split = pa.CartanSplit(len(p), (p,), ("X" * len(p),), (), np.eye(2 ** len(p)))
            with pytest.raises(PreconditionError):
                pa.verify_cartan_split(split)

    def test_involution(self):
        for s in pa.pauli_strings(2):
            assert _product(s, s) == (1, "II")

    def test_dense_agreement_all_pairs(self):
        pairs = [
            pair for n in (1, 2, 3)
            for pair in itertools.product(["I" * n, *pa.pauli_strings(n)], repeat=2)
        ]
        # and a seeded sample of n=4 pairs, identity included
        four = ["IIII", *pa.pauli_strings(4)]
        rng = np.random.default_rng(11)
        pairs += [(four[i], four[j]) for i, j in rng.integers(0, len(four), size=(600, 2))]
        for s, t in pairs:
            ph, r = _product(s, t)
            lhs = pa.pauli_matrix(s) @ pa.pauli_matrix(t)
            assert np.allclose(lhs, ph * pa.pauli_matrix(r), atol=1e-12)

    def test_commutators_match_dense(self):
        # i[s, t] vs products of dense matrices and vs the string structure
        # constants: 2i * phase * r when s and t anticommute, zero otherwise
        for n in (1, 2, 3):
            strings = pa.pauli_strings(n)
            for s, t in itertools.combinations(strings, 2):
                com = pa.i_commutator(
                    pa.Hamiltonian(n, {s: 1.0}), pa.Hamiltonian(n, {t: 1.0})
                )
                dense = 1j * (
                    pa.pauli_matrix(s) @ pa.pauli_matrix(t)
                    - pa.pauli_matrix(t) @ pa.pauli_matrix(s)
                )
                assert np.linalg.norm(com.to_matrix() - dense) < 1e-12
                ph, r = _product(s, t)
                want = np.zeros(len(strings))
                if _product(t, s)[0] != ph:
                    assert ph.real == 0.0
                    want[strings.index(r)] = (2j * ph).real
                assert np.max(np.abs(com.vec - want)) < 1e-12


class TestHamiltonian:
    def test_trace_inner_product_examples(self):
        x = pa.Hamiltonian(1, {"X": 1.0})
        z = pa.Hamiltonian(1, {"Z": 1.0})
        assert pa.trace_inner_product(x, x) == 2.0
        assert pa.trace_inner_product(x, z) == 0.0

    def test_trace_inner_product_dense_oracle(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            a = pa.random_hamiltonian(n, pa.pauli_strings(n), rng)
            b = pa.random_hamiltonian(n, pa.pauli_strings(n), rng)
            dense = np.trace(a.to_matrix() @ b.to_matrix()).real
            assert abs(pa.trace_inner_product(a, b) - dense) < 1e-10

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(1)
        h = pa.random_hamiltonian(2, pa.pauli_strings(2), rng)
        dense = np.sqrt(np.trace(h.to_matrix() @ h.to_matrix()).real)
        assert abs(h.norm() - dense) < 1e-10

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(2)
        h = pa.random_hamiltonian(3, pa.pauli_strings(3), rng)
        back = pa.Hamiltonian.from_matrix(h.to_matrix())
        assert np.sqrt(8 * ((h.vec - back.vec) ** 2).sum()) < 1e-10

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            pa.Hamiltonian.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "stack"])
    def test_coefficients_reject_non_finite_without_warning(self, entry, where):
        m = np.array([[entry, 0.0], [0.0, -entry]], dtype=complex)
        if where == "off-diagonal":
            m = np.array([[0.0, entry], [np.conj(entry), 0.0]], dtype=complex)
        elif where == "stack":
            m = np.stack([pa.pauli_matrix("X"), m])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="Hermitian-traceless"):
                pa.hermitian_coefficients(m)

    def test_coefficients_scale_does_not_overflow(self):
        # the tolerance scale of a huge matrix stays finite: an anti-Hermitian
        # one is refused, a Hermitian one expanded, both without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="Hermitian-traceless"):
                pa.hermitian_coefficients(np.array([[0.0, 1e300], [-1e300, 0.0]], dtype=complex))
            got = pa.hermitian_coefficients(np.diag([1e300, -1e300]).astype(complex))
        assert np.array_equal(got, [0.0, 0.0, 1e300])

    def test_identity_excluded(self):
        # only non-identity strings of length n name a coefficient
        for n, coeffs in ((2, {"II": 1.0}), (1, {"Q": 1.0}), (2, {"X": 1.0})):
            with pytest.raises(PreconditionError):
                pa.Hamiltonian(n, coeffs)

    def test_mixed_qubit_counts_rejected(self):
        one, two = pa.Hamiltonian(1, {"X": 1.0}), pa.Hamiltonian(2, {"XX": 1.0})
        with pytest.raises(PreconditionError, match="different qubit counts"):
            pa.trace_inner_product(one, two)

    def test_support_residual(self):
        h = pa.Hamiltonian(2, {"XX": 0.6, "IZ": 0.8})
        assert pa.support_residual(h, ("XX", "IZ")) == 0.0
        assert pa.support_residual(h, ("XX",)) == pytest.approx(2 * 0.8, abs=1e-15)
        assert pa.support_residual(h, ()) == h.norm()

    def test_random_hamiltonian_rescaled(self):
        rng = np.random.default_rng(4)
        h = pa.random_hamiltonian(2, ("XX", "YY"), rng, norm=0.7)
        assert h.norm() == pytest.approx(0.7, abs=1e-15)
        assert not h.vec[~pa._mask(2, ("XX", "YY"))].any()


# -- the former string-by-string split checks, kept as references -----------

_REF_PRODUCT = {
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def _ref_pauli_product(p, q):
    phase = 1 + 0j
    out = []
    for a, b in zip(p, q):
        if a == "I":
            out.append(b)
        elif b == "I" or a == b:
            out.append("I" if a == b else a)
        else:
            ph, c = _REF_PRODUCT[(a, b)]
            phase *= ph
            out.append(c)
    return phase, "".join(out)


def _ref_strings_commute(s, t):
    return _ref_pauli_product(s, t)[0] == _ref_pauli_product(t, s)[0]


def _ref_verify_cartan_split(split):
    lset, pset = set(split.l_basis), set(split.p_basis)
    violations = []

    def check(pairs, target, label):
        ok = True
        for s, t in pairs:
            if _ref_strings_commute(s, t):
                continue
            _, r = _ref_pauli_product(s, t)
            if r not in target:
                ok = False
                violations.append((label, s, t, r))
        return ok

    ll_ok = check(itertools.combinations(split.l_basis, 2), lset, "[l,l]")
    pl_ok = check(itertools.product(split.p_basis, split.l_basis), pset, "[p,l]")
    pp_ok = check(itertools.combinations(split.p_basis, 2), lset, "[p,p]")

    spanned = {
        _ref_pauli_product(s, t)[1]
        for s, t in itertools.product(split.p_basis, split.l_basis)
        if not _ref_strings_commute(s, t)
    }
    pl_spans = pset <= spanned

    full = set(pa.pauli_strings(split.n))
    orthogonal_ok = (
        not (lset & pset)
        and len(lset) == len(split.l_basis)
        and len(pset) == len(split.p_basis)
        and lset | pset == full
        and set(split.z_basis) <= pset
    )
    return pa.SplitReport(ll_ok, pl_ok, pp_ok, orthogonal_ok, pl_spans, violations)


def _ref_verify_maximal_abelian(split):
    for s, t in itertools.combinations(split.z_basis, 2):
        if not _ref_strings_commute(s, t):
            return False
    # column per p string: its commutators with every z element, stacked
    joint = np.array([
        np.concatenate([
            pa.i_commutator(pa.Hamiltonian(split.n, {s: 1.0}), pa.Hamiltonian(split.n, {z: 1.0})).vec
            for z in split.z_basis
        ])
        for s in split.p_basis
    ]).T
    kernel_dim = len(split.p_basis) - np.linalg.matrix_rank(joint, tol=1e-10)
    return kernel_dim == len(split.z_basis)


def _perturbed_split(seed):
    """A built-in split with strings moved between l and p, put in both or
    dropped, z thinned or grown by a p string, and the lists shuffled; each
    list keeps its strings distinct."""
    rng = np.random.default_rng(seed)
    n, kind = BUILTIN[seed % 5]  # ai n=4 is checked unperturbed; its reference is slow
    split = pa.builtin_split(n, kind)
    l, p, z = list(split.l_basis), list(split.p_basis), list(split.z_basis)
    for _ in range(rng.integers(0, 3)):
        src, dst = (l, p) if rng.random() < 0.5 else (p, l)
        if len(src) > 1:
            dst.append(src.pop(rng.integers(len(src))))
    if rng.random() < 0.2:  # a string in both lists, or in neither
        if rng.random() < 0.5:
            p.append(l[rng.integers(len(l))])
        elif len(p) > 1:
            p.pop(rng.integers(len(p)))
    if rng.random() < 0.5:
        z = [s for s in z if rng.random() < 0.6] or z[:1]  # the reference needs a z
    if rng.random() < 0.5:
        extra = [s for s in p if s not in z]
        if extra:
            z.append(extra[rng.integers(len(extra))])
    if rng.random() < 0.5:
        l, p, z = ([str(s) for s in rng.permutation(b)] for b in (l, p, z))
    return pa.CartanSplit(n, tuple(l), tuple(p), tuple(z), split.q)


class TestReferenceEquivalence:
    """The bit-parity checks against the pairwise loops and the dense rank."""

    @staticmethod
    def _same(split):
        got, want = pa.verify_cartan_split(split), _ref_verify_cartan_split(split)
        assert got == want  # every field, violations in order
        assert split.z_maximal == (set(split.z_basis) <= set(split.p_basis)
                                   and _ref_verify_maximal_abelian(split))
        # an involution is found iff the closures hold and the lists partition
        partition = sorted(split.l_basis + split.p_basis) == sorted(pa.pauli_strings(split.n))
        theta = pa.involution(split.n, split.l_basis, split.p_basis)
        assert (theta is not None) == (want.ll_ok and want.pl_ok and want.pp_ok and partition)

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits(self, n, kind):
        self._same(pa.builtin_split(n, kind))

    def test_perturbed_splits(self):
        verdicts = set()
        for seed in range(160):
            split = _perturbed_split(seed)
            self._same(split)
            report = pa.verify_cartan_split(split)
            verdicts.add((report.all_ok, split.z_maximal))
        # the sample reaches passing and failing verdicts of both checks
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


class TestSplits:
    @pytest.mark.parametrize(
        "n,kind,sizes",
        [
            (1, "single_x", (1, 2, 1)),
            (2, "two_local", (6, 9, 3)),
            (1, "ai", (1, 2, 1)),
            (2, "ai", (6, 9, 3)),
            (3, "ai", (28, 35, 7)),
            (4, "ai", (120, 135, 15)),
        ],
    )
    def test_builtin_splits_valid(self, n, kind, sizes):
        split = pa.builtin_split(n, kind)
        assert (len(split.l_basis), len(split.p_basis), len(split.z_basis)) == sizes
        report = pa.verify_cartan_split(split)
        assert report.all_ok and report.pl_spans and not report.violations
        assert len(split.z_basis) == 2**n - 1
        assert split.z_maximal

    def test_two_local_center(self):
        split = pa.builtin_split(2, "two_local")
        assert set(split.z_basis) == {"XX", "YY", "ZZ"}

    def test_invalid_counterexample(self):
        bad = pa.CartanSplit(1, ("X", "Y"), ("Z",), ("Z",), np.eye(2, dtype=complex))
        report = pa.verify_cartan_split(bad)
        assert not report.all_ok
        assert ("[l,l]", "X", "Y", "Z") in report.violations
        assert bad.theta is None and bad.type is None

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits_shared_and_read_only(self, n, kind):
        split = pa.builtin_split(n, kind)
        assert pa.builtin_split(n, kind) is split
        with pytest.raises(ValueError):
            split.q[0, 0] = 0.0

    def test_empty_z_is_not_maximal(self):
        split = pa.builtin_split(2, "two_local")
        empty = pa.CartanSplit(2, split.l_basis, split.p_basis, (), split.q)
        assert not empty.z_maximal

    def test_non_maximal_z(self):
        split = pa.builtin_split(2, "two_local")
        shrunk = pa.CartanSplit(2, split.l_basis, split.p_basis, ("XX",), split.q)
        assert not shrunk.z_maximal

    @pytest.mark.parametrize("n,kind,z,maximal", [
        (2, "two_local", ("XX", "YY", "ZZ"), True), (2, "two_local", ("XY", "YX", "ZZ"), True),
        (2, "two_local", ("XX",), False), (2, "two_local", (), False),
        (2, "two_local", ("XX", "YY", "ZZ", "IX"), False),
        # commuting, and as many p strings commute with it as it has members,
        # but YII lies in l
        (3, "ai", ("IIX", "IXI", "YII"), False)])
    def test_z_maximal(self, monkeypatch, n, kind, z, maximal):
        # z inside p, commuting and maximal there; computed once per split
        base = pa.builtin_split(n, kind)
        split = pa.CartanSplit(n, base.l_basis, base.p_basis, z, base.q)
        assert split.z_maximal is maximal
        monkeypatch.setattr(pa, "_anticommute", None)
        assert split.z_maximal is maximal

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits_are_involution_eigenspaces(self, n, kind):
        # theta(P) = -T P^T T^+ on dense matrices: +P exactly on l, -P on p
        name = {"single_x": "Z", "two_local": "YY", "ai": "I" * n}[kind]
        t = pa.pauli_matrix(name)
        split = pa.builtin_split(n, kind)
        for basis, sign in ((split.l_basis, 1), (split.p_basis, -1)):
            for s in basis:
                m = pa.pauli_matrix(s)
                assert np.array_equal(-t @ m.T @ t.conj().T, sign * m)
        assert sorted(split.l_basis + split.p_basis) == sorted(pa.pauli_strings(n))
        # recovered from the lists alone, the same outer theta
        assert pa.involution(n, split.l_basis, split.p_basis) == split.theta == (name, False)
        assert split.type == "AI"

    def test_recovered_types(self):
        strings = pa.pauli_strings(2)
        aiii = [s for s in strings if s[0] in "IZ"], [s for s in strings if s[0] not in "IZ"]
        aii = pa._involution_bases(2, "YI")[:2]
        for (l, p), theta, kind in ((aiii, ("ZI", True), "AIII"), (aii, ("YI", False), "AII")):
            assert pa.involution(2, l, p) == theta
            split = pa.CartanSplit(2, tuple(l), tuple(p), (), np.eye(4))
            assert split.theta == theta and split.type == kind
        # theta = id, at n=1 also the outer T = Y, splits off no p
        for n in (1, 2):
            assert pa.involution(n, pa.pauli_strings(n), ()) is None

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits_match_string_filters(self, n, kind):
        # the former hand-written filters, order included
        strings = pa.pauli_strings(n)
        if kind == "single_x":
            want = ("X",), ("Y", "Z"), ("Z",)
        elif kind == "two_local":
            weight = [sum(c != "I" for c in s) for s in strings]
            want = (tuple(s for s, w in zip(strings, weight) if w == 1),
                    tuple(s for s, w in zip(strings, weight) if w == 2), ("XX", "YY", "ZZ"))
        else:
            want = (tuple(s for s in strings if s.count("Y") % 2 == 1),
                    tuple(s for s in strings if s.count("Y") % 2 == 0),
                    tuple(s for s in strings if set(s) <= {"I", "Z"}))
        split = pa.builtin_split(n, kind)
        assert (split.l_basis, split.p_basis, split.z_basis) == want

    def test_unsupported_kinds(self):
        with pytest.raises(PreconditionError):
            pa.builtin_split(2, "single_x")
        with pytest.raises(PreconditionError):
            pa.builtin_split(1, "two_local")
        with pytest.raises(PreconditionError):
            pa.builtin_split(5, "ai")


def _ref_adapted_basis_properties(
    split: pa.CartanSplit, samples: int = 20, seed: int = 0
) -> pa.AdaptedBasisReport:
    """Numerically verify the adapted frame: conjugation sends exp(i*l) to
    real orthogonal matrices and z elements to diagonal matrices."""
    rng = np.random.default_rng(seed)
    q = split.q
    realness = orthogonality = diagonality = 0.0
    dim = 2**split.n
    for _ in range(samples):
        k = pa.random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.2, 2.0))
        img = q.conj().T @ expm(1j * k.to_matrix()) @ q
        realness = max(realness, float(np.linalg.norm(img.imag)))
        r = img.real
        orthogonality = max(
            orthogonality, float(np.linalg.norm(r.T @ r - np.eye(dim)))
        )
        z = pa.random_hamiltonian(split.n, split.z_basis, rng, norm=rng.uniform(0.2, 2.0))
        img_z = q.conj().T @ z.to_matrix() @ q
        off = img_z - np.diag(np.diagonal(img_z))
        diagonality = max(diagonality, float(np.linalg.norm(off)))
    ok = realness <= 1e-8 and orthogonality <= 1e-8 and diagonality <= 1e-10
    return pa.AdaptedBasisReport(realness, orthogonality, diagonality, ok)


class TestAdaptedBasis:
    @pytest.mark.parametrize("n,kind", [(1, "single_x"), (2, "two_local"), (2, "ai"), (3, "ai")])
    def test_builtin_frames(self, n, kind):
        assert pa.builtin_split(n, kind).adapted.ok

    @pytest.mark.parametrize("n,kind,frame", [
        *((n, kind, None) for n, kind in BUILTIN), (2, "two_local", "identity"), (2, "ai", "magic"),
    ])
    def test_sampled_reference_verdict(self, n, kind, frame):
        # the built-in frames pass; the identity and magic frames are swapped-in wrong ones
        split = pa.builtin_split(n, kind)
        if frame is not None:
            q = np.eye(4, dtype=complex) if frame == "identity" else pa.MAGIC_BASIS
            split = pa.CartanSplit(n, split.l_basis, split.p_basis, split.z_basis, q)
        assert split.adapted.ok == (frame is None)
        assert _ref_adapted_basis_properties(split).ok == (frame is None)

    def test_magic_frame_realifies_products(self):
        # a random local product conjugates to a real matrix in the magic frame
        rng = np.random.default_rng(8)
        split = pa.builtin_split(2, "two_local")
        k = pa.random_hamiltonian(2, split.l_basis, rng, norm=1.3)
        img = split.q.conj().T @ expm(1j * k.to_matrix()) @ split.q
        assert np.linalg.norm(img.imag) < 1e-10

    def test_single_x_frame(self):
        split = pa.builtin_split(1, "single_x")
        img = split.q.conj().T @ expm(1j * 0.4 * pa.pauli_matrix("X")) @ split.q
        assert np.linalg.norm(img.imag) < 1e-12
