import itertools

import numpy as np
import pytest

from cartancost import pauli as pa
from cartancost.errors import PreconditionError
from cartancost.linalg import expm

BUILTIN = [(1, "single_x"), (2, "two_local"), (1, "ai"), (2, "ai"), (3, "ai"), (4, "ai")]


class TestProducts:
    def test_single_qubit_table(self):
        assert pa.pauli_product("X", "Y") == (1j, "Z")
        assert pa.pauli_product("Y", "X") == (-1j, "Z")
        assert pa.pauli_product("Z", "X") == (1j, "Y")

    def test_tensor_factorwise(self):
        assert pa.pauli_product("XZ", "YZ") == (1j, "ZI")

    def test_rejects_other_letters(self):
        for p in ("1", "Q", "X3"):
            with pytest.raises(PreconditionError):
                pa.pauli_product(p, "X" * len(p))

    def test_involution(self):
        for s in pa.pauli_strings(2):
            assert pa.pauli_product(s, s) == (1, "II")

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
            ph, r = pa.pauli_product(s, t)
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
                ph, r = pa.pauli_product(s, t)
                want = np.zeros(len(strings))
                if pa.pauli_product(t, s)[0] != ph:
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
        assert (h - back).norm() < 1e-10

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            pa.Hamiltonian.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity_excluded(self):
        # only non-identity strings of length n name a coefficient
        for n, coeffs in ((2, {"II": 1.0}), (1, {"Q": 1.0}), (2, {"X": 1.0})):
            with pytest.raises(PreconditionError):
                pa.Hamiltonian(n, coeffs)

    def test_mixed_qubit_counts_rejected(self):
        one, two = pa.Hamiltonian(1, {"X": 1.0}), pa.Hamiltonian(2, {"XX": 1.0})
        for op in (lambda a, b: a + b, lambda a, b: a - b, pa.trace_inner_product):
            with pytest.raises(PreconditionError):
                op(one, two)


class TestProjection:
    def test_basic(self):
        split = pa.builtin_split(1, "single_x")
        h = pa.Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        assert pa.project(h, split, "l").coeffs == {"X": 1.0}
        assert pa.project(h, split, "p").coeffs == {"Z": 1.0}

    def test_idempotent_and_complete(self):
        rng = np.random.default_rng(3)
        split = pa.builtin_split(2, "two_local")
        h = pa.random_hamiltonian(2, pa.pauli_strings(2), rng)
        hl = pa.project(h, split, "l")
        hp = pa.project(h, split, "p")
        assert (pa.project(hl, split, "l") - hl).norm() == 0.0
        assert (hl + hp - h).norm() == 0.0
        assert pa.trace_inner_product(hl, hp) == 0.0


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
        assert pa.verify_maximal_abelian(split) == _ref_verify_maximal_abelian(split)

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits(self, n, kind):
        self._same(pa.builtin_split(n, kind))

    def test_perturbed_splits(self):
        verdicts = set()
        for seed in range(160):
            split = _perturbed_split(seed)
            self._same(split)
            report = pa.verify_cartan_split(split)
            verdicts.add((report.all_ok, pa.verify_maximal_abelian(split)))
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
        assert pa.verify_maximal_abelian(split)

    def test_two_local_center(self):
        split = pa.builtin_split(2, "two_local")
        assert set(split.z_basis) == {"XX", "YY", "ZZ"}

    def test_invalid_counterexample(self):
        bad = pa.CartanSplit(1, ("X", "Y"), ("Z",), ("Z",), np.eye(2, dtype=complex))
        report = pa.verify_cartan_split(bad)
        assert not report.all_ok
        assert ("[l,l]", "X", "Y", "Z") in report.violations

    def test_empty_z_is_not_maximal(self):
        split = pa.builtin_split(2, "two_local")
        empty = pa.CartanSplit(2, split.l_basis, split.p_basis, (), split.q)
        assert not pa.verify_maximal_abelian(empty)

    def test_non_maximal_z(self):
        split = pa.builtin_split(2, "two_local")
        shrunk = pa.CartanSplit(2, split.l_basis, split.p_basis, ("XX",), split.q)
        assert not pa.verify_maximal_abelian(shrunk)

    @pytest.mark.parametrize("n,kind", BUILTIN)
    def test_builtin_splits_are_involution_eigenspaces(self, n, kind):
        # theta(P) = -T P^T T^+ on dense matrices: +P exactly on l, -P on p
        t = pa.pauli_matrix({"single_x": "Z", "two_local": "YY", "ai": "I" * n}[kind])
        split = pa.builtin_split(n, kind)
        for basis, sign in ((split.l_basis, 1), (split.p_basis, -1)):
            for s in basis:
                m = pa.pauli_matrix(s)
                assert np.array_equal(-t @ m.T @ t.conj().T, sign * m)
        assert sorted(split.l_basis + split.p_basis) == sorted(pa.pauli_strings(n))

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


class TestAdaptedBasis:
    @pytest.mark.parametrize("n,kind", [(1, "single_x"), (2, "two_local"), (2, "ai"), (3, "ai")])
    def test_builtin_frames(self, n, kind):
        report = pa.adapted_basis_properties(pa.builtin_split(n, kind), samples=10, seed=7)
        assert report.ok

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
