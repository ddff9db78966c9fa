import functools
import itertools
import json
import warnings

import numpy as np
import pytest

from cartancost import kak, pauli
from cartancost import linalg as la
from cartancost.cli import main
from cartancost.cost import optimal_cost
from cartancost.errors import NumericalFailure, PreconditionError
from cartancost.lattice import closest_lattice_point
from cartancost.serialize import dumps_canonical, matrix_to_json


def roundtrip_residual(u, split):
    f = kak.kak_decompose(u, split)
    return f, la.frobenius_distance(kak.reconstruct(f), u)


class TestCanonicalPhases:
    def test_already_canonical(self):
        z = kak.canonicalize_phases(np.array([0.3, -0.3]))
        assert np.allclose(z, [0.3, -0.3])

    def test_fold_and_balance(self):
        # sum 2*pi with entries in range: two pi-moves restore the zero sum
        z = kak.canonicalize_phases(np.array([0.75, 0.75, 0.75, -0.25]) * np.pi)
        assert abs(z.sum()) < 1e-12
        assert np.all(z <= np.pi + 1e-12) and np.all(z > -np.pi - 1e-12)
        assert np.all(np.diff(z) <= 1e-15)

    @pytest.mark.parametrize("x", [(np.nan, 0.0), (np.inf, -np.inf), (np.inf, 0.0)])
    def test_rejects_non_finite_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="finite"):
                kak.canonicalize_phases(np.array(x))

    def test_rejects_off_lattice_sum(self):
        with pytest.raises(PreconditionError):
            kak.canonicalize_phases(np.array([0.3, 0.3]))

    @pytest.mark.parametrize("x,want", [
        # -pi folds to +pi, then two pi-moves zero the sum
        ((-np.pi, np.pi), (0.0, 0.0)),
        # in range already: the 2 pi fold rounds, so it must leave these alone
        ((0.9 * np.pi, -0.1 * np.pi, -0.8 * np.pi), (0.9 * np.pi, -0.1 * np.pi, -0.8 * np.pi)),
    ])
    def test_out_of_range_inputs(self, x, want):
        np.testing.assert_allclose(kak.canonicalize_phases(np.array(x)), want, rtol=0, atol=1e-15)


class TestKakRoundTrip:
    def test_identity(self):
        split = pauli.builtin_split(2, "two_local")
        f = kak.kak_decompose(np.eye(4, dtype=complex), split)
        assert not (f.l.any() or f.z.any() or f.m.any())
        assert np.allclose(kak.reconstruct(f), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "dim,kind,count",
        [(2, "single_x", 200), (2, "ai", 200), (4, "two_local", 300), (4, "ai", 150), (8, "ai", 60)],
    )
    def test_haar_roundtrip(self, dim, kind, count):
        n = int(np.log2(dim))
        split = pauli.builtin_split(n, kind)
        for seed in range(count):
            u = la.haar_random_special_unitary(dim, 1000 * dim + seed)
            f, res = roundtrip_residual(u, split)
            assert res < 1e-8, (dim, kind, seed, res)
            # frame consistency
            assert np.linalg.norm(f.a.T @ f.a - np.eye(dim)) < 1e-7
            assert abs(np.linalg.det(np.diag(f.d.diagonal())) - 1.0) < 1e-10
            assert abs(np.linalg.det(f.a) - 1.0) < 1e-10
            assert abs(np.linalg.det(f.b) - 1.0) < 1e-10

    def test_degenerate_families(self):
        split = pauli.builtin_split(2, "two_local")
        xx = pauli.pauli_matrix("XX")
        for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            u = la.expm(1j * theta * xx)
            _, res = roundtrip_residual(u, split)
            assert res < 1e-8
        for phi in (0.3, np.pi / 2, np.pi, 1.9 * np.pi):
            cp = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
            u, _ = la.project_special(cp)
            _, res = roundtrip_residual(u, split)
            assert res < 1e-8

    def test_two_pi_fold(self):
        # branch edges: the halved phases are (pi/2, pi/4, pi/4, ~1e-16), the
        # first on the principal edge; their sum pi takes one pi-move, which
        # carries pi/2 to -pi/2
        u = np.diag(np.exp(1j * np.array([np.pi / 2, np.pi / 4, np.pi / 4, -np.pi])))
        f, res = roundtrip_residual(u, pauli.builtin_split(2, "ai"))
        assert res < 1e-8
        z = f.phases
        assert np.all(z > -np.pi) and np.all(z <= np.pi)
        assert z.sum() == 0

    def test_central_construct_oracle(self):
        # exp(iZ0) with small phases decomposes back to the same eigenphases
        split = pauli.builtin_split(2, "ai")
        rng = np.random.default_rng(0)
        for _ in range(50):
            z0 = pauli.random_hamiltonian(2, split.z_basis, rng, norm=0.8)
            raw = np.real(np.diagonal(z0.to_matrix()))
            if np.max(np.abs(raw)) >= np.pi / 2 - 0.05:
                z0 = pauli.Hamiltonian(2, z0.vec * ((np.pi / 2 - 0.1) / np.max(np.abs(raw))))
                raw = np.real(np.diagonal(z0.to_matrix()))
            u = la.expm(1j * z0.to_matrix())
            f, res = roundtrip_residual(u, split)
            assert res < 1e-8
            assert np.allclose(f.phases, kak.canonicalize_phases(raw), atol=1e-9)

    def test_subspace_membership(self):
        split = pauli.builtin_split(4, "ai")
        u = la.haar_random_special_unitary(16, 7)
        f = kak.kak_decompose(u, split)
        assert not f.l[~split.l_mask].any() and not f.m[~split.l_mask].any()
        assert not f.z[~split.z_mask].any()
        assert la.frobenius_distance(kak.reconstruct(f), u) < 1e-8

    @pytest.mark.parametrize("n,kind", [(1, "single_x"), (2, "two_local"), (3, "ai")])
    def test_legs_are_read_only_rows_of_the_decompose_maps(self, tmp_path, capsys, n, kind):
        u = la.haar_random_special_unitary(2**n, 11)
        path = tmp_path / "u.json"
        path.write_text(dumps_canonical(matrix_to_json(u)))
        assert main(["decompose", str(path), "--split", kind]) == 0
        doc = json.loads(capsys.readouterr().out)
        f = kak.kak_decompose(u, pauli.builtin_split(n, kind))
        for row, name in ((f.l, "L"), (f.z, "Z"), (f.m, "M")):
            assert row.dtype == float and row.shape == (4**n - 1,)
            assert not row.flags.writeable
            nonzero = {s: float(c) for s, c in zip(pauli.pauli_strings(n), row) if c != 0.0}
            assert nonzero == doc[name]

    def test_global_phase_projection(self):
        split = pauli.builtin_split(2, "two_local")
        u = la.haar_random_special_unitary(4, 9)
        f_phased = kak.kak_decompose(np.exp(0.3j) * u, split)
        assert abs(f_phased.removed_phase - 0.3) < 1e-9
        assert la.frobenius_distance(kak.reconstruct(f_phased), u) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            kak.kak_decompose(np.eye(4, dtype=complex), pauli.builtin_split(1, "single_x"))

    def test_unadapted_frame_checked_once(self, monkeypatch):
        calls = []
        check = pauli.CartanSplit.adapted.func
        counted = functools.cached_property(lambda split: calls.append(split) or check(split))
        counted.__set_name__(pauli.CartanSplit, "adapted")
        monkeypatch.setattr(pauli.CartanSplit, "adapted", counted)
        base = pauli.builtin_split(2, "two_local")
        fields = (2, base.l_basis, base.p_basis, base.z_basis)
        u = la.haar_random_special_unitary(4, 3)
        plain = pauli.CartanSplit(*fields, np.eye(4, dtype=complex))
        for _ in range(2):
            with pytest.raises(PreconditionError, match="frame Q is not adapted"):
                kak.kak_decompose(u, plain)
        magic = pauli.CartanSplit(*fields, pauli.MAGIC_BASIS)
        for _ in range(2):
            kak.kak_decompose(u, magic)
        assert calls == [plain, magic]

    @pytest.mark.parametrize("z", [("XX",), (), ("XX", "YY", "ZZ", "IX")])
    def test_bad_z_refused_before_the_frame(self, monkeypatch, z):
        base = pauli.builtin_split(2, "two_local")
        split = pauli.CartanSplit(2, base.l_basis, base.p_basis, z, base.q)
        monkeypatch.setattr(pauli.CartanSplit, "adapted", None)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="split's z is not a maximal commuting"):
                kak.kak_decompose(la.haar_random_special_unitary(4, 3), split)

    def test_not_unitary(self):
        with pytest.raises(PreconditionError):
            kak.kak_decompose(np.diag([1.0, 2.0, 1.0, 1.0]), pauli.builtin_split(2, "two_local"))

    def test_misshapen_frame_refused(self):
        # a given frame that is not 2**n x 2**n is not adapted: no matmul ValueError
        base = pauli.builtin_split(2, "two_local")
        split = pauli.CartanSplit(2, base.l_basis, base.p_basis, base.z_basis, np.eye(2))
        with pytest.raises(PreconditionError, match="frame Q is not adapted .*im inf"):
            kak.kak_decompose(la.haar_random_special_unitary(4, 3), split)
        assert not split.adapted.ok


def _greedy_z(n, p):
    """The first maximal commuting subset of the p strings, taken in order."""
    codes = pauli._codes(n, p)
    anti = pauli._anticommute(codes, codes, n)
    z = []
    for i in range(len(p)):
        if not anti[i, z].any():
            z.append(i)
    return tuple(p[i] for i in z)


class TestDerivedFrame:
    """A split given without a frame gets one derived from theta."""

    def test_every_ai_involution(self):
        # T with an even number of Y, at n = 1..4: 185 involutions, one Haar target each
        count = 0
        for n in range(1, 5):
            for t in ("".join(s) for s in itertools.product("IXYZ", repeat=n)):
                if t.count("Y") % 2:
                    continue
                l, p, _ = pauli._involution_bases(n, t)
                split = pauli.CartanSplit(n, l, p, _greedy_z(n, p))
                assert split.type == "AI" and split.adapted.ok, t
                u = la.haar_random_special_unitary(2**n, count)
                report = optimal_cost(u, split)
                # the spectral form: U theta(U)^-1 = U T U^T T^+ has the eigenphases 2 * phases
                tm = pauli.pauli_matrix(t)
                x = kak.canonicalize_phases(
                    np.angle(np.linalg.eigvals(u @ tm @ u.T @ tm.conj().T)) / 2)
                spectral = np.linalg.norm(x - np.pi * closest_lattice_point(x))
                assert abs(report.cost - spectral) <= 1e-12, t
                assert la.frobenius_distance(kak.reconstruct(report.factors), u) <= 1e-9, t
                count += 1
        assert count == 185

    def test_identity_when_already_adapted(self):
        # T = I...I with the diagonal z: the derived frame is the identity, bit for bit
        for n in range(1, 5):
            base = pauli.builtin_split(n, "ai")
            frame = pauli.CartanSplit(n, base.l_basis, base.p_basis, base.z_basis).frame
            assert np.array_equal(frame, np.eye(2**n)) and not frame.flags.writeable

    def test_given_frame_kept(self):
        base = pauli.builtin_split(2, "two_local")
        assert base.frame is base.q
        derived = pauli.CartanSplit(2, base.l_basis, base.p_basis, base.z_basis)
        assert derived.refusal is None
        assert not np.allclose(derived.frame, base.q)  # another adapted frame


class TestEigenphases:
    @pytest.mark.parametrize("sign,want", [(1, (0.3, 0.2, 0.1, -0.6)), (-1, (0.6, -0.1, -0.2, -0.3))])
    def test_odd_sum_moves_an_end_entry(self, sign, want):
        # the halved phases sign * (0.4, 0.3, 0.2, 0.1) pi sum to sign * pi:
        # the largest moves down by pi, or the smallest up.  At sign 1 the
        # cost is that of the parity-shifted (0.4, 0.3, 0.2, -0.9) pi at
        # lattice point [1, 0, 0, -1]
        split = pauli.builtin_split(2, "two_local")
        phases = sign * np.pi * np.array([0.4, 0.3, 0.2, 1.1])
        u = split.q @ np.diag(np.exp(1j * phases)) @ split.q.conj().T
        report = optimal_cost(u, split)
        np.testing.assert_allclose(report.eigenphases, np.pi * np.array(want), rtol=0, atol=1e-12)
        assert np.array_equal(report.lattice_point, [0, 0, 0, 0])
        assert report.cost == pytest.approx(np.pi / np.sqrt(2), abs=1e-12)
        assert la.frobenius_distance(kak.reconstruct(report.factors), u) <= 1e-8

    def test_identity_all_zero(self):
        split = pauli.builtin_split(2, "two_local")
        f = kak.kak_decompose(np.eye(4, dtype=complex), split)
        assert np.allclose(f.phases, 0.0)

    def test_single_qubit_readoff(self):
        split = pauli.builtin_split(1, "single_x")
        u = la.expm(-1j * 0.3 * pauli.pauli_matrix("Z"))
        f = kak.kak_decompose(u, split)
        assert np.allclose(f.phases, [0.3, -0.3], atol=1e-12)

    def test_isometry(self):
        # trace norm of the central factor equals the euclidean phase norm
        split = pauli.builtin_split(2, "two_local")
        rng = np.random.default_rng(1)
        for seed in range(50):
            u = la.haar_random_special_unitary(4, 2000 + seed)
            f = kak.kak_decompose(u, split)
            ph = f.phases
            z = pauli.Hamiltonian(2, f.z)
            assert abs(pauli.trace_inner_product(z, z) - (ph**2).sum()) < 1e-10
            assert abs(ph.sum()) < 1e-12
            assert np.all(np.diff(ph) <= 1e-15)


# -- reference implementations -------------------------------------------------

def _ref_legs(split, log_a, phases, log_bt):
    """One Hamiltonian expansion, leak check and masked row per leg."""
    q = split.q
    legs = []
    for name, dense, basis in (
        ("l", q @ (-1j * log_a) @ q.conj().T, split.l_basis),
        ("z", q @ np.diag(phases).astype(complex) @ q.conj().T, split.z_basis),
        ("m", q @ (-1j * log_bt) @ q.conj().T, split.l_basis),
    ):
        h = pauli.Hamiltonian.from_matrix(dense)
        leak = pauli.support_residual(h, basis)
        if leak > 1e-9 * max(1.0, h.norm()):
            raise NumericalFailure(f"factor {name} leaks outside its subspace", residual=leak)
        legs.append(np.where(pauli._mask(split.n, basis), h.vec, 0.0))
    return tuple(legs)


def _ref_reconstruct(f):
    """One Hamiltonian and one exponential per leg."""
    l, z, m = (la.expm(1j * pauli.Hamiltonian(f.split.n, row).to_matrix())
               for row in (f.l, f.z, f.m))
    return l @ z @ m


BUILTIN_SPLITS = [(1, "single_x"), (2, "two_local")] + [(n, "ai") for n in range(1, 5)]


class TestReferenceEquivalence:
    """The stacked legs and reconstruction equal the per-leg loop bit for bit."""

    @pytest.mark.parametrize("n,kind", BUILTIN_SPLITS)
    def test_legs_and_reconstruct(self, n, kind):
        split = pauli.builtin_split(n, kind)
        for seed in range(5):
            u = la.haar_random_special_unitary(2**n, 300 + seed)
            f = kak.kak_decompose(u, split)
            args = (la.log_special_orthogonal(f.a), f.phases,
                    la.log_special_orthogonal(f.b.T))
            for got, want in zip(kak._legs(split, *args), _ref_legs(split, *args)):
                assert np.array_equal(got, want)
            assert np.array_equal(kak.reconstruct(f), _ref_reconstruct(f))

    @pytest.mark.parametrize("leg", ["l", "z", "m"])
    def test_leak_names_the_same_factor(self, leg):
        # a symmetric exponent puts l or m into p; z is shrunk to IZ, ZI so
        # that the ZZ part of the diagonal leaks
        base = pauli.builtin_split(2, "ai")
        split = pauli.CartanSplit(2, base.l_basis, base.p_basis, ("IZ", "ZI"), base.q, "ai")
        rng = np.random.default_rng(5)
        sym = rng.standard_normal((4, 4))
        sym = (sym + sym.T) / 2
        sym -= np.trace(sym) / 4 * np.eye(4)
        anti = rng.standard_normal((4, 4))
        anti = (anti - anti.T) / 2
        args = {"l": (1j * sym, np.zeros(4), anti),
                "z": (anti, np.array([0.3, -0.1, -0.1, -0.1]), anti),
                "m": (anti, np.zeros(4), 1j * sym)}[leg]
        with pytest.raises(NumericalFailure) as ref:
            _ref_legs(split, *args)
        with pytest.raises(NumericalFailure) as got:
            kak._legs(split, *args)
        assert f"factor {leg} leaks" in str(got.value)
        assert str(got.value) == str(ref.value) and got.value.residual == ref.value.residual
