"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

The optimizer-based SU(4) sweep lives in tests/test_control.py.
"""

import time

import numpy as np
import pytest

from cartancost import control as ct
from cartancost import cost, kak, lattice, metric as mt, pauli
from cartancost import linalg as la


def _criterion(number, name, budget_s, body):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    except AssertionError:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS  [{elapsed:.1f}s]")


def test_criterion_1_kak_round_trip():
    """1000 SU(4) + 100 SU(8) decompositions, residual <= 1e-8, with at
    least 100 degenerate-spectrum instances, in under 60 s."""

    def body():
        two_local = pauli.builtin_split(2, "two_local")
        ai3 = pauli.builtin_split(3, "ai")
        rng = np.random.default_rng(1)
        xx = pauli.pauli_matrix("XX")
        degenerate = 0
        for i in range(1000):
            if i % 10 == 0:
                # degenerate-spectrum family: dressed partial-swap and
                # controlled-phase cores (repeated central eigenphases)
                if i % 20 == 0:
                    theta = [np.pi / 4, np.pi / 2, 3 * np.pi / 4, 0.3][(i // 20) % 4]
                    core = la.expm(1j * theta * xx)
                else:
                    phi = 0.25 + 0.11 * (i % 17)
                    core, _ = la.project_special(
                        np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
                    )
                k1 = pauli.random_hamiltonian(2, two_local.l_basis, rng, norm=1.0)
                k2 = pauli.random_hamiltonian(2, two_local.l_basis, rng, norm=1.0)
                u = la.expm(1j * k1.to_matrix()) @ core @ la.expm(1j * k2.to_matrix())
                degenerate += 1
            else:
                u = la.haar_random_special_unitary(4, 10_000 + i)
            f = kak.kak_decompose(u, two_local)
            res = la.frobenius_distance(kak.reconstruct(f), u)
            assert res <= 1e-8, (i, res)
        assert degenerate >= 100
        for i in range(100):
            u = la.haar_random_special_unitary(8, 20_000 + i)
            f = kak.kak_decompose(u, ai3)
            res = la.frobenius_distance(kak.reconstruct(f), u)
            assert res <= 1e-8, (i, res)

    _criterion(1, "KAK round trip", 60, body)


def test_criterion_2_lattice_oracle_equivalence():
    """Fast nearest-point distances equal brute-force enumeration to 1e-12
    on 1000 random sum-zero targets per dimension in {2, 4, 8}, under 10 s."""

    def body():
        rng = np.random.default_rng(2)
        for n in (2, 4, 8):
            for _ in range(1000):
                # entries stay below 1.4*pi, so the radius-2 box certainly
                # contains a true minimizer
                x = rng.uniform(-0.7 * np.pi, 0.7 * np.pi, n)
                x -= x.mean()
                fast = lattice.closest_lattice_point(x)
                brute = lattice.closest_lattice_point_bruteforce(x, radius=2)
                d_fast = np.linalg.norm(x - np.pi * fast)
                d_brute = np.linalg.norm(x - np.pi * brute)
                assert abs(d_fast - d_brute) <= 1e-12, (n, x)

    _criterion(2, "lattice oracle equivalence", 10, body)


def test_criterion_3_single_qubit_specialization():
    """Closed form |z|/sqrt(2) exact on [-pi, pi] (step pi/100), periodic
    form on [-4pi, 4pi], and the pipeline answer sqrt(2)*min|z - m pi|
    within 1e-9 with the parameter-doubling map between the two, under 5 s."""

    def body():
        for z in np.arange(-np.pi, np.pi + 1e-12, np.pi / 100):
            assert cost.single_qubit_cost(z) == abs(z) / np.sqrt(2)
        for z in np.arange(-4 * np.pi, 4 * np.pi + 1e-12, np.pi / 10):
            want = min(abs(z - 2 * m * np.pi) for m in range(-5, 6)) / np.sqrt(2)
            assert abs(cost.single_qubit_cost(z) - want) <= 1e-12
        split = pauli.builtin_split(1, "single_x")
        zmat = pauli.pauli_matrix("Z")
        for z in np.arange(-np.pi, np.pi + 1e-12, np.pi / 100):
            got = cost.optimal_cost(la.expm(-1j * z * zmat), split).cost
            want = np.sqrt(2) * min(abs(z - m * np.pi) for m in range(-3, 4))
            assert abs(got - want) <= 1e-9
            # documented mapping: the halved convention reads twice the angle
            assert abs(got - cost.single_qubit_cost(2 * z)) <= 1e-9

    _criterion(3, "single-qubit closed form", 5, body)


def test_criterion_4_canonical_two_qubit_values():
    """CNOT class costs pi/2 and SWAP class costs sqrt(3)/2*pi (both derived
    from the brute-force lattice oracle), stable under 100 local dressings."""

    def body():
        split = pauli.builtin_split(2, "two_local")
        cases = [
            (la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX")), np.pi / 2),
            (
                la.expm(1j * (np.pi / 4) * sum(pauli.pauli_matrix(s) for s in ("XX", "YY", "ZZ"))),
                np.sqrt(3) * np.pi / 2,
            ),
        ]
        for u, value in cases:
            report = cost.optimal_cost(u, split)
            brute = lattice.closest_lattice_point_bruteforce(report.eigenphases, radius=3)
            derived = np.linalg.norm(report.eigenphases - np.pi * brute)
            assert abs(report.cost - derived) <= 1e-12
            assert abs(report.cost - value) <= 1e-9
            inv = cost.cheap_invariance_check(u, split, samples=100, seed=4)
            assert inv.max_deviation <= 1e-8

    _criterion(4, "canonical two-qubit values", 120, body)


def test_criterion_5_gram_block_structure():
    """Measured coordinate Grams: off-diagonal blocks below 1e-4, central
    block = identity within 1e-5, first block = eps * BCH^T BCH within 1e-4
    relative, |L| <= 1, at 20 + 10 random base points, under 120 s.

    The (1,3) cross-block is exactly of order eps, so the run uses
    eps = 1e-5, inside the small-penalty regime the limit statement is
    about."""

    def body():
        eps = 1e-5
        rng = np.random.default_rng(5)
        for kind, n, n_points in (("single_x", 1, 20), ("two_local", 2, 10)):
            split = pauli.builtin_split(n, kind)
            metric = mt.PenaltyMetric(split, eps)
            for _ in range(n_points):
                base = (
                    pauli.random_hamiltonian(n, split.l_basis, rng, norm=rng.uniform(0.2, 1.0)),
                    pauli.random_hamiltonian(n, split.z_basis, rng, norm=rng.uniform(0.2, 1.0)),
                    pauli.random_hamiltonian(n, split.l_basis, rng, norm=rng.uniform(0.2, 1.0)),
                )
                gram = mt.pullback_gram(base, metric, fd_step=1e-4)
                report = mt.verify_gram_structure(gram, metric)
                assert report.offdiag_max <= 1e-4, report
                assert report.center_max_dev <= 1e-5, report
                assert report.first_block_rel_dev <= 1e-4, report
                assert report.last_block_psd

    _criterion(5, "coordinate-metric block structure", 120, body)


def test_criterion_6_penalty_sweep_convergence():
    """Five single-qubit targets: numeric optima within 5% of analytic at
    eps = 1e-3, relative errors non-increasing across {1e-1, 1e-2, 1e-3}
    (1e-4 additive slack for the optimizer's noise floor), under 10 min."""

    def body():
        split = pauli.builtin_split(1, "single_x")
        xm, zm = pauli.pauli_matrix("X"), pauli.pauli_matrix("Z")
        params = [
            (0.25, 0.8, 0.3),
            (0.2, 1.1, -0.25),
            (-0.3, 0.7, 0.2),
            (0.15, 1.3, 0.35),
            (0.3, 0.9, -0.3),
        ]
        for i, (a, b, c) in enumerate(params):
            u = la.expm(-1j * a * xm) @ la.expm(-1j * b * zm) @ la.expm(-1j * c * xm)
            sweep = ct.epsilon_sweep(
                u, split, [1e-1, 1e-2, 1e-3], segments=3, restarts=1, seed=100 + i
            )
            assert sweep.ok, (i, sweep)
            rel = np.abs(sweep.numeric_costs - sweep.analytic_cost) / sweep.analytic_cost
            assert rel[-1] <= 0.05, (i, rel)
            assert np.all(np.diff(rel) <= 1e-4), (i, rel)

    _criterion(6, "small-penalty convergence", 600, body)


def test_criterion_7_bch_defect_order():
    """Group-level defect of the exact BCH operator halves quadratically:
    slope 2.0 +- 0.1 under step halving on 50 random 1-qubit pairs, under 5 s."""

    def body():
        rng = np.random.default_rng(7)
        strings = pauli.pauli_strings(1)
        for _ in range(50):
            l = pauli.random_hamiltonian(1, strings, rng, norm=rng.uniform(0.3, 1.5))
            p = pauli.random_hamiltonian(1, strings, rng, norm=rng.uniform(0.3, 1.5))
            b = mt.bch_operator(l, p)

            def defect(delta):
                lhs = la.expm(1j * (l.to_matrix() + delta * p.to_matrix()))
                rhs = la.expm(1j * delta * b.to_matrix()) @ la.expm(1j * l.to_matrix())
                return np.linalg.norm(lhs - rhs)

            slope = np.log2(defect(1e-2) / defect(5e-3))
            assert abs(slope - 2.0) <= 0.1, slope

    _criterion(7, "BCH finite-difference order", 5, body)
