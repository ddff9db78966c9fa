"""Tests of the benchmark's outside oracles.

    python3 -m pytest bench/test_oracles.py -q

The oracles must agree with the closed forms on the named gates without the
program, pass the program's correct outputs, and reject outputs that were
tampered with.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cartancost as cc  # noqa: E402
import cartancost.serialize  # noqa: E402,F401
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cartancost.errors import NumericalFailure  # noqa: E402


def test_frames_are_adapted():
    rng = np.random.default_rng(0)
    for kind, n in workloads.HAAR_FAMILIES:
        spec = oracles.split_spec(kind, n)
        k = oracles.hermitian(workloads.random_coeffs(spec.l, rng, 1.3, n), n)
        z = oracles.hermitian(workloads.random_coeffs(spec.z, rng, 0.7, n), n)
        img = spec.q.conj().T @ scipy.linalg.expm(1j * k) @ spec.q
        img_z = spec.q.conj().T @ z @ spec.q
        assert np.abs(img.imag).max() < 1e-12
        assert np.abs(img_z - np.diag(np.diagonal(img_z))).max() < 1e-12


@pytest.mark.parametrize("name", sorted(oracles.NAMED_GATES))
def test_named_gates_match_closed_forms(name):
    spec = oracles.split_spec("two_local", 2)
    rng = np.random.default_rng(1)
    gate = oracles.NAMED_GATES[name]
    for u in (gate, workloads.dress(gate, spec, rng), workloads.dress(gate, spec, rng)):
        assert oracles.oracle_cost(u, spec) == pytest.approx(oracles.CLOSED_FORM[name], abs=1e-10)
        report = cc.optimal_cost(u, cc.builtin_split(2, "two_local"))
        assert oracles.check_cost_report(u, spec, report, oracles.CLOSED_FORM[name]) == []


@pytest.mark.parametrize("w", workloads.BRANCH_EDGES + (0.3, 2.0, -2.9))
def test_z_rotations_match_closed_form(w):
    spec = oracles.split_spec("single_x", 1)
    u = workloads.z_rotation(w)
    assert oracles.oracle_cost(u, spec) == pytest.approx(oracles.z_rotation_cost(w), abs=1e-12)
    report = cc.optimal_cost(u, cc.builtin_split(1, "single_x"))
    assert oracles.check_cost_report(u, spec, report, oracles.z_rotation_cost(w)) == []


def test_cost_check_rejects_a_wrong_lattice_point():
    spec = oracles.split_spec("ai", 3)
    u = workloads.haar(8, np.random.default_rng(2))
    report = cc.optimal_cost(u, cc.builtin_split(3, "ai"))
    point = report.lattice_point.copy()
    point[0] += 1
    point[-1] -= 1
    shifted = report.eigenphases - np.pi * point
    wrong = cc.CostReport(float(np.linalg.norm(shifted)), report.eigenphases, point, shifted,
                          report.factors)
    assert oracles.check_cost_report(u, spec, wrong)


def test_factor_check_rejects_tampering():
    spec = oracles.split_spec("two_local", 2)
    u = workloads.dress(oracles.NAMED_GATES["cnot"], spec, np.random.default_rng(3))
    f = cc.kak_decompose(u, cc.builtin_split(2, "two_local"))
    doc = json.loads(cc.serialize.dumps_canonical(cc.serialize.factors_to_json(f)))
    assert oracles.check_factors(u, spec, doc) == []
    moved = copy.deepcopy(doc)
    moved["Z"][next(iter(moved["Z"]))] += 1e-6
    assert oracles.check_factors(u, spec, moved)
    leaked = copy.deepcopy(doc)
    leaked["L"]["XX"] = 0.0
    assert oracles.check_factors(u, spec, leaked)


def test_exact_gram_matches_finite_differences():
    spec = oracles.split_spec("two_local", 2)
    rng = np.random.default_rng(4)
    coeffs = [workloads.random_coeffs(b, rng, 0.6, 2) for b in (spec.l, spec.z, spec.l)]
    base = tuple(cc.Hamiltonian(2, c) for c in coeffs)
    metric = cc.PenaltyMetric(cc.builtin_split(2, "two_local"), 1e-5)
    gram = cc.pullback_gram(base, metric)
    report = cc.verify_gram_structure(gram, metric)
    assert oracles.check_gram(coeffs, spec, 1e-5, gram, report) == []
    gram.gram[0, 0] += 1e-6
    assert oracles.check_gram(coeffs, spec, 1e-5, gram, report)


def test_voronoi_reduce_finds_the_nearest_point():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-6, 6, 4)
        x -= x.mean()
        y = oracles.voronoi_reduce(x)
        m = np.round((x - y) / np.pi).astype(int)
        assert m.sum() == 0
        assert np.allclose(x - y, np.pi * m)
        best = cc.closest_lattice_point_bruteforce(x, radius=4)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x - np.pi * best), abs=1e-12)


def test_only_a_known_fault_counts_as_a_plain_failure():
    def raising(err):
        def call():
            raise err
        return call

    ops = [
        workloads.Op("ok", lambda: 1, lambda out: []),
        workloads.Op("known", raising(workloads.CliFailure(4, "numerical")), None, 4),
        workloads.Op("wrong exit", raising(workloads.CliFailure(1, "verify")), None, 4),
        workloads.Op("unmarked", raising(NumericalFailure("no frame")), None),
    ]

    class OneRound:
        def round_ops(self, round_index):
            return ops

    phase = run.measure(OneRound(), rounds=1, pace=run.Pace())
    assert (phase.attempted, phase.failed) == (4, 3)
    assert [p.split(":")[0] for p in phase.problems] == ["wrong exit", "unmarked"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_runs_report_what_benchmark_json_lists(trace, key):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    # a short run is one round of 27 operations, two of them the near-SWAP fault
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "decompose_cli", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    phases = 1 + trace
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (27 * phases, 2 * phases)
    reported = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert reported == [(m["name"], m["unit"]) for m in bench[key]]
