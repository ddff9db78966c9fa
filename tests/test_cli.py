import json
import subprocess
import sys

import numpy as np
import pytest

from cartancost import pauli
from cartancost import linalg as la
from cartancost.cli import main
from cartancost.serialize import dumps_canonical, matrix_to_json


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(dumps_canonical(matrix_to_json(m)))
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", np.eye(4))
        code, out, _ = run_main(capsys, "decompose", path, "--split", "two_local")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == {} and doc["Z"] == {} and doc["M"] == {}
        assert doc["reconstruction_residual"] < 1e-12

    def test_cnot_with_global_phase(self, tmp_path, capsys):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        path = write_matrix(tmp_path, "cnot.json", cnot)
        code, out, _ = run_main(capsys, "decompose", path, "--split", "two_local")
        assert code == 0
        doc = json.loads(out)
        assert doc["reconstruction_residual"] < 1e-8
        assert abs(doc["removed_phase"]) > 0.1  # det(CNOT) = -1 needs a phase fix

    def test_non_unitary_input(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "bad.json", np.diag([1.0, 2.0]))
        code, _, err = run_main(capsys, "decompose", path, "--split", "single_x")
        assert code == 3
        assert "unitary" in err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        code, _, _ = run_main(capsys, "decompose", str(path), "--split", "single_x")
        assert code == 2

    @pytest.mark.parametrize("command", ["decompose", "cost"])
    @pytest.mark.parametrize("dim", [2.5, "2", True, 2.0])
    def test_dim_must_be_integer(self, tmp_path, capsys, command, dim):
        path = tmp_path / "id.json"
        doc = {"dim": dim, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}
        path.write_text(json.dumps(doc))
        code, _, err = run_main(capsys, command, str(path), "--split", "single_x")
        assert code == 2
        assert "integer" in err

    def test_dim_mismatch(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id2.json", np.eye(2))
        code, _, _ = run_main(capsys, "decompose", path, "--split", "two_local")
        assert code == 3


class TestCost:
    def test_identity_zero(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", np.eye(4))
        code, out, _ = run_main(capsys, "cost", path, "--split", "two_local")
        assert code == 0
        assert json.loads(out)["cost"] < 1e-12

    def test_cnot_class_value(self, tmp_path, capsys):
        u = la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX"))
        path = write_matrix(tmp_path, "xx.json", u)
        code, out, _ = run_main(capsys, "cost", path, "--split", "two_local")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["cost"] - np.pi / 2) < 1e-9
        assert doc["convention"] == "trace-norm-pauli"

    def test_single_qubit_conventions(self, tmp_path, capsys):
        u = la.expm(-1j * 0.3 * pauli.pauli_matrix("Z"))
        path = write_matrix(tmp_path, "z.json", u)
        code, out, _ = run_main(capsys, "cost", path, "--split", "single_x")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["cost"] - np.sqrt(2) * 0.3) < 1e-9
        assert abs(abs(doc["single_qubit_parameter"]) - 0.3) < 1e-9

        code, out, _ = run_main(
            capsys, "cost", path, "--split", "single_x", "--convention", "paper-halved"
        )
        doc2 = json.loads(out)
        assert abs(doc2["cost"] - doc["cost"]) < 1e-12
        assert abs(abs(doc2["single_qubit_parameter"]) - 0.6) < 1e-9

    def test_halved_convention_needs_single_qubit(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", np.eye(4))
        code, _, _ = run_main(
            capsys, "cost", path, "--split", "two_local", "--convention", "paper-halved"
        )
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        u = la.haar_random_special_unitary(4, 5)
        path = write_matrix(tmp_path, "u.json", u)
        _, out1, _ = run_main(capsys, "cost", path, "--split", "two_local")
        _, out2, _ = run_main(capsys, "cost", path, "--split", "two_local")
        assert out1 == out2


class TestVerifySplit:
    def test_builtin_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify-split", "--split", "ai", "--n", "3")
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_split_file(self, tmp_path, capsys):
        doc = {"l": ["X", "Y"], "p": ["Z"], "z": ["Z"]}
        path = tmp_path / "bad_split.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(capsys, "verify-split", "--split-file", str(path))
        assert code == 1
        assert "violation" in out and "[X, Y] -> Z" in out

    def test_custom_split_file_passes(self, tmp_path, capsys):
        from cartancost.serialize import split_to_json

        doc = split_to_json(pauli.builtin_split(2, "two_local"))
        path = tmp_path / "split.json"
        path.write_text(dumps_canonical(doc))
        code, _, _ = run_main(capsys, "verify-split", "--split-file", str(path))
        assert code == 0

    def test_zero_samples_rejected(self, capsys):
        code, out, err = run_main(capsys, "verify-split", "--split", "single_x", "--samples", "0")
        assert code == 3
        assert out == "" and "--samples" in err

    def test_identity_string_is_a_parse_error(self, tmp_path, capsys):
        from cartancost.serialize import split_to_json

        doc = split_to_json(pauli.builtin_split(2, "two_local"))
        doc["l"] = ["II", *doc["l"]]
        path = tmp_path / "split.json"
        path.write_text(dumps_canonical(doc))
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        for args in (("verify-split",), ("cost", str(u))):
            code, out, err = run_main(capsys, *args, "--split-file", str(path))
            assert code == 2
            assert out == "" and "bad Pauli string 'II'" in err


class TestVerifyMetric:
    def test_default_arguments_pass(self, capsys):
        # base 0 has Z = 0, where the two_local last block is eps * B_M^T B_M
        code, out, _ = run_main(capsys, "verify-metric")
        assert code == 0
        assert "base 0: PASS" in out

    def test_zero_samples_rejected(self, capsys):
        code, out, err = run_main(capsys, "verify-metric", "--split", "single_x", "--samples", "0")
        assert code == 3
        assert out == "" and "--samples" in err

    def test_structure_passes_small_eps(self, capsys):
        code, out, _ = run_main(
            capsys, "verify-metric", "--split", "single_x",
            "--epsilon", "1e-5", "--samples", "3", "--seed", "0",
        )
        assert code == 0
        assert out.count("PASS") >= 4

    def test_fd_step_flag(self, capsys):
        code, _, _ = run_main(
            capsys, "verify-metric", "--split", "single_x",
            "--epsilon", "1e-5", "--samples", "2", "--fd-step", "5e-4",
        )
        assert code == 0


class TestSweep:
    def test_single_qubit(self, tmp_path, capsys):
        u = la.expm(-1j * 0.4 * pauli.pauli_matrix("Z"))
        path = write_matrix(tmp_path, "z.json", u)
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_main(
            capsys, "sweep", path, "--split", "single_x",
            "--epsilons", "1e-1,1e-2", "--restarts", "0", "--seed", "0",
            "--csv", str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2
        assert all(row["converged"] and row["within_bounds"] for row in doc["rows"])
        assert csv_path.read_text().startswith("epsilon,numeric_cost")

    def test_malformed_epsilons_parse_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "z.json", la.expm(-1j * 0.4 * pauli.pauli_matrix("Z")))
        code, out, err = run_main(
            capsys, "sweep", path, "--split", "single_x", "--epsilons", "1e-1,abc"
        )
        assert code == 2
        assert out == "" and "--epsilons" in err

    def test_negative_restarts_rejected(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "z.json", la.expm(-1j * 0.4 * pauli.pauli_matrix("Z")))
        code, out, err = run_main(
            capsys, "sweep", path, "--split", "single_x", "--restarts", "-1"
        )
        assert code == 3
        assert out == "" and "restarts" in err

    def test_su4_requires_slow(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "u4.json", la.haar_random_special_unitary(4, 1))
        code, _, err = run_main(capsys, "sweep", path, "--split", "two_local")
        assert code == 3
        assert "--slow" in err


class TestRandom:
    def test_contract_and_determinism(self, capsys):
        code, out1, _ = run_main(capsys, "random", "--n", "2", "--seed", "7")
        assert code == 0
        code, out2, _ = run_main(capsys, "random", "--n", "2", "--seed", "7")
        assert out1 == out2
        from cartancost.serialize import matrix_from_json

        u = matrix_from_json(json.loads(out1))
        assert la.is_unitary(u, 1e-10) and abs(np.linalg.det(u) - 1) <= 1e-10

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CARTAN_SEED", "123")
        _, out1, _ = run_main(capsys, "random", "--n", "1")
        _, out2, _ = run_main(capsys, "random", "--n", "1", "--seed", "123")
        assert out1 == out2


def test_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cartancost", "random", "--n", "1", "--seed", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 2


class TestInProcessReuse:
    """Repeated cli.main calls in one process print what fresh processes print."""

    @staticmethod
    def fresh(calls, cwd):
        """(exit code, stdout, stderr) of each argv, each in a new interpreter."""
        import os

        import cartancost

        src = os.path.dirname(os.path.dirname(cartancost.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs = [subprocess.Popen([sys.executable, "-m", "cartancost", *argv], cwd=cwd,
                                  env=env, text=True, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) for argv in calls]
        outs = [p.communicate() for p in procs]
        return [(p.returncode, *out) for p, out in zip(procs, outs)]

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_matches_fresh_processes(self, tmp_path, capsys):
        from cartancost.serialize import split_to_json

        u3 = write_matrix(tmp_path, "u3.json", la.haar_random_special_unitary(8, 4))
        u1 = write_matrix(tmp_path, "u1.json", la.haar_random_special_unitary(2, 5))
        u2 = write_matrix(tmp_path, "u2.json", la.haar_random_special_unitary(4, 6))
        split = tmp_path / "split.json"
        split.write_text(dumps_canonical(split_to_json(pauli.builtin_split(2, "two_local"))))
        calls = [
            ["decompose", u3, "--split", "ai"],
            ["cost", u1, "--split", "single_x", "--convention", "paper-halved"],
            ["sweep", u1, "--max-iter", "x"],
            ["decompose", u2, "--split-file", str(split)],
            ["decompose", u2, "--split", "two_local"],
            ["cost", u1, "--split", "single_x"],
            ["--version"],
        ]
        seen = [self.in_process(capsys, argv) for argv in calls]
        for argv, (code, out, err), want in zip(calls, seen, self.fresh(calls, tmp_path)):
            assert (code, out) == want[:2], argv
            if code == 2:
                assert err == want[2] and "--max-iter" in err
        codes = [code for code, _, _ in seen]
        assert codes == [0, 0, 2, 0, 0, 0, 0]
        # options of one call do not reach the next
        assert json.loads(seen[3][1])["split"] == "custom"
        assert json.loads(seen[4][1])["split"] == "two_local"
        assert json.loads(seen[1][1])["single_qubit_convention"] == "paper-halved"
        assert json.loads(seen[5][1])["single_qubit_convention"] == "standard-pauli"

    def test_parser_built_once_with_fresh_namespaces(self):
        from cartancost.cli import build_parser

        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["decompose", "a.json", "--split-file", "s.json", "--n", "3"])
        second = parser.parse_args(["decompose", "b.json"])
        assert first is not second
        assert (second.input, second.split, second.split_file, second.n) == (
            "b.json", "two_local", None, None)
