import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cartancost
from cartancost import pauli
from cartancost import linalg as la
from cartancost.cli import main
from cartancost.serialize import dumps_canonical, matrix_to_json, split_to_json


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

    @pytest.mark.parametrize("command", ["decompose", "cost"])
    @pytest.mark.parametrize("part,entries,message", [
        ("re", [["1", 0], [0, 1]], "JSON numbers"),
        ("re", [[True, 0], [0, True]], "JSON numbers"),
        ("re", [[None, 0], [0, 1]], "JSON numbers"),
        ("re", [["nan", 0], [0, 1]], "JSON numbers"),
        ("im", [[0, 0], [0, None]], "JSON numbers"),
        ("re", [[10**400, 0], [0, 1]], "too large"),
    ], ids=["string", "boolean", "null", "string-nan", "null-im", "huge-integer"])
    def test_entries_must_be_numbers(self, tmp_path, capsys, command, part, entries, message):
        # NumPy converts the first five; without the check "1" and true priced the identity
        path = tmp_path / "id.json"
        doc = {"dim": 2, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}
        doc[part] = entries
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, command, str(path), "--split", "ai")
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("command", ["decompose", "cost"])
    @pytest.mark.parametrize("literal", ["1e999", "NaN", "Infinity", "-Infinity"])
    def test_entries_must_be_finite(self, tmp_path, capsys, command, literal):
        # Python's json reads all four, as inf or nan; NumPy used to warn on stderr, then exit 3
        path = tmp_path / "id.json"
        path.write_text(f'{{"dim": 2, "re": [[{literal}, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}')
        code, out, err = run_main(capsys, command, str(path), "--split", "ai")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("command", ["decompose", "cost", "sweep"])
    @pytest.mark.parametrize("doc,split,code", [
        ({"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}, [], 2),
        ({"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0, 0], [0, 0]]}, [], 2),
        ({"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}, [], 3),
        ({"dim": 32, "re": np.eye(32).tolist(), "im": np.zeros((32, 32)).tolist()},
         ["--split", "ai"], 3),
        ({"dim": 2**40, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}, [], 2),
    ], ids=["ragged_re", "ragged_im", "dim_3", "dim_32", "dim_2_40"])
    def test_malformed_shapes(self, tmp_path, capsys, command, doc, split, code):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_main(capsys, command, str(path), *split)
        assert got == code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["decompose", "cost", "sweep"])
    @pytest.mark.parametrize("entry", [1e308, 1e200])
    def test_overflowing_entry_is_not_unitary(self, tmp_path, capsys, command, entry):
        u = la.haar_random_special_unitary(4, 3)
        u[0, 0] = entry
        path = write_matrix(tmp_path, "big.json", u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, command, path)
        assert code == 3 and out == ""
        assert err == "error: input is not unitary within tolerance\n"

    @pytest.mark.parametrize("command", ["decompose", "cost", "sweep"])
    def test_no_qubit_count_option(self, tmp_path, capsys, command):
        # the matrix fixes n; an --n that would be ignored is a parse error
        path = write_matrix(tmp_path, "id.json", np.eye(4))
        with pytest.raises(SystemExit) as stop:
            main([command, path, "--split", "ai", "--n", "4"])
        assert stop.value.code == 2
        assert "--n" in capsys.readouterr().err

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


NOT_CARTAN = {"l": ["X", "Y"], "p": ["Z"], "z": ["Z"]}


def _aiii_split():
    """l = the strings commuting with ZI: the inner involution T = ZI."""
    strings = pauli.pauli_strings(2)
    return {"l": [s for s in strings if s[0] in "IZ"],
            "p": [s for s in strings if s[0] not in "IZ"], "z": ["XI", "XZ"]}


def _aii_split():
    """The outer involution with the antisymmetric T = YI: l = sp(2)."""
    l, p, _ = pauli._involution_bases(2, "YI")
    return {"l": list(l), "p": list(p), "z": ["IX"]}


def write_split(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSplitGate:
    """Only splits of type AI are priced; every other split exits 3."""

    def test_not_a_cartan_split(self, tmp_path, capsys):
        split = write_split(tmp_path, "bad_split.json", NOT_CARTAN)
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(2, 3))
        for command in ("cost", "decompose", "sweep"):
            code, out, err = run_main(capsys, command, u, "--split-file", split)
            assert code == 3, command
            assert out == "" and "not a Cartan split" in err

    @pytest.mark.parametrize("doc,kind", [(_aiii_split(), "AIII"), (_aii_split(), "AII")])
    def test_other_types_named(self, tmp_path, capsys, doc, kind):
        split = write_split(tmp_path, "split.json", doc)
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        code, out, err = run_main(capsys, "cost", u, "--split-file", split)
        assert code == 3
        assert out == "" and f"type {kind}:" in err


def _two_local_doc(q=None):
    """The two_local lists with the frame ``q``, or with no "Q" (derived from theta)."""
    doc = split_to_json(pauli.builtin_split(2, "two_local"))
    del doc["Q"]
    return doc if q is None else {**doc, "Q": matrix_to_json(q)}


_SHEARED = pauli.MAGIC_BASIS + np.outer(pauli.MAGIC_BASIS[:, 1], [1, 0, 0, 0])


class TestSplitFrame:
    """cost, decompose and sweep refuse a split whose given frame is not adapted
    (exit 3), and price one without a frame in the frame derived from theta."""

    @pytest.mark.parametrize(
        "q", [2 * pauli.MAGIC_BASIS, _SHEARED, 1e200 * pauli.MAGIC_BASIS],
        ids=["scaled_q", "non_unitary_q", "overflowing_q"])
    def test_unadapted_frame_refused(self, tmp_path, capsys, q):
        split = write_split(tmp_path, "split.json", _two_local_doc(q))
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        for command in ("cost", "decompose", "sweep"):
            code, out, err = run_main(capsys, command, u, "--split-file", split)
            assert code == 3, command
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: the split's frame Q is not adapted")

    def test_frame_derived_without_q(self, tmp_path, capsys):
        split = write_split(tmp_path, "split.json", _two_local_doc())
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        one_eps = ("--epsilons", "1e-1", "--restarts", "0", "--seed", "0")
        for command, key, extra in (("cost", "cost", ()), ("sweep", "analytic_cost", one_eps)):
            code, out, err = run_main(capsys, command, u, "--split-file", split, *extra)
            _, builtin, _ = run_main(capsys, command, u, "--split", "two_local", *extra)
            assert code == 0 and err == "", command
            assert json.loads(out)[key] == pytest.approx(json.loads(builtin)[key], abs=1e-12)
        code, out, err = run_main(capsys, "decompose", u, "--split-file", split)
        assert code == 0 and err == "" and json.loads(out)["reconstruction_residual"] < 1e-12

    def test_permuted_magic_frame_accepted(self, tmp_path, capsys):
        permuted = pauli.MAGIC_BASIS[:, [2, 0, 3, 1]]
        split = write_split(tmp_path, "split.json", _two_local_doc(permuted))
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        code, out, err = run_main(capsys, "cost", u, "--split-file", split)
        _, builtin, _ = run_main(capsys, "cost", u, "--split", "two_local")
        assert code == 0 and err == ""
        assert json.loads(out)["cost"] == pytest.approx(json.loads(builtin)["cost"], abs=1e-12)
        code, out, err = run_main(capsys, "decompose", u, "--split-file", split)
        assert code == 0 and err == "" and json.loads(out)["reconstruction_residual"] < 1e-12


class TestSplitZ:
    """cost, decompose and sweep refuse a split whose z is not a maximal
    commuting subset of p (exit 3), before its frame is checked."""

    @pytest.mark.parametrize("z", [["XX"], [], ["XX", "YY", "ZZ", "IX"]],
                             ids=["not_maximal", "empty", "outside_p"])
    def test_bad_z_refused(self, tmp_path, capsys, z):
        split = write_split(tmp_path, "split.json", {**_two_local_doc(pauli.MAGIC_BASIS), "z": z})
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        for command in ("cost", "decompose", "sweep"):
            code, out, err = run_main(capsys, command, u, "--split-file", split)
            assert code == 3, command
            assert out == ""
            assert err == "error: the split's z is not a maximal commuting subset of p\n"


class TestDuplicateStrings:
    """A split document that lists a string twice within l, p or z is a parse
    error (exit 2) naming the string, on every command that reads one."""

    @pytest.mark.parametrize("key,twice", [("z", "XX"), ("p", "YY"), ("l", "IX")])
    def test_refused(self, tmp_path, capsys, key, twice):
        doc = _two_local_doc(pauli.MAGIC_BASIS)
        doc[key] = [*doc[key], twice] if key != "z" else ["XX", "XX", "YY"]
        assert doc[key].count(twice) == 2
        split = write_split(tmp_path, "split.json", doc)
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        for args in (("verify-split",), ("cost", u), ("decompose", u), ("sweep", u)):
            code, out, err = run_main(capsys, *args, "--split-file", split)
            assert code == 2, args
            assert out == ""
            assert err == f"error: split document lists '{twice}' twice in '{key}'\n"


class TestVerifySplit:
    def test_builtin_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify-split", "--split", "ai", "--n", "3")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("n,kind,t", [
        (1, "single_x", "Z"), (2, "two_local", "YY"),
        (1, "ai", "I"), (2, "ai", "II"), (3, "ai", "III"), (4, "ai", "IIII"),
    ])
    def test_builtin_involutions(self, capsys, n, kind, t):
        code, out, _ = run_main(capsys, "verify-split", "--split", kind, "--n", str(n))
        assert code == 0
        assert "FAIL" not in out
        assert f"involution           outer T = {t}, type AI\n" in out

    def test_corrupted_split_file(self, tmp_path, capsys):
        path = write_split(tmp_path, "bad_split.json", NOT_CARTAN)
        code, out, _ = run_main(capsys, "verify-split", "--split-file", path)
        assert code == 1
        assert "violation" in out and "[X, Y] -> Z" in out
        assert "involution           none\n" in out

    def test_custom_split_file_passes(self, tmp_path, capsys):
        from cartancost.serialize import split_to_json

        doc = split_to_json(pauli.builtin_split(2, "two_local"))
        path = tmp_path / "split.json"
        path.write_text(dumps_canonical(doc))
        code, _, _ = run_main(capsys, "verify-split", "--split-file", str(path))
        assert code == 0

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

    @pytest.mark.parametrize("n", [5, 40])
    def test_qubit_count_checked_before_the_frame(self, tmp_path, capsys, n):
        # a 2**n identity frame for n = 40 would not fit in memory
        split = write_split(tmp_path, "split.json", {"l": ["X" * n], "p": ["Z" * n], "z": ["Z" * n]})
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(2, 3))
        for args in (("verify-split",), ("cost", u), ("decompose", u)):
            code, out, err = run_main(capsys, *args, "--split-file", split)
            assert code == 3, args
            assert out == "" and err == "error: supported qubit counts are 1..4\n"


class TestSplitFileExclusive:
    """--split-file stands in place of --split and --n: giving either with it
    is a parse error naming both options, never a silently ignored setting."""

    @staticmethod
    def two_local_file(tmp_path):
        from cartancost.serialize import split_to_json

        return write_split(tmp_path, "tl.json", split_to_json(pauli.builtin_split(2, "two_local")))

    @pytest.mark.parametrize("command", ["decompose", "cost", "sweep"])
    def test_matrix_commands(self, tmp_path, capsys, command):
        u = write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3))
        with pytest.raises(SystemExit) as stop:
            main([command, u, "--split-file", self.two_local_file(tmp_path), "--split", "ai"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --split: not allowed with argument --split-file" in captured.err

    @pytest.mark.parametrize("command", ["verify-split", "verify-metric"])
    def test_split_commands(self, tmp_path, capsys, command):
        split = self.two_local_file(tmp_path)
        with pytest.raises(SystemExit) as stop:
            main([command, "--split-file", split, "--split", "ai", "--n", "3"])
        assert stop.value.code == 2
        assert "argument --split: not allowed with argument --split-file" in capsys.readouterr().err
        code, out, err = run_main(capsys, command, "--split-file", split, "--n", "3")
        assert code == 2
        assert out == "" and "--n cannot be combined with --split-file" in err

    @pytest.mark.parametrize("command", ["decompose", "cost", "sweep", "verify-split",
                                         "verify-metric"])
    def test_default_kind_is_still_given(self, tmp_path, capsys, command):
        # "two_local" here is the same interned string as a default of
        # "two_local" would be, which argparse would then take as not given
        args = [command, "--split-file", self.two_local_file(tmp_path), "--split", "two_local"]
        if command in ("decompose", "cost", "sweep"):
            args.insert(1, write_matrix(tmp_path, "u.json", la.haar_random_special_unitary(4, 3)))
        with pytest.raises(SystemExit) as stop:
            main(args)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --split: not allowed with argument --split-file" in captured.err


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

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_iteration_floor(self, tmp_path, capsys, max_iter):
        path = write_matrix(tmp_path, "z.json", la.expm(-1j * 0.4 * pauli.pauli_matrix("Z")))
        code, out, err = run_main(
            capsys, "sweep", path, "--split", "single_x", "--max-iter", max_iter
        )
        assert code == 3
        assert out == "" and "max_iter must be at least 1" in err

    def test_su4_sweep(self, tmp_path, capsys):
        # `cartancost random --n 2 --seed 4`, swept with the default options
        path = write_matrix(tmp_path, "u4.json", la.haar_random_special_unitary(4, 4))
        code, out, _ = run_main(capsys, "sweep", path)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert all(row["converged"] and row["within_bounds"] for row in doc["rows"])
        path = write_matrix(tmp_path, "u8.json", la.haar_random_special_unitary(8, 7))
        code, out, err = run_main(capsys, "sweep", path, "--split", "ai")
        assert code == 3
        assert out == "" and "dimensions 2 and 4 only" in err


class TestRandom:
    def test_contract_and_determinism(self, capsys):
        code, out1, _ = run_main(capsys, "random", "--n", "2", "--seed", "7")
        assert code == 0
        code, out2, _ = run_main(capsys, "random", "--n", "2", "--seed", "7")
        assert out1 == out2
        from cartancost.serialize import matrix_from_json

        u = matrix_from_json(json.loads(out1))
        assert la.is_unitary(u, 1e-10) and abs(np.linalg.det(u) - 1) <= 1e-10

    def test_seed_defaults_to_zero(self, capsys, monkeypatch):
        # --seed alone decides; no environment variable stands in for it
        monkeypatch.setenv("CARTAN_SEED", "123")
        _, out1, _ = run_main(capsys, "random", "--n", "1")
        _, out2, _ = run_main(capsys, "random", "--n", "1", "--seed", "0")
        assert out1 == out2

    @pytest.mark.parametrize("n", ["0", "5", "40"])
    def test_qubit_count_bounded(self, tmp_path, capsys, monkeypatch, n):
        # refused before any matrix is drawn or file written: at n = 40 the
        # draw alone would ask for two 2^40 x 2^40 arrays
        from cartancost import cli

        def never(*_):
            raise AssertionError("drew a matrix for an out-of-range n")

        monkeypatch.setattr(cli, "haar_random_special_unitary", never)
        out_path = tmp_path / "u.json"
        code, out, err = run_main(capsys, "random", "--n", n, "-o", str(out_path))
        assert code == 3
        assert out == "" and f"--n must lie in 1..4, got {n}" in err
        assert not out_path.exists()


class TestExitMapping:
    """main maps the numerical and optimizer failures of any command to exits 4 and 5."""

    @pytest.mark.parametrize("error,code", [
        ("NumericalFailure", 4), ("ConvergenceFailure", 5),
    ])
    def test_failure_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        from cartancost import cli, errors

        failure = getattr(errors, error)("injected failure", residual=0.5)

        def failing(args):
            raise failure

        monkeypatch.setattr(cli, "cmd_cost", failing)
        path = write_matrix(tmp_path, "id.json", np.eye(2))
        got, out, err = run_main(capsys, "cost", path, "--split", "single_x")
        assert got == code
        assert out == "" and err == f"error: {failure}\n"


def _package_env():
    """The environment with the imported package's directory first on PYTHONPATH,
    so a new interpreter runs the code under test."""
    src = os.path.dirname(os.path.dirname(cartancost.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cartancost", "random", "--n", "1", "--seed", "3"],
        capture_output=True,
        text=True,
        check=True,
        env=_package_env(),
    )
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 2


class TestInProcessReuse:
    """Repeated cli.main calls in one process print what fresh processes print."""

    @staticmethod
    def fresh(calls, cwd):
        """(exit code, stdout, stderr) of each argv, each in a new interpreter."""
        procs = [subprocess.Popen([sys.executable, "-m", "cartancost", *argv], cwd=cwd,
                                  env=_package_env(), text=True, stdout=subprocess.PIPE,
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
        first = parser.parse_args(["verify-split", "-o", "a.txt", "--split-file", "s.json",
                                   "--n", "3"])
        second = parser.parse_args(["verify-split"])
        assert first is not second
        assert (second.output, second.split, second.split_file, second.n) == (
            "-", None, None, None)
