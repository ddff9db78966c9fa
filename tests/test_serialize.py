import json

import numpy as np
import pytest

from cartancost import pauli, serialize
from cartancost import linalg as la


class TestCanonicalDumps:
    def test_float_formatting(self):
        out = serialize.dumps_canonical({"x": np.pi})
        assert "3.1415926535897931" in out

    def test_stable_bytes(self):
        doc = {"a": [0.1, 0.2, 1.0 / 3.0], "b": {"c": True, "d": None}}
        assert serialize.dumps_canonical(doc) == serialize.dumps_canonical(doc)

    def test_parses_back(self):
        doc = {"m": [[1.5, -2.25], [0.0, 1e-17]], "n": 3, "s": "XY", "f": False}
        back = json.loads(serialize.dumps_canonical(doc))
        assert back == doc

    def test_nan_becomes_null(self):
        assert json.loads(serialize.dumps_canonical({"v": float("nan")}))["v"] is None


class TestMatrixJson:
    def test_round_trip(self):
        u = la.haar_random_special_unitary(4, 0)
        doc = serialize.matrix_to_json(u)
        assert doc["dim"] == 4
        assert np.allclose(serialize.matrix_from_json(doc), u)

    def test_text_round_trip_exact(self):
        u = la.haar_random_special_unitary(2, 1)
        text = serialize.dumps_canonical(serialize.matrix_to_json(u))
        back = serialize.matrix_from_json(json.loads(text))
        assert np.array_equal(back, u)  # 17 significant digits round-trip doubles

    def test_shape_validation(self):
        with pytest.raises(serialize.ParseError):
            serialize.matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})

    def test_missing_keys(self):
        with pytest.raises(serialize.ParseError):
            serialize.matrix_from_json({"dim": 2})


class TestSplitJson:
    def test_round_trip_builtin(self):
        split = pauli.builtin_split(2, "two_local")
        doc = serialize.split_to_json(split)
        assert set(doc) == {"l", "p", "z", "Q"}
        back = serialize.split_from_json(doc)
        assert back.l_basis == split.l_basis
        assert back.p_basis == split.p_basis
        assert back.z_basis == split.z_basis
        assert np.allclose(back.q, split.q)

    def test_identity_frame_omitted(self):
        split = pauli.builtin_split(2, "ai")
        doc = serialize.split_to_json(split)
        assert "Q" not in doc
        back = serialize.split_from_json(doc)
        assert np.allclose(back.q, np.eye(4))

    def test_bad_strings_rejected(self):
        # an unknown letter, and the identity string, which is not in su(2**n)
        for l in (["XQ"], ["II", "XI"]):
            with pytest.raises(serialize.ParseError):
                serialize.split_from_json({"l": l, "p": ["ZZ"], "z": ["ZZ"]})


class TestReportJson:
    def test_cost_report_fields(self):
        from cartancost.cost import optimal_cost

        split = pauli.builtin_split(2, "two_local")
        u = la.expm(1j * (np.pi / 4) * pauli.pauli_matrix("XX"))
        doc = serialize.cost_report_to_json(optimal_cost(u, split))
        assert doc["convention"] == "trace-norm-pauli"
        assert abs(doc["cost"] - np.pi / 2) < 1e-9
        assert len(doc["eigenphases"]) == 4
        assert sum(doc["lattice_point"]) == 0

    def test_factors_fields(self):
        from cartancost.kak import kak_decompose

        split = pauli.builtin_split(1, "single_x")
        f = kak_decompose(la.expm(-1j * 0.3 * pauli.pauli_matrix("Z")), split)
        doc = serialize.factors_to_json(f, residual=1e-12)
        assert set(doc) >= {"split", "L", "Z", "M", "A", "D", "B"}
        assert doc["split"] == "single_x"
        assert set(doc["Z"]) <= {"Z"}


# -- reference renderer --------------------------------------------------------
# A verbatim copy of the recursive renderer that dumps_canonical replaced; the
# command line's JSON must stay byte-identical to what it prints.

def _ref_fmt_float(x: float) -> str:
    if np.isnan(x):
        return "null"
    if np.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


def _ref_render(obj, parts: list, level: int) -> None:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_ref_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f"{pad_in}{json.dumps(str(k))}: ")
            _ref_render(v, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            inner = []
            for v in seq:
                sub: list = []
                _ref_render(v, sub, level)
                inner.append("".join(sub))
            parts.append("[" + ", ".join(inner) + "]")
        else:
            parts.append("[\n")
            for i, v in enumerate(seq):
                parts.append(pad_in)
                _ref_render(v, parts, level + 1)
                parts.append(",\n" if i < len(seq) - 1 else "\n")
            parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _ref_dumps_canonical(obj) -> str:
    parts: list = []
    _ref_render(obj, parts, 0)
    return "".join(parts) + "\n"


FACTOR_SPLITS = [(1, "single_x"), (2, "two_local"), (2, "ai"), (3, "ai"), (4, "ai")]


def _sweep():
    from cartancost.control import epsilon_sweep

    u = la.haar_random_special_unitary(2, 5)
    return epsilon_sweep(u, pauli.builtin_split(1, "single_x"), [1e-1, 1e-2],
                         restarts=0, max_iter=50)


def _failed_sweep():
    from cartancost.control import SweepResult

    nan = float("nan")
    return SweepResult(
        epsilon_values=np.array([1e-1, 1e-2]),
        numeric_costs=np.array([1.25, nan]),
        analytic_cost=1.0 / 3.0,
        endpoint_residuals=np.array([np.inf, 5e-324]),
        feasible_costs=np.array([-0.0, -np.inf]),
        converged=np.array([True, False]),
        within_bounds=np.array([False, False]),
    )


class TestReferenceEquivalence:
    @staticmethod
    def same(doc):
        assert serialize.dumps_canonical(doc) == _ref_dumps_canonical(doc)

    @pytest.mark.parametrize("n,kind", FACTOR_SPLITS)
    def test_factors(self, n, kind):
        from cartancost.kak import kak_decompose, reconstruct

        split = pauli.builtin_split(n, kind)
        u = la.haar_random_special_unitary(2**n, 10 + n)
        f = kak_decompose(u, split)
        residual = la.frobenius_distance(reconstruct(f), u, mod_global_phase=True)
        self.same(serialize.factors_to_json(f, residual))
        self.same(serialize.factors_to_json(f))
        self.same(serialize.matrix_to_json(u))

    @pytest.mark.parametrize("n,kind", FACTOR_SPLITS)
    def test_cost_reports(self, n, kind):
        from cartancost.cost import optimal_cost

        split = pauli.builtin_split(n, kind)
        report = optimal_cost(la.haar_random_special_unitary(2**n, 20 + n), split)
        for convention in ("standard-pauli", "paper-halved"):
            self.same(serialize.cost_report_to_json(report, convention))

    @pytest.mark.parametrize("n,kind", [(1, "single_x"), (2, "two_local")])
    def test_grams(self, n, kind):
        from cartancost.metric import (
            GramTolerances, PenaltyMetric, pullback_gram, verify_gram_structure,
        )

        split = pauli.builtin_split(n, kind)
        metric = PenaltyMetric(split, 1e-5)
        rng = np.random.default_rng(3)
        l = pauli.random_hamiltonian(n, split.l_basis, rng, norm=0.5)
        m = pauli.random_hamiltonian(n, split.l_basis, rng, norm=0.7)
        for z in (pauli.Hamiltonian(n),
                  pauli.random_hamiltonian(n, split.z_basis, rng, norm=0.4)):
            gram = pullback_gram((l, z, m), metric)
            report = verify_gram_structure(gram, metric, GramTolerances())
            self.same({"epsilon": 1e-5, "grams": [serialize.gram_to_json(gram, report)]})
            self.same(serialize.gram_to_json(gram))

    def test_numpy_scalar_gram_values(self):
        doc = {
            "fd_step": np.float64(1e-4),
            "step_degenerate": np.bool_(False),
            "blocks": {"G11": np.array([[np.float32(0.1), 2.0], [3, -0.0]])},
            "structure": {"offdiag_max": np.float64(3e-9), "ok": np.bool_(True),
                          "last_block_eigs": [np.float64(1e-5), np.float32(2.5)],
                          "last_block_zero_base_dev": None},
        }
        self.same(doc)

    def test_sweeps(self):
        for sw in (_sweep(), _failed_sweep()):
            self.same(serialize.sweep_to_json(sw))

    def test_sweep_csv(self):
        for sw in (_sweep(), _failed_sweep()):
            lines = ["epsilon,numeric_cost,endpoint_residual,feasible_cost,analytic_cost"]
            for row in zip(sw.epsilon_values, sw.numeric_costs, sw.endpoint_residuals,
                           sw.feasible_costs):
                lines.append(",".join(_ref_fmt_float(v).strip('"')
                                      for v in (*row, sw.analytic_cost)))
            assert serialize.sweep_to_csv(sw) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("doc", [
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1, 1e300,
        np.float32(0.1), np.float64(-2.5), np.int64(-7), np.bool_(True), np.bool_(False),
        np.float64("nan"), np.float32("-inf"), True, False, None, 0, -3, 2**70,
        {}, [], (), [[]], {"a": {}}, {"a": []},
        (1.5, 2.5), (1, 2.0, True), [1, 2.5, -3], [0.5, np.float64(0.5)],
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324],
        np.array([0.25, -1e-17, np.nan]), np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([1, 2, 3]), np.array([True, False]), np.zeros((2, 0)),
        [np.array([1.0, 2.0]), {"k": (3.0, 4)}, [[5.0], []]],
        {1: 1.0, 2: "two", "q\"uote": -0.0, "café π": [1.0], "": None},
        {"s": "line\nbreak\ttab \"q\" \\ é中\U0001f600", "u": "\x01"},
        {"x": float("nan"), "y": float("-inf"), "z": 5e-324, "w": np.float64(7.0)},
    ])
    def test_edge_cases(self, doc):
        self.same(doc)

    def test_unsupported_type_rejected(self):
        for bad in (object(), {"a": 1j}, [1.0, {1, 2}]):
            with pytest.raises(TypeError):
                serialize.dumps_canonical(bad)
