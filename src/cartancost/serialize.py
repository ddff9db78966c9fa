"""JSON forms for matrices, splits, factors, and reports.

All command-line output flows through :func:`dumps_canonical`, which prints
every float with a fixed 17-significant-digit format so identical runs are
byte-identical.  Matrices travel as ``{"dim": N, "re": [[...]], "im":
[[...]]}`` (row-major, IEEE doubles); Pauli operators as coefficient maps
keyed by letter strings; splits as string lists under "l", "p", "z" with an
optional embedded frame matrix "Q".
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .control import SweepResult
from .cost import CostReport
from .errors import PreconditionError
from .kak import KakFactors
from .pauli import CartanSplit, Hamiltonian, pauli_strings

__all__ = [
    "ParseError",
    "dumps_canonical",
    "matrix_to_json",
    "matrix_from_json",
    "hamiltonian_to_json",
    "split_to_json",
    "split_from_json",
    "factors_to_json",
    "cost_report_to_json",
    "sweep_to_json",
    "sweep_to_csv",
]


class ParseError(ValueError):
    """Malformed or structurally invalid input document."""


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if x != x:
        return "null"
    return '"Infinity"' if x > 0 else '"-Infinity"'


def _render(obj, parts: list, level: int) -> None:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f"{pad_in}{_quote(str(k))}: ")
            if type(v) is float:  # fast path: plain float values
                parts.append(_fmt_float(v))
            else:
                _render(v, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if all(type(v) is float for v in seq) and all(map(math.isfinite, seq)):
            # fast path: a flat row of finite plain floats in one format call
            parts.append("[" + ", ".join(["%.17g"] * len(seq)) % tuple(seq) + "]")
        elif all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            inner = []
            for v in seq:
                sub: list = []
                _render(v, sub, level)
                inner.append("".join(sub))
            parts.append("[" + ", ".join(inner) + "]")
        else:
            parts.append("[\n")
            for i, v in enumerate(seq):
                parts.append(pad_in)
                _render(v, parts, level + 1)
                parts.append(",\n" if i < len(seq) - 1 else "\n")
            parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    parts: list = []
    _render(obj, parts, 0)
    return "".join(parts) + "\n"


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(doc) -> np.ndarray:
    try:
        dim = doc["dim"]
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (TypeError, KeyError, ValueError, OverflowError) as err:
        raise ParseError(f"bad matrix document: {err}") from err
    if type(dim) is not int:  # refuse bool (an int subclass), float and str
        raise ParseError(f"matrix dim must be a JSON integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(
            f"matrix entries have shape {re.shape}/{im.shape}, expected ({dim}, {dim})"
        )
    # NumPy would also take "1", true and null (as 1.0, 1.0 and NaN)
    if not set(map(type, itertools.chain(*doc["re"], *doc["im"]))) <= {int, float}:
        raise ParseError("matrix entries must be JSON numbers, not strings, booleans or null")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # NaN, Infinity, 1e999
        raise ParseError("matrix entries must be finite")
    return re + 1j * im


def hamiltonian_to_json(h: Hamiltonian) -> dict:
    """The nonzero coefficients by string, in ``pauli_strings(n)`` order, which
    is sorted order (I < X < Y < Z)."""
    return {s: c for s, c in zip(pauli_strings(h.n), h.vec.tolist()) if c != 0.0}


def split_to_json(split: CartanSplit) -> dict:
    doc = {
        "l": list(split.l_basis),
        "p": list(split.p_basis),
        "z": list(split.z_basis),
    }
    if not np.array_equal(split.q, np.eye(2**split.n)):
        doc["Q"] = matrix_to_json(split.q)
    return doc


def split_from_json(doc) -> CartanSplit:
    try:
        l = tuple(str(s) for s in doc["l"])
        p = tuple(str(s) for s in doc["p"])
        z = tuple(str(s) for s in doc["z"])
    except (TypeError, KeyError) as err:
        raise ParseError(f"bad split document: {err}") from err
    if not l or not p:
        raise ParseError("split document has empty bases")
    n = len(l[0])
    for s in (*l, *p, *z):
        if len(s) != n or any(c not in "IXYZ" for c in s) or not s.strip("I"):
            raise ParseError(f"bad Pauli string {s!r}")
    if not 1 <= n <= 4:  # before the 2**n frame is built
        raise PreconditionError("supported qubit counts are 1..4")
    q = matrix_from_json(doc["Q"]) if "Q" in doc else np.eye(2**n, dtype=complex)
    if q.shape != (2**n, 2**n):
        raise ParseError("frame matrix dimension does not match the strings")
    return CartanSplit(n, l, p, z, q)


def factors_to_json(f: KakFactors, residual: float | None = None) -> dict:
    doc = {
        "split": f.split.kind,
        "L": hamiltonian_to_json(f.l),
        "Z": hamiltonian_to_json(f.z),
        "M": hamiltonian_to_json(f.m),
        "A": matrix_to_json(f.a),
        "D": matrix_to_json(f.d),
        "B": matrix_to_json(f.b),
        "removed_phase": float(f.removed_phase),
    }
    if residual is not None:
        doc["reconstruction_residual"] = float(residual)
    return doc


def cost_report_to_json(report: CostReport, convention: str = "standard-pauli") -> dict:
    doc = {
        "cost": float(report.cost),
        "eigenphases": [float(v) for v in report.eigenphases],
        "lattice_point": [int(v) for v in report.lattice_point],
        "shifted_phases": [float(v) for v in report.shifted_phases],
        "convention": "trace-norm-pauli",
        "removed_phase": float(report.factors.removed_phase),
    }
    if report.factors.split.n == 1:
        # surface the single-qubit parameter in the requested reading; the
        # halved-eigenvalue parameter is twice the standard one and the
        # closed form evaluated there reproduces the cost exactly
        w = float(report.eigenphases[0])
        doc["single_qubit_convention"] = convention
        doc["single_qubit_parameter"] = w if convention == "standard-pauli" else 2 * w
    return doc


def gram_to_json(gram, report) -> dict:
    """Named blocks of a measured coordinate Gram, residual diagnostics and
    the outcome of its structure checks."""
    return {
        "fd_step": float(gram.fd_step),
        "sym_residual": float(gram.sym_residual),
        "check_delta": float(gram.check_delta),
        "step_degenerate": bool(gram.step_degenerate),
        "blocks": {
            f"G{i}{j}": np.asarray(gram.block(i, j)).tolist()
            for i in (1, 2, 3)
            for j in (1, 2, 3)
            if j >= i
        },
        "structure": {
            "offdiag_max": report.offdiag_max,
            "offdiag_ok": report.offdiag_ok,
            "center_max_dev": report.center_max_dev,
            "center_ok": report.center_ok,
            "first_block_rel_dev": report.first_block_rel_dev,
            "first_block_ok": report.first_block_ok,
            "last_block_eigs": list(report.last_block_eigs),
            "last_block_psd": report.last_block_psd,
            "last_block_zero_base_dev": report.last_block_zero_base_dev,
            "ok": report.all_ok,
        },
    }


def sweep_to_json(sw: SweepResult) -> dict:
    return {
        "analytic_cost": float(sw.analytic_cost),
        "rows": [
            {
                "epsilon": float(e),
                "numeric_cost": float(c),
                "endpoint_residual": float(r),
                "feasible_cost": float(f),
                "converged": bool(k),
                "within_bounds": bool(w),
            }
            for e, c, r, f, k, w in zip(
                sw.epsilon_values,
                sw.numeric_costs,
                sw.endpoint_residuals,
                sw.feasible_costs,
                sw.converged,
                sw.within_bounds,
            )
        ],
    }


def sweep_to_csv(sw: SweepResult) -> str:
    lines = ["epsilon,numeric_cost,endpoint_residual,feasible_cost,analytic_cost"]
    for e, c, r, f in zip(
        sw.epsilon_values, sw.numeric_costs, sw.endpoint_residuals, sw.feasible_costs
    ):
        lines.append(
            ",".join(
                _fmt_float(v).strip('"') for v in (e, c, r, f, sw.analytic_cost)
            )
        )
    return "\n".join(lines) + "\n"
