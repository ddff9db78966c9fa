"""Per-layer spans, recorded from outside the program.

Every traced function is replaced, on each module attribute of the package
through which the package calls it, by a wrapper that records a span: the
function, the operation it ran under, its parent span, start and end.  A
span's self time is its duration less the durations of its child spans.
Spans stay in memory and are written out when the traced run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from cartancost.errors import NumericalFailure

#: (module, function) pairs; the modules are cartancost's layers.
TRACED = (
    ("linalg", "expm"),
    ("linalg", "diag_symmetric_unitary"),
    ("linalg", "log_special_orthogonal"),
    ("linalg", "project_special"),
    ("linalg", "is_unitary"),
    ("linalg", "frobenius_distance"),
    ("pauli", "Hamiltonian.from_matrix"),
    ("pauli", "Hamiltonian.to_matrix"),
    ("pauli", "i_commutator"),
    ("pauli", "trace_inner_product"),
    ("pauli", "support_residual"),
    ("kak", "kak_decompose"),
    ("kak", "reconstruct"),
    ("kak", "canonicalize_phases"),
    ("lattice", "closest_lattice_point"),
    ("cost", "optimal_cost"),
    ("metric", "pullback_gram"),
    ("metric", "verify_gram_structure"),
    ("metric", "bch_matrix"),
    ("control", "epsilon_sweep"),
    ("control", "optimize_path"),
    ("control", "optimal_feasible_path"),
    ("control", "path_cost"),
    ("control", "evolve"),
    ("serialize", "matrix_from_json"),
    ("serialize", "factors_to_json"),
    ("serialize", "dumps_canonical"),
    ("cli", "cmd_decompose"),
)

FAILURE_COUNTED = "linalg.diag_symmetric_unitary"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, func in TRACED:
        out += [(f"{module}.{func}.calls_per_op", "count"),
                (f"{module}.{func}.self_us_per_op", "us")]
    out.append((f"{FAILURE_COUNTED}.failures_per_run", "count"))
    return out + [("bench.untraced_throughput_ops_s", "ops/s"),
                  ("bench.traced_throughput_ops_s", "ops/s"),
                  ("bench.tracing_overhead_pct", "%")]


class Tracer:
    """Span recorder; ``op`` is set by the caller before each operation."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_ns = [0] * len(TRACED)
        self.failures = [0] * len(TRACED)
        self.op = -1
        self._stack = []  # [span index, nanoseconds covered by children]
        self.span_fn = array("i")
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "cartancost" or name.startswith("cartancost.")]
        for idx, (module, func) in enumerate(TRACED):
            owner = sys.modules[f"cartancost.{module}"]
            if "." in func:
                cls_name, attr = func.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(idx, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(idx, raw))
                continue
            original = getattr(owner, func)
            wrapped = self._wrap(idx, original)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def _wrap(self, idx: int, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(self.span_fn)
            self.span_fn.append(idx)
            self.span_op.append(self.op)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            frame = [span, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            except NumericalFailure:
                self.failures[idx] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end
                self.calls[idx] += 1
                self.self_ns[idx] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start

        return traced

    def metrics(self, ops: int) -> dict:
        """Per-operation counts and self times, and the failure count."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = (self.calls[i] / ops, "count")
            out[f"{name}.self_us_per_op"] = (self.self_ns[i] / 1e3 / ops, "us")
        out[f"{FAILURE_COUNTED}.failures_per_run"] = (
            float(self.failures[self.names.index(FAILURE_COUNTED)]), "count")
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.asarray(self.span_fn, dtype=np.int32),
            op=np.asarray(self.span_op, dtype=np.int64),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start_ns=np.asarray(self.span_start, dtype=np.int64),
            end_ns=np.asarray(self.span_end, dtype=np.int64),
        )
