"""cartancost benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload decompose_cli --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
is a fixed number of whole rounds of the workload (see workloads.py),
``max(1, round(seconds / ROUND_S))`` with ``ROUND_S`` the workload's round
time on the reference host, so the work done depends on the arguments, not
on the speed of the host or the program.  Every output is checked against
the outside oracles after its round is timed, and the last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Only operations marked with a known fault may fail, and only with that
fault's exit code; any other failure makes ``correct`` false.

With ``--trace 0`` the metrics are the end-to-end ones: throughput and
median latency (both paced to the reference host's speed, see ``Pace``),
set-up time (median of fresh-process set-ups) and peak RSS.  With
``--trace 1`` the run measures untraced, then repeats the same rounds with
every traced function wrapped, and reports per-layer counts and self times
plus the tracing overhead; spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, before NumPy loads: the load is this one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _import_program():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "cartancost" / "__init__.py").is_file():
        sys.exit(f"error: no cartancost package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


class Pace:
    """How fast the host runs now, against the reference host.

    On a shared VM the speed of identical work drifts by up to 20 % either
    way over minutes, while CPU time keeps up with wall time: the CPU itself
    runs slower.  The drift hits the program and this fixed loop of small
    dense linear algebra and dict updates alike; the loop does not use the
    program.  Each operation's wall time is scaled by ``REFERENCE_S`` over
    the loop's time (best of three), taken before the operation and at most
    ``EVERY_S`` of timed work earlier, so paced times read as on the
    reference host.
    """

    REFERENCE_S = 0.0050  # the loop's time on the reference host
    EVERY_S = 0.2

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._np, self._expm = np, scipy.linalg.expm
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((d, d)) / d for d in (4,) * 30 + (16,) * 6]
        self._due = 0.0
        self._factor = 1.0
        self._loop()  # warm-up

    def _loop(self) -> float:
        start = time.perf_counter()
        for m in self._mats:
            self._np.linalg.eig(m)
            self._expm(m)
            m @ m
        counts = {}
        for i in range(15000):
            counts[i % 97] = counts.get(i % 97, 0.0) + 0.5
        return time.perf_counter() - start

    def factor(self) -> float:
        """The scale for the next operation, re-timing the loop when due."""
        if self._due <= 0:
            self._factor = self.REFERENCE_S / min(self._loop() for _ in range(3))
            self._due = self.EVERY_S
        return self._factor

    def spent(self, seconds: float) -> None:
        self._due -= seconds


@dataclass
class Phase:
    """What one measured stretch of whole rounds produced: per operation its
    wall time and the pace factor in force, per round its operation count
    and how many succeeded."""

    latencies: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    def times(self, paced: bool) -> list:
        return [t * f for t, f in zip(self.latencies, self.factors)] if paced else self.latencies

    def throughput(self, paced: bool = True) -> float:
        """Median over rounds of completed operations / summed operation time."""
        times, first, rates = self.times(paced), 0, []
        for count, ok in self.rounds:
            rates.append(ok / sum(times[first:first + count]))
            first += count
        return statistics.median(rates)

    def latency_p50_ms(self, paced: bool = True) -> float:
        return statistics.median(self.times(paced)) * 1e3


def measure(workload, rounds: int, pace: Pace, tracer=None) -> Phase:
    """Run ``rounds`` whole rounds, checking each round's outputs after it is
    timed."""
    from workloads import FAILURES

    phase = Phase()
    for r in range(rounds):
        ops = workload.round_ops(r)
        outputs = []
        for op in ops:
            if tracer is not None:
                tracer.op = phase.attempted + len(outputs)
            phase.factors.append(pace.factor())
            start = time.perf_counter()
            try:
                out, ok = op.call(), True
            except FAILURES as err:
                out, ok = err, False
            phase.latencies.append(time.perf_counter() - start)
            pace.spent(phase.latencies[-1])
            outputs.append((op, out, ok))
        phase.rounds.append((len(ops), sum(ok for _, _, ok in outputs)))
        for op, out, ok in outputs:
            phase.attempted += 1
            if ok:
                phase.problems += [f"{op.label}: {p}" for p in op.check(out)]
            else:
                phase.failed += 1
                phase.failures[f"{op.label}: {type(out).__name__}: {out}"] += 1
                if not op.is_known_fault(out):
                    phase.problems.append(f"{op.label}: unexpected failure: "
                                          f"{type(out).__name__}: {out}")
    return phase


def set_up(name: str, seed: int, workdir: Path):
    """Split construction and warm-up calls; returns the workload and the
    seconds spent generating warm-up inputs, which set-up time excludes."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, str(workdir))
    workload.build_splits()
    start = time.perf_counter()
    ops = workload.warm_up_ops()
    generation = time.perf_counter() - start
    for op in ops:
        op.call()
    return workload, generation


def setup_probe(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or not line:
        sys.exit(f"error: set-up probe exited {code}")
    return ready - start - json.loads(line)["generation_s"]


def tail_reference(latencies) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    qs = [q for q in (0.9, 0.99, 0.999) if n * (1 - q) >= 10]
    if not qs:
        return f"latency tail: none (only {n} operations)"
    q = qs[-1]
    value = sorted(latencies)[min(n - 1, int(q * n))] * 1e3
    return f"latency p{q * 100:g} = {value:.4f} ms over {n} operations"


def report(phases, metrics: dict) -> int:
    problems = [p for ph in phases for p in ph.problems]
    failures = Counter()
    for ph in phases:
        failures.update(ph.failures)
    for text, count in sorted(failures.items()):
        print(f"failed x{count}: {text}")
    for text in problems[:20]:
        print(f"WRONG: {text}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = OUT / f"work-{os.getpid()}"
    workload = None
    try:
        if args.setup_probe:
            workload, generation = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"generation_s": generation}), flush=True)
            return 0
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(
                setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES))
        workload, _ = set_up(args.workload, args.seed, workdir)
        rounds = max(1, round(args.seconds / workload.ROUND_S))
        pace = Pace()
        untraced = measure(workload, rounds, pace)
        print(tail_reference(untraced.latencies))
        print(f"unpaced: throughput {untraced.throughput(paced=False):.4f} ops/s, latency p50 "
              f"{untraced.latency_p50_ms(paced=False):.4f} ms; median pace factor "
              f"{statistics.median(untraced.factors):.4f}")
        if not args.trace:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return report([untraced], {
                "throughput_ops_s": (untraced.throughput(), "ops/s"),
                "latency_p50_ms": (untraced.latency_p50_ms(), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            })

        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced = measure(workload, rounds, pace, tracer=tracer)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(str(spans))
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.span_fn)} spans)")
        metrics = tracer.metrics(traced.attempted)
        plain, with_spans = untraced.throughput(), traced.throughput()
        metrics["bench.untraced_throughput_ops_s"] = (plain, "ops/s")
        metrics["bench.traced_throughput_ops_s"] = (with_spans, "ops/s")
        metrics["bench.tracing_overhead_pct"] = (100.0 * (plain - with_spans) / plain, "%")
        return report([untraced, traced], metrics)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
