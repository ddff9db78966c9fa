"""Paired benchmark runs of a parent checkout against this one.

    python3 tools/bench_pairs.py PARENT --workload decompose_cli --pairs 10 --first-seed 31

PARENT is a directory holding a checkout of the parent commit, made for
example with ``git archive``.  Pair i runs ``bench/run.py --trace 0`` in both
checkouts with seed ``first_seed + i`` and the ``run_seconds`` of this
checkout's ``BENCHMARK.json``; the parent runs first in even pairs and this
checkout in odd ones.  For each end-to-end metric the tool prints each side's
first quartile, median and third quartile, the pairs the change won (ties
count for neither side) and whether the gain rule holds: the change wins at
least nine tenths of the pairs, and its median is better than the parent's by
more than the parent's interquartile range.  It exits 1 when a run is not
``correct`` or when the two runs of a pair fail different shares of their
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that the last line of one untraced benchmark run prints."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: bench/run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(end_to_end: list, parent: list, change: list) -> list[dict]:
    """Per end-to-end metric of ``BENCHMARK.json``: both sides' quartiles,
    the change's wins over the pairs ``zip(parent, change)`` and the verdict
    of the gain rule."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        p, c = statistics.quantiles(before, n=4), statistics.quantiles(after, n=4)
        gain = c[1] - p[1] if not lower else p[1] - c[1]
        rows.append({
            "name": name, "unit": spec["unit"], "better": spec["better"],
            "parent": p, "change": c, "wins": wins, "pairs": len(before),
            "median_change_pct": 100.0 * (c[1] - p[1]) / p[1],
            "gain_rule": 10 * wins >= 9 * len(before) and gain > p[2] - p[0],
        })
    return rows


def problems(parent: list, change: list) -> list[str]:
    """Runs that are not correct, and pairs whose failed shares differ."""
    out = []
    for i, (b, a) in enumerate(zip(parent, change)):
        for side, run in (("parent", b), ("change", a)):
            if not run["correct"]:
                out.append(f"pair {i}: the {side} run is not correct")
        if b["failed"] * a["attempted"] != a["failed"] * b["attempted"]:
            out.append(f"pair {i}: failed {b['failed']}/{b['attempted']} (parent) "
                       f"vs {a['failed']}/{a['attempted']} (change)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0, dest="first_seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {args.parent}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, seed, bench["run_seconds"])
            runs[side].append(run)
            values = ", ".join(f"{k} {m['value']:.4f}" for k, m in run["metrics"].items())
            print(f"pair {i} seed {seed} {side}: {values}", flush=True)

    for row in summarize(bench["end_to_end"], runs["parent"], runs["change"]):
        print(f"{row['name']} ({row['unit']}, {row['better']} is better)")
        for side in ("parent", "change"):
            q1, median, q3 = row[side]
            print(f"  {side}  q1 {q1:.4f}  median {median:.4f}  q3 {q3:.4f}")
        print(f"  change wins {row['wins']}/{row['pairs']}, median "
              f"{row['median_change_pct']:+.2f} %; gain rule "
              f"{'holds' if row['gain_rule'] else 'does not hold'}")
    found = problems(runs["parent"], runs["change"])
    for text in found:
        print(f"error: {text}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
