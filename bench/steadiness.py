"""Run-to-run spread of the benchmark, from two sets of runs of the same code.

    python3 bench/steadiness.py --runs 10

It makes two sets.  Each set runs every workload of BENCHMARK.json
``--runs`` times (workloads interleaved, a new seed per run) with the run
length of BENCHMARK.json.  It then prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (q3 - q1) / median, and
how far the second set's median moved in the metric's worse direction.  A
metric passes when both spreads and the drift stay within its bound; the
target for a steady benchmark is a spread under a third of the bound.  Every run's failed share must be equal.
The raw results go to ``.bench_out/steadiness.json``.  Exits 1 if a check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = {w: [[], []] for w in names}
    seed = args.first_seed
    for s in range(2):
        for i in range(args.runs):
            for w in names:
                start = time.perf_counter()
                res = run_once(w, seed, bench["run_seconds"])
                res["seed"] = seed
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {time.perf_counter() - start:.1f} s"
                      f" correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)
                seed += 1

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / "steadiness.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':14} {'metric':17} " + " ".join(
        f"{'set' + str(s + 1) + ' q1/median/q3':>34} {'spread':>7}" for s in range(2))
        + f" {'drift':>7} {'bound':>6}  verdict")
    for w in names:
        runs = [r for sets in results[w] for r in sets]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        for m in bench["end_to_end"]:
            cells, medians, spreads = [], [], []
            for s in range(2):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][m["name"]]["value"] for r in results[w][s]], n=4)
                medians.append(med)
                spreads.append((q3 - q1) / med)
                cells.append(f"{q1:10.4g} {med:11.5g} {q3:11.4g} {spreads[-1]:7.2%}")
            drift = (medians[1] - medians[0]) / medians[0]
            drift = -drift if m["better"] == "higher" else drift
            bound = m["bound"]
            verdict = "ok"
            if max(spreads) > bound or drift > bound:
                verdict, ok = "FAIL", False
            elif max(spreads) > bound / 3:
                verdict = "wide"
            print(f"{w:14} {m['name']:17} " + " ".join(cells)
                  + f" {drift:7.2%} {bound:6.2f}  {verdict}")
        print(f"{w:14} failed shares {sorted(shares)}  all correct: {correct}")
        if len(shares) != 1 or not correct:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
