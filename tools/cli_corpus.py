"""Write the output of a fixed list of ``cartancost`` command lines to a directory.

    python tools/cli_corpus.py OUTDIR

Runs each call in-process through ``cartancost.cli.main``, importing the
package from this checkout's ``src``: ``random --n 1..4``, then ``decompose``
and ``cost`` on every built-in split family, then ``single_x`` and SU(4)
sweeps with ``--csv``, then ``verify-split`` and ``verify-metric --json-out``
on every built-in split.  Call ``k`` runs in ``OUTDIR/NNN`` (``k`` as three
digits), writes its output files there and leaves ``argv``, ``exit``,
``stdout`` and ``stderr`` beside them; the ``random`` calls write the input
matrices ``OUTDIR/u<n>_<seed>.json``.  Running this in two checkouts and
comparing the trees with ``diff -r`` checks that a change keeps the CLI
output byte-identical.  Set ``OPENBLAS_NUM_THREADS=1`` for both runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cartancost.cli import main  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
SPLITS = [("single_x", 1), ("two_local", 2)] + [("ai", n) for n in range(1, 5)]


def calls():
    """The argv lists, in order; each names its output files relative to its own directory."""
    for n in range(1, 5):
        for seed in SEEDS:
            yield ["random", "--n", str(n), "--seed", str(seed), "-o", f"../u{n}_{seed}.json"]
    for kind, n in SPLITS:
        for seed in SEEDS:
            yield ["decompose", f"../u{n}_{seed}.json", "--split", kind]
            yield ["cost", f"../u{n}_{seed}.json", "--split", kind]
    for seed in SEEDS:
        yield ["cost", f"../u1_{seed}.json", "--split", "single_x", "--convention",
               "paper-halved"]
    for kind, n in (("single_x", 1), ("two_local", 2)):
        for seed in SEEDS:
            yield ["sweep", f"../u{n}_{seed}.json", "--split", kind, "--seed", "0",
                   "--csv", "sweep.csv"]
    for kind, n in SPLITS:
        size = ["--n", str(n)] if kind == "ai" else []
        yield ["verify-split", "--split", kind, *size]
        yield ["verify-metric", "--split", kind, *size, "--samples", "3", "--seed", "0",
               "--json-out", "grams.json"]


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse reports parse errors this way
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def write_corpus(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ.pop("CARTAN_SEED", None)  # every seeded call passes --seed
    for k, argv in enumerate(calls()):
        here = outdir / f"{k:03d}"
        here.mkdir(exist_ok=True)
        os.chdir(here)
        code, out, err = run(argv)
        (here / "argv").write_text(" ".join(argv) + "\n")
        (here / "exit").write_text(f"{code}\n")
        (here / "stdout").write_text(out)
        (here / "stderr").write_text(err)
    return k + 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_corpus(Path(sys.argv[1]).resolve())} calls")
