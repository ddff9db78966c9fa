"""Write the output of a fixed list of ``cartancost`` command lines to a directory.

    python tools/cli_corpus.py OUTDIR
    python tools/cli_corpus.py [OUTDIR] --manifest PATH

Runs each call in-process through ``cartancost.cli.main``, importing the
package from this checkout's ``src``: ``random --n 1..4``, then ``decompose``
and ``cost`` on every built-in split family, then ``single_x`` and SU(4)
sweeps with ``--csv``, then ``verify-split`` and ``verify-metric --json-out``
on every built-in split, then ``cost``, ``decompose`` and ``verify-split`` on
each split document of ``SPLIT_DOCS``, then ``decompose`` and ``cost`` on the
input documents of ``MATRIX_DOCS``: a near-SWAP gate inside the KAK failure
window (exit 4), a matrix with a ragged row (exit 2), SWAP, whose
eigenphases tie two lattice points, and a magic-basis diagonal whose halved
phases sum to pi with every entry positive.  Call ``k`` runs in
``OUTDIR/NNN`` (``k`` as three digits), writes its output files there and
leaves ``argv``, ``exit``, ``stdout`` and ``stderr`` beside them; the
``random`` calls write the input matrices ``OUTDIR/u<n>_<seed>.json``, and
the split and matrix documents are written first, as
``OUTDIR/split_<name>.json`` and ``OUTDIR/<name>.json``.  Running this in two
checkouts and comparing the trees with ``diff -r`` checks that a change
keeps the CLI output byte-identical.  Set ``OPENBLAS_NUM_THREADS=1`` for
both runs.

``--manifest PATH`` also writes one SHA-256 per file of the tree to PATH, a
line ``<hex>  <path relative to OUTDIR>`` each in path order (the format of
``sha256sum``), after a ``#`` line naming the NumPy and SciPy versions, the
machine and NumPy's CPU dispatch targets, on which the last bits of the
floats depend; without OUTDIR the tree goes to a temporary directory.
``tests/data/cli_corpus.sha256`` is that manifest for the current CLI
contract, and ``tests/test_cli_corpus.py`` holds every run to it; a change
to the contract regenerates it with

    OPENBLAS_NUM_THREADS=1 python tools/cli_corpus.py --manifest tests/data/cli_corpus.sha256
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # noqa: E402

from cartancost.cli import main  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
SPLITS = [("single_x", 1), ("two_local", 2)] + [("ai", n) for n in range(1, 5)]


def _strings(n: int) -> list[str]:
    """The non-identity Pauli strings on n qubits, in product order of IXYZ."""
    return ["".join(s) for s in itertools.product("IXYZ", repeat=n)][1:]


_H = 1.0 / math.sqrt(2.0)
TWO_LOCAL = {
    "l": ["IX", "IY", "IZ", "XI", "YI", "ZI"],
    "p": ["XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ"],
    "z": ["XX", "YY", "ZZ"],
}
# the magic basis, the two_local adapted frame
MAGIC = {
    "dim": 4,
    "re": [[_H, 0.0, 0.0, 0.0], [0.0, 0.0, _H, 0.0], [0.0, 0.0, -_H, 0.0], [_H, 0.0, 0.0, 0.0]],
    "im": [[0.0, -_H, 0.0, 0.0], [0.0, 0.0, 0.0, -_H], [0.0, 0.0, 0.0, -_H], [0.0, _H, 0.0, 0.0]],
}
# (name, document, qubit count)
SPLIT_DOCS = [
    ("two_local_q", {**TWO_LOCAL, "Q": MAGIC}, 2),
    # the odd-Y so(8) split with the identity frame, so no "Q"
    ("ai3", {"l": [s for s in _strings(3) if s.count("Y") % 2],
             "p": [s for s in _strings(3) if s.count("Y") % 2 == 0],
             "z": [s for s in _strings(3) if set(s) <= {"I", "Z"}]}, 3),
    # the inner involution T = ZI: type AIII, refused by cost and decompose
    ("aiii", {"l": [s for s in _strings(2) if s[0] in "IZ"],
              "p": [s for s in _strings(2) if s[0] not in "IZ"], "z": ["XI", "XZ"]}, 2),
    # two_local with IX and XX swapped: no involution splits these lists
    ("swapped", {**TWO_LOCAL, "l": ["XX", *TWO_LOCAL["l"][1:]],
                 "p": ["IX", *TWO_LOCAL["p"][1:]], "Q": MAGIC}, 2),
    # two_local lists with the identity frame, which is not adapted to them
    ("two_local_no_q", TWO_LOCAL, 2),
]


def near_swap(delta: float, rng) -> dict:
    """SWAP exp(i delta H), H a traceless Hermitian matrix of unit Frobenius
    norm, as a matrix document."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / 4 * np.eye(4)
    h /= np.linalg.norm(h)
    w, v = np.linalg.eigh(h)
    u = np.eye(4)[[0, 2, 1, 3]] @ (v * np.exp(1j * delta * w)) @ v.conj().T
    return {"dim": 4, "re": u.real.tolist(), "im": u.imag.tolist()}


def _magic_diag(phases) -> dict:
    """Q diag(e^{i phases}) Q^+, Q the magic basis, as a matrix document."""
    q = np.array(MAGIC["re"]) + 1j * np.array(MAGIC["im"])
    u = (q * np.exp(1j * phases)) @ q.conj().T
    return {"dim": 4, "re": u.real.tolist(), "im": u.imag.tolist()}


SWAP = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
# (name, document, commands): inputs that no random call writes
MATRIX_DOCS = [
    # inside the near-degenerate window, where kak_decompose exits 4
    ("near_swap", near_swap(3e-8, np.random.default_rng(2024)), ("decompose", "cost")),
    ("ragged", {"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
     ("decompose",)),
    # e^{i pi/4} SWAP = expm(i pi/4 (XX+YY+ZZ)): its eigenphases tie two lattice points
    ("swap", {"dim": 4, "re": [[_H * v for v in row] for row in SWAP],
              "im": [[_H * v for v in row] for row in SWAP]}, ("cost",)),
    # Q diag(e^{i pi (0.4, 0.3, 0.2, 1.1)}) Q^+: the largest halved phase takes the pi-move
    ("odd_sum", _magic_diag(np.pi * np.array([0.4, 0.3, 0.2, 1.1])), ("decompose", "cost")),
]


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
    for name, _, n in SPLIT_DOCS:
        for seed in SEEDS[:2]:
            yield ["cost", f"../u{n}_{seed}.json", "--split-file", f"../split_{name}.json"]
            yield ["decompose", f"../u{n}_{seed}.json", "--split-file", f"../split_{name}.json"]
        yield ["verify-split", "--split-file", f"../split_{name}.json"]
    for name, _, commands in MATRIX_DOCS:
        for command in commands:
            yield [command, f"../{name}.json", "--split", "two_local"]


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
    for name, doc, _ in SPLIT_DOCS:
        (outdir / f"split_{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, doc, _ in MATRIX_DOCS:
        (outdir / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
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


def platform_line() -> str:
    """The manifest's first line: what the output depends on besides the code."""
    simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    return f"# numpy {np.__version__}, scipy {scipy.__version__}, {platform.machine()}, {simd}\n"


def manifest(outdir: Path) -> str:
    """The platform line, then one ``<sha256>  <relative path>`` line per file
    under ``outdir``, in path order."""
    files = sorted((p.relative_to(outdir).as_posix(), p) for p in outdir.rglob("*") if p.is_file())
    return platform_line() + "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {rel}\n" for rel, p in files)


def main_cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", type=Path, help="where the corpus tree goes")
    parser.add_argument("--manifest", type=Path, help="also write the SHA-256 of every file here")
    args = parser.parse_args()
    if args.outdir is None and args.manifest is None:
        parser.error("give OUTDIR, --manifest PATH or both")
    manifest_path = args.manifest.resolve() if args.manifest else None
    with tempfile.TemporaryDirectory() as scratch:
        outdir = (args.outdir or Path(scratch)).resolve()
        count = write_corpus(outdir)
        if manifest_path:
            manifest_path.write_text(manifest(outdir))
    print(f"{count} calls")


if __name__ == "__main__":
    main_cli()
