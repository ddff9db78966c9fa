"""Command-line front door.

Commands: ``decompose``, ``cost``, ``verify-split``, ``verify-metric``,
``sweep``, ``random``.  Matrices travel as JSON (see serialize); ``-`` means
stdin/stdout.  Exit codes are a stable contract: 0 success / all checks
pass, 1 verification failure, 2 parse error, 3 precondition violation,
4 numerical failure, 5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .control import epsilon_sweep
from .cost import optimal_cost
from .errors import ConvergenceFailure, NumericalFailure, PreconditionError
from .kak import kak_decompose, reconstruct
from .linalg import frobenius_distance, haar_random_special_unitary
from .metric import PenaltyMetric, pullback_gram, verify_gram_structure
from .pauli import (
    CartanSplit,
    Hamiltonian,
    builtin_split,
    random_hamiltonian,
    verify_cartan_split,
)
from .serialize import (
    ParseError,
    cost_report_to_json,
    dumps_canonical,
    factors_to_json,
    gram_to_json,
    matrix_from_json,
    matrix_to_json,
    split_from_json,
    sweep_to_csv,
    sweep_to_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_NONCONVERGENCE = 5

# the exit code of each error that main reports as one "error:" line
_ERROR_EXITS = {ParseError: EXIT_PARSE, PreconditionError: EXIT_PRECONDITION,
                NumericalFailure: EXIT_NUMERICAL, ConvergenceFailure: EXIT_NONCONVERGENCE}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON in {path}: {err}") from err


def _resolve_split(args, dim: int | None = None) -> CartanSplit:
    if args.split_file:
        if getattr(args, "n", None) is not None:
            raise ParseError("--n cannot be combined with --split-file")
        split = split_from_json(_load_json(args.split_file))
    else:
        kind = args.split or "two_local"
        if dim is not None:
            n = int(round(np.log2(dim)))
            if 2**n != dim:
                raise PreconditionError(f"matrix dimension {dim} is not a power of two")
        else:
            n = args.n if args.n is not None else {"single_x": 1, "two_local": 2}.get(kind, 2)
        split = builtin_split(n, kind)
    if dim is not None and 2**split.n != dim:
        raise PreconditionError(
            f"split acts on dimension {2**split.n}, matrix has dimension {dim}"
        )
    return split


# -- commands ------------------------------------------------------------------

def cmd_random(args) -> int:
    if not 1 <= args.n <= 4:
        raise PreconditionError(f"--n must lie in 1..4, got {args.n}")
    u = haar_random_special_unitary(2**args.n, args.seed)
    _write_text(args.output, dumps_canonical(matrix_to_json(u)))
    return EXIT_OK


def cmd_decompose(args) -> int:
    u = matrix_from_json(_load_json(args.input))
    split = _resolve_split(args, dim=u.shape[0])
    factors = kak_decompose(u, split)
    residual = frobenius_distance(reconstruct(factors), u)
    _write_text(args.output, dumps_canonical(factors_to_json(factors, residual)))
    return EXIT_OK


def cmd_cost(args) -> int:
    u = matrix_from_json(_load_json(args.input))
    split = _resolve_split(args, dim=u.shape[0])
    if args.convention == "paper-halved" and split.n != 1:
        raise PreconditionError("the paper-halved convention applies to single-qubit inputs only")
    report = optimal_cost(u, split)
    _write_text(args.output, dumps_canonical(cost_report_to_json(report, args.convention)))
    return EXIT_OK


def cmd_verify_split(args) -> int:
    split = _resolve_split(args)
    report = verify_cartan_split(split)
    theta = "none" if split.theta is None else (
        f"{'inner' if split.theta[1] else 'outer'} T = {split.theta[0]}, type {split.type}")
    lines = [
        f"[l,l] closure        {'PASS' if report.ll_ok else 'FAIL'}",
        f"[p,l] containment    {'PASS' if report.pl_ok else 'FAIL'}",
        f"[p,l] spans p        {'PASS' if report.pl_spans else 'FAIL (informational)'}",
        f"[p,p] closure        {'PASS' if report.pp_ok else 'FAIL'}",
        f"orthogonal partition {'PASS' if report.orthogonal_ok else 'FAIL'}",
        f"involution           {theta}",
    ]
    ok = report.all_ok
    if ok:
        maximal, adapted = split.z_maximal, split.adapted
        lines.append(f"z maximal abelian    {'PASS' if maximal else 'FAIL'}")
        lines.append(
            f"adapted frame        {'PASS' if adapted.ok else 'FAIL'}"
            f"  (im {adapted.realness:.2e}, orth {adapted.orthogonality:.2e},"
            f" diag {adapted.diagonality:.2e})"
        )
        ok = ok and maximal and adapted.ok
    else:
        lines.append("z/adapted checks     SKIPPED (closure failed)")
    for label, s, t, r in report.violations:
        lines.append(f"  violation {label}: [{s}, {t}] -> {r}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify_metric(args) -> int:
    if args.samples < 1:
        raise PreconditionError("--samples must be at least 1")
    split = _resolve_split(args)
    metric = PenaltyMetric(split, args.epsilon)
    rng = np.random.default_rng(args.seed)
    lines = []
    gram_docs = []
    ok = True
    for i in range(args.samples):
        l = random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.2, 1.0))
        m = random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.2, 1.0))
        if i == 0:
            z = Hamiltonian(split.n)  # zero central leg exercises the last-block check
        else:
            z = random_hamiltonian(split.n, split.z_basis, rng, norm=rng.uniform(0.2, 1.0))
        gram = pullback_gram((l, z, m), metric, fd_step=args.fd_step)
        rep = verify_gram_structure(gram, metric)
        gram_docs.append(gram_to_json(gram, rep))
        good = rep.all_ok and not gram.step_degenerate
        ok = ok and good
        lines.append(
            f"base {i}: {'PASS' if good else 'FAIL'}"
            f"  offdiag {rep.offdiag_max:.2e}"
            f"  center-i {rep.center_max_dev:.2e}"
            f"  first-rel {rep.first_block_rel_dev:.2e}"
            f"  last-eigs [{rep.last_block_eigs[0]:.3e}, {rep.last_block_eigs[1]:.3e}]"
        )
    lines.append(f"metric structure     {'PASS' if ok else 'FAIL'}")
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.json_out:
        _write_text(args.json_out, dumps_canonical({"epsilon": args.epsilon, "grams": gram_docs}))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    u = matrix_from_json(_load_json(args.input))
    split = _resolve_split(args, dim=u.shape[0])
    if u.shape[0] > 4:
        raise PreconditionError("sweeps are supported for dimensions 2 and 4 only")
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError as err:
        raise ParseError(f"--epsilons: {err}") from err
    result = epsilon_sweep(
        u,
        split,
        epsilons,
        segments=args.segments,
        restarts=args.restarts,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    _write_text(args.output, dumps_canonical(sweep_to_json(result)))
    if args.csv:
        _write_text(args.csv, sweep_to_csv(result))
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls:
    ``parse_args`` fills a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="cartancost",
        description="Optimal synthesis costs for Cartan control problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_split_options(p, with_n=True):
        kind = p.add_mutually_exclusive_group()
        kind.add_argument("--split", choices=["single_x", "two_local", "ai"],
                          default=None, help="built-in split kind (default two_local)")
        kind.add_argument("--split-file", default=None,
                          help="JSON split document, in place of --split")
        if with_n:
            p.add_argument("--n", type=int, default=None,
                           help="qubit count (ai split; not with --split-file)")

    def add_io(p):
        p.add_argument("input", nargs="?", default="-",
                       help="matrix JSON path, or - for stdin")
        p.add_argument("-o", "--output", default="-", help="output path (- = stdout)")

    p = sub.add_parser("random", help="emit a Haar-random special unitary")
    p.add_argument("--n", type=int, default=2, help="qubit count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("decompose", help="KAK-decompose a unitary")
    add_io(p)
    add_split_options(p, with_n=False)

    p = sub.add_parser("cost", help="optimal synthesis cost of a unitary")
    add_io(p)
    add_split_options(p, with_n=False)
    p.add_argument("--convention", choices=["standard-pauli", "paper-halved"],
                   default="standard-pauli",
                   help="single-qubit parameter reading to report")

    p = sub.add_parser("verify-split", help="check the Cartan-split axioms")
    add_split_options(p)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("verify-metric", help="check the coordinate-metric block structure")
    add_split_options(p)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--fd-step", type=float, default=1e-4, dest="fd_step")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None, dest="json_out",
                   help="also write the measured Gram blocks as JSON here")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("sweep", help="penalty-weight sweep of the control oracle")
    add_io(p)
    add_split_options(p, with_n=False)
    p.add_argument("--epsilons", default="1e-1,1e-2,1e-3",
                   help="descending comma-separated weights")
    p.add_argument("--segments", type=int, default=3)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-iter", type=int, default=2000, dest="max_iter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write a CSV table here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the shared parser, so the module's
    # current cmd_* function runs even if it was rebound after the first call
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except tuple(_ERROR_EXITS) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
