"""The CLI output of ``tools/cli_corpus.py`` is byte-identical to the committed manifest.

A change to the CLI contract regenerates ``tests/data/cli_corpus.sha256``
(see the tool's docstring) and records which calls moved, and why.  The last
bits of the floats depend on the NumPy and SciPy builds and on the CPU's SIMD
kernels, so the manifest holds on the platform its first line names; on
another the test is skipped with both platforms in the reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "cli_corpus.sha256"


def _hashes(text: str) -> tuple[str, dict[str, str]]:
    """The platform line, and relative path -> SHA-256 from the ``<hex>  <path>`` lines."""
    head, *lines = text.splitlines()
    return head, {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_cli_output_matches_manifest(tmp_path):
    tree, got = tmp_path / "corpus", tmp_path / "corpus.sha256"
    # the output is deterministic under one BLAS thread only
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(ROOT / "tools" / "cli_corpus.py"), str(tree),
                    "--manifest", str(got)], env=env, check=True, capture_output=True, timeout=300)
    (want_platform, want), (have_platform, have) = _hashes(MANIFEST.read_text()), _hashes(
        got.read_text())
    if have_platform != want_platform:
        pytest.skip(f"manifest written on '{want_platform}', this host is '{have_platform}'")
    moved = sorted(p for p in want.keys() | have.keys() if want.get(p) != have.get(p))
    # name each call by its argv; a file outside the call directories by its path
    calls: dict[str, list[str]] = {}
    for path in moved:
        argv = tree / path.split("/")[0] / "argv"
        label = argv.read_text().strip() if "/" in path and argv.is_file() else path
        calls.setdefault(label, []).append(path)
    assert not moved, "CLI output differs from tests/data/cli_corpus.sha256:\n" + "\n".join(
        f"  {label}: {', '.join(paths)}" for label, paths in calls.items())
