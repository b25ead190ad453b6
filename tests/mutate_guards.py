"""Mutation pass over the certificate guards (opt-in; pytest does not
collect this file).

Each ``raise ArithmeticError(...)`` under ``src/`` is a guard: the
library refusing a result whose own check failed.  For each one in turn,
a temporary copy of the repository gets ``pass`` in its place and the
tier-1 suite runs there, stopping at the first failure.  A guard whose
deletion leaves every test passing survives: no test would notice it
gone.  Run from anywhere, with extra pytest arguments if wanted:

    python tests/mutate_guards.py [PYTEST_ARG ...]

It prints one line per guard, killed or SURVIVED, and exits 1 if any
survives.  A full pass costs one tier-1 run per guard, which is why it is
not part of tier-1.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_guards import ROOT, raises

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def without(text: str, node: ast.Raise) -> str:
    """``text`` with the statement ``node`` replaced by ``pass``."""
    lines = text.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    # Offsets are in UTF-8 bytes; the source under src/ is ASCII.
    head, tail = lines[first][: node.col_offset], lines[last][node.end_col_offset:]
    return "".join(lines[:first] + [head + "pass" + tail] + lines[last + 1:])


def main(pytest_args: list[str]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *pytest_args]
    env = dict(os.environ, PYTHONPATH="src")
    guards, survivors = raises("ArithmeticError"), 0
    with tempfile.TemporaryDirectory(prefix="mutate-guards-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        for path, node in guards:
            rel = path.relative_to(ROOT)
            original = (copy / rel).read_text()
            (copy / rel).write_text(without(original, node))
            try:
                run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
            finally:
                (copy / rel).write_text(original)
            message = ast.unparse(node.exc.args[0]) if node.exc.args else ""
            verdict = {0: "SURVIVED", 1: "killed"}.get(run.returncode, f"error (pytest exit {run.returncode})")
            survivors += run.returncode != 1
            print(f"{verdict:9} {rel}:{node.lineno} {message}", flush=True)
    print(f"{survivors} of {len(guards)} guards not killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
