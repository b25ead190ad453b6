"""Static audit: every certificate guard under ``src/`` is tripped by a test.

A guard is a ``raise ArithmeticError(...)``: the library refusing a
result whose own check failed.  Deleting one leaves every other test
green unless some test corrupts the step before it and expects its
message, so each message must be matched by a ``match=`` regex in a
file under ``tests/``.  The regex must start where the message does: it
matches the message's literal start (its text up to the first f-string
field), or its text, escapes undone, begins with that start and goes on,
as a regex with the fields' values written in does.
"""

import ast
import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def guard_starts() -> dict[str, str]:
    """``file:line`` -> literal start of each ``raise ArithmeticError(...)``."""
    out = {}
    for path in sorted((ROOT / "src" / "eulerian_bounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ArithmeticError"):
                continue
            arg = exc.args[0]
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            start = itertools.takewhile(lambda p: isinstance(p, ast.Constant), parts)
            out[f"{path.name}:{node.lineno}"] = "".join(p.value for p in start)
    return out


MATCH = re.compile(r"""\bmatch=(r?"(?:[^"\\\n]|\\.)*"|r?'(?:[^'\\\n]|\\.)*')""")


def match_patterns() -> set[str]:
    """Every literal ``match=`` string under ``tests/``, read off the
    source text (parsing every test file would cost several times more)."""
    return {
        ast.literal_eval(literal)
        for path in (ROOT / "tests").rglob("*.py")
        for literal in MATCH.findall(path.read_text())
    }


def test_every_arithmetic_guard_is_matched_by_a_test():
    starts = guard_starts()
    patterns = match_patterns()
    assert len(starts) >= 9 and all(starts.values())
    unmatched = {
        site: start for site, start in starts.items()
        if not any(re.match(p, start) or re.sub(r"\\(.)", r"\1", p).startswith(start)
                   for p in patterns)
    }
    assert unmatched == {}
