"""Static audit: every guard and refusal under ``src/`` is tripped by a test.

A guard is a ``raise ArithmeticError(...)``: the library refusing a
result whose own check failed.  Deleting one leaves every other test
green unless some test corrupts the step before it and expects its
message, so each message must be matched by a ``match=`` regex in a
file under ``tests/`` (an f-string regex by its text up to the first field).  The same holds for the ``ValueError``
preconditions, and for the ``CliError`` refusals, which a test may also
match by asserting the one-line JSON error the CLI prints.

A message is a run of literal parts and f-string fields.  A ``match=``
regex matches it when it matches the message's literal start (its text
up to the first field), or when its text, escapes undone, reads as the
message with its fields filled in, up to the field run before one of the
literal parts, or whole.  A ``CliError`` also counts as matched when a
string literal in the CLI tests reads so: the text of an asserted error.
"""

import ast
import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Parts = tuple  # literal text (str) and fields (None), in order


def raises(exc_name: str) -> list[tuple[Path, ast.Raise]]:
    """(source file, node) of each ``raise exc_name(...)`` under ``src/``, in line order."""
    out = []
    for path in sorted((ROOT / "src" / "eulerian_bounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == exc_name:
                out.append((path, node))
    return sorted(out, key=lambda site: (site[0], site[1].lineno))


def raise_sites(exc_name: str) -> dict[str, Parts]:
    """``file:line`` -> the message parts of each ``raise exc_name(...)``."""
    return {f"{path.name}:{node.lineno}": parts_of(node.exc.args[0])
            for path, node in raises(exc_name)}


def parts_of(node: ast.expr) -> Parts:
    """The literal parts and fields of a string or f-string node."""
    values = node.values if isinstance(node, ast.JoinedStr) else [node]
    return tuple(v.value if isinstance(v, ast.Constant) else None for v in values)


def reads_as(text: str, parts: Parts) -> bool:
    """Whether ``text`` is the message with its fields filled in, cut just
    before a literal part other than the first, or whole."""
    first = next(k for k, part in enumerate(parts) if part is not None)
    cuts = [k for k, part in enumerate(parts) if part is not None and k > first]
    for cut in cuts + [len(parts)]:
        regex = "".join(".*" if part is None else re.escape(part) for part in parts[:cut])
        if re.fullmatch(regex, text, re.S):
            return True
    return False


def literal_start(parts: Parts) -> str:
    return "".join(itertools.takewhile(lambda part: part is not None, parts))


MATCH = re.compile(r"""\bmatch=((?:rf|fr|r|f)?"(?:[^"\\\n]|\\.)*"|(?:rf|fr|r|f)?'(?:[^'\\\n]|\\.)*')""")


def read_patterns(source: str) -> set[str]:
    """The ``match=`` string literals of a source text, an f-string's by
    its literal text up to the first field; one with none matches anything,
    so it vouches for no message and is left out."""
    starts = (literal_start(parts_of(ast.parse(literal, mode="eval").body))
              for literal in MATCH.findall(source))
    return {start for start in starts if start}


def match_patterns() -> set[str]:
    """Every literal ``match=`` pattern under ``tests/``, read off the
    source text (parsing every test file would cost several times more)."""
    return set().union(*(read_patterns(path.read_text())
                         for path in (ROOT / "tests").rglob("*.py")))


def cli_literals() -> set[str]:
    """Every string literal of the CLI tests, where errors are asserted."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unmatched(sites: dict[str, Parts], patterns: set[str], texts: set[str] = frozenset()):
    """The sites no ``match=`` pattern and no asserted text matches."""
    return {
        site: parts for site, parts in sites.items()
        if not any(re.match(p, literal_start(parts))
                   or reads_as(re.sub(r"\\(.)", r"\1", p), parts) for p in patterns)
        and not any(reads_as(text, parts) for text in texts)
    }


def test_every_arithmetic_guard_is_matched_by_a_test():
    sites = raise_sites("ArithmeticError")
    assert len(sites) >= 9 and all(map(literal_start, sites.values()))
    assert unmatched(sites, match_patterns()) == {}


def test_every_value_error_is_matched_by_a_test():
    sites = raise_sites("ValueError")
    assert len(sites) >= 30 and all(map(literal_start, sites.values()))
    assert unmatched(sites, match_patterns()) == {}


def test_every_cli_error_is_asserted_by_a_test():
    # argparse's own messages pass through one site with no literal text;
    # the malformed-argv property in test_cli.py checks those.
    sites = raise_sites("CliError")
    passthrough = [site for site, parts in sites.items() if parts == (None,)]
    assert len(passthrough) == 1 and len(sites) >= 15
    del sites[passthrough[0]]
    assert unmatched(sites, match_patterns(), cli_literals()) == {}


def test_reads_as_anchors_the_message():
    parts = ("empty range: n-min ", None, " > n-max ", None)
    assert reads_as("empty range: n-min 5 > n-max 3", parts)
    assert reads_as("empty range: n-min 5", parts)
    assert not reads_as("empty range", parts)
    assert not reads_as("an empty range: n-min 5 > n-max 3", parts)
    cap = (None, None, " exceeds the ", None, "desk-scale cap ", None, None, "; pass")
    assert reads_as("n=21 exceeds the desk-scale cap 20", cap)
    assert not reads_as("n=21 exceeds", cap)


def test_read_patterns_takes_f_strings_up_to_the_first_field():
    source = r"""
        pytest.raises(ValueError, match="plain")
        pytest.raises(ValueError, match=r'raw \(1\)')
        pytest.raises(ValueError, match=f"index-min {lo} > index-max {hi}")
        pytest.raises(ValueError, match=rf"un\({n}\) endpoint")
        pytest.raises(ValueError, match=f'{n} has no literal start')
    """
    assert read_patterns(source) == {"plain", r"raw \(1\)", "index-min ", r"un\("}
