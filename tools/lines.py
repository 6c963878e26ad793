"""Count the lines of code in Python source, as ROADMAP.md counts them.

    python3 tools/lines.py PATH [PATH ...]

A line counts when it holds a token other than a comment, a newline, an
indent, a dedent or the end marker, and is not part of a docstring (the
first statement of a module, class or function, when it is a string).
Prints the count of each ``.py`` file under each PATH, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> int:
    """The lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    files = [p for arg in sys.argv[1:] for p in sorted(Path(arg).rglob("*.py")) or [Path(arg)]]
    counts = {path: count(path.read_text(encoding="utf-8")) for path in files}
    for path, n in counts.items():
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
