"""The line count that ``tools/lines.py`` prints for ROADMAP.md."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "lines", Path(__file__).resolve().parent.parent / "tools" / "lines.py"
)
lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lines)


def test_counts_code_lines_without_docstrings_comments_or_blank_lines():
    snippet = '''"""A module docstring,
on two lines."""

# a comment
import os  # counts once


def f(x):
    """A function docstring."""
    return (x +
            1)
'''
    # import, def and the two lines of the return statement
    assert lines.count(snippet) == 4
