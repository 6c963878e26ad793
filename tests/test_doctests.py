"""Run the doctests embedded in the library modules and the README."""

import doctest
from pathlib import Path

import surfword.invariants
import surfword.normalform
import surfword.rewrite
import surfword.words


def test_module_doctests():
    for module in (
        surfword.words,
        surfword.rewrite,
        surfword.normalform,
        surfword.invariants,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
