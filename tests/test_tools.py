"""tools/code_lines.py, which counts the code, docstring, comment and blank
lines of algaeid's modules."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring."""

import os  # a comment after code


class Shape:
    """Class docstring,

    with a blank line."""

    def area(self):
        """Function docstring."""
        # a comment
        text = """a multi-line
string"""
        return text
'''

KINDS = ["docstring", "blank", "code", "blank", "blank", "code", "docstring", "docstring",
         "docstring", "blank", "code", "docstring", "comment", "code", "code", "code"]


@pytest.fixture
def code_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import code_lines
    return code_lines


def test_line_kinds_of_each_kind_of_line(code_lines):
    assert code_lines.line_kinds(SOURCE) == KINDS


def test_counts_sum_to_each_module_lines(code_lines):
    paths = sorted((ROOT / "src" / "algaeid").glob("*.py"))
    counts = code_lines.count(paths)
    assert len(counts) == len(paths) + 1
    for path in paths:
        lines = len(path.read_text(encoding="utf-8").splitlines())
        assert sum(counts[str(path)].values()) == lines, path.name
    assert counts["total"] == {k: sum(counts[str(p)][k] for p in paths)
                               for k in code_lines.KINDS}
