"""``tools/line_counts.py``: its four kinds partition every module's lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "geodisc").glob("*.py")),
                         ids=lambda path: path.name)
def test_the_four_counts_sum_to_the_line_count(path):
    counts = line_counts.counts(path)
    assert set(counts) == set(line_counts.KINDS)
    assert sum(counts.values()) == len(path.read_text().splitlines())


def test_each_line_gets_its_kind():
    source = '''"""Module.

text
"""

# a comment
x = 1  # code with a comment

TEXT = """a

string"""


def f():
    """One line."""
    return x
'''
    assert line_counts.line_kinds(source) == [
        "docstring", "docstring", "docstring", "docstring", "blank",
        "comment", "code", "blank",
        "code", "code", "code", "blank", "blank",
        "code", "docstring", "code",
    ]
