"""Guard against one package module using another's private names.

A private name is a module's own business; another module that imports it,
or reads it off the module as an attribute, ties itself to that module's
insides.  No package module does: a rule two modules share has a public
owner (``RestBoundReport.of`` for the flatness bound, ``disc_analysis.grid_lag``
for the delta-to-lag rule), so a new borrowing fails here.  The source is
parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"

# importer -> owner.name of each private name one package module takes from another
BORROWED = []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def borrowed_private_names() -> list[str]:
    """Each private name a package module imports from, or reads off,
    another package module, as "importer -> owner.name"."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        importer = path.stem
        aliases = {}  # local name -> package module it is bound to
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                if node.module is None:  # from . import module [as name]
                    aliases[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.add(f"{importer} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _is_private(node.attr)):
                found.add(f"{importer} -> {aliases[node.value.id]}.{node.attr}")
    return sorted(found)


def test_borrowed_private_names_are_the_listed_ones():
    assert borrowed_private_names() == BORROWED


def test_the_guard_sees_both_kinds_of_borrowing(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("from .b import _x, y\nfrom . import b as bee\nbee._z\nbee.w\n")
    (tmp_path / "b.py").write_text("import os\nos._exit\n")
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert borrowed_private_names() == ["a -> b._x", "a -> b._z"]
