"""Guard on the private names one package module takes from another.

A private name is a module's own business; another module that imports it,
or reads it off the module as an attribute, ties itself to that module's
insides.  Each such use is listed here, so a new one is a decision made in
the open.  The source is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"

# importer -> owner.name: the pipeline's stage (ii) reuses the checked ray and
# the rest bound at a known zone depth, and the probe judges the deltas its
# grid resolves by the modulus sweep's own lag rule
BORROWED = [
    "kobayashi -> convex_geometry._check_ray",
    "kobayashi -> convex_geometry._rest_bound",
    "kobayashi -> disc_analysis._lag",
]


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
