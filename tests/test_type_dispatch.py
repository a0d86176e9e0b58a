"""Guards on type dispatch and attribute probing in the package.

Domains and their constraint pieces answer every geometric question through
one protocol, so no library module asks a value for its type.  Majorants and
moduli have one type each, so no library module asks a value whether it has
an attribute either.  The CLI is the one exception: it checks the types of
config values, and its one report rule looks its operation up by name when a
command runs.  The source is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"


def calls_outside_the_cli(*names: str) -> list[str]:
    """Each call of a builtin in ``names`` in a library module but ``cli.py``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_isinstance_outside_the_cli():
    assert calls_outside_the_cli("isinstance") == []


def test_no_attribute_probing_outside_the_cli():
    assert calls_outside_the_cli("getattr", "hasattr") == []


def test_the_cli_probes_attributes_only_in_its_report_rule():
    """One ``getattr`` call: the report rule's late lookup of its operation."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    probes = lambda root: [
        node.func.id for node in ast.walk(root)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr")
    ]
    (report,) = [node for node in tree.body if getattr(node, "name", None) == "_report"]
    assert probes(tree) == probes(report) == ["getattr"]
