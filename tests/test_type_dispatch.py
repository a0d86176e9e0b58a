"""Guard on type dispatch in the package.

Domains and their constraint pieces answer every geometric question through
one protocol, so no library module asks a value for its type.  The CLI,
which checks the types of config values, is the one exception.  The source
is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"


def isinstance_calls() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_isinstance_outside_the_cli():
    assert isinstance_calls() == []
