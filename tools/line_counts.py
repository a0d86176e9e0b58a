"""Count the package's lines by kind, the way a change's size is judged.

    python3 tools/line_counts.py TREE

TREE is a checkout with its package under ``src/geodisc``.  For each module
it prints its code, docstring, comment and blank lines, and their sum, the
module's line count; a last row sums the modules.  The four kinds partition
the lines:

- docstring: a line of a module, class or function docstring (``ast``),
  a blank line inside one included;
- code: any other line that holds part of a token (``tokenize``), a line
  with code and a trailing comment, or within a multi-line string, included;
- comment: a line whose only token is a comment;
- blank: a line with no token.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that hold no source text of their own
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def line_kinds(source: str) -> list[str]:
    """The kind of each line of ``source``, in order."""
    kinds = ["blank"] * len(source.splitlines())
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and kinds[token.start[0] - 1] == "blank":
            kinds[token.start[0] - 1] = "comment"
        elif token.type not in _LAYOUT and token.type != tokenize.COMMENT:
            for line in range(token.start[0], token.end[0] + 1):
                kinds[line - 1] = "code"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                for line in range(first.lineno, first.end_lineno + 1):
                    kinds[line - 1] = "docstring"
    return kinds


def counts(path: Path) -> dict[str, int]:
    kinds = line_kinds(path.read_text())
    return {kind: kinds.count(kind) for kind in KINDS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/line_counts.py TREE", file=sys.stderr)
        return 1
    package = Path(argv[0]) / "src" / "geodisc"
    rows = {path.name: counts(path) for path in sorted(package.glob("*.py"))}
    if not rows:
        print(f"no modules under {package}", file=sys.stderr)
        return 1
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<20}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for name, row in rows.items():
        print(f"{name:<20}" + "".join(f"{row[kind]:>10}" for kind in KINDS)
              + f"{sum(row.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
