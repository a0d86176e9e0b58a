"""Guard on the package's settable values.

A settable value is a parameter with a default, or a dataclass field with a
default that ``__init__`` accepts.  Each one is a knob a caller may turn, so
each must have a caller that sets it: a CLI key, a pipeline stage or a
documented library use.  The source is parsed, not imported; a new knob
means adding it to SETTABLE in the same change.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"

SETTABLE = {
    "cli:Opt.default",
    "cli:main.argv",
    "convex_geometry:x0_cap.scan_n",
    "convex_geometry:HalfspaceIntersection.interior_point",
    "convex_geometry:FlatModelDomain.dimension",
    "disc_analysis:UnitDiscFunction.derivative",
    "disc_analysis:scalar_function.df",
    "disc_analysis:vector_function.derivatives",
    "disc_analysis:BoundarySamples.cauchy_fraction",
    "disc_analysis:disc_automorphism.phi",
    "disc_analysis:log_dini_test.n_max",
    "hardy_littlewood:Majorant.log_form",
    "hardy_littlewood:MajorantReport.verified.slack",
    "kobayashi:GeodesicCandidate.construction",
    "kobayashi:boundary_extension_probe.n_theta",
    "kobayashi:boundary_extension_probe.tol_ext",
    "kobayashi:mercer_fit.theta",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_is_settable(value: ast.expr) -> bool:
    """A field's default makes it settable unless it is a ``field(...)``
    that has no default or is kept out of ``__init__``."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def _settable(node: ast.AST, module: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                yield f"{module}:{qualname}.{arg.arg}"
            yield from _settable(child, module, qualname + ".")
        elif isinstance(child, ast.ClassDef):
            qualname = prefix + child.name
            if _is_dataclass(child):
                for statement in child.body:
                    if (
                        isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and statement.value is not None
                        and _field_is_settable(statement.value)
                    ):
                        yield f"{module}:{qualname}.{statement.target.id}"
            yield from _settable(child, module, qualname + ".")


def settable_values() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _settable(ast.parse(path.read_text()), path.stem, "")
    return found


def test_settable_values_are_the_listed_ones():
    found = settable_values()
    assert len(found) == len(set(found))
    assert sorted(set(found) - SETTABLE) == [], "new settable values: list them"
    assert sorted(SETTABLE - set(found)) == [], "listed values that are gone"

