"""Batch front end.

Loads a JSON run configuration, reads it through one typed schema,
dispatches exactly one library operation, and writes a machine-readable
report (JSON or CSV).  Exit codes: 0 on success, 2 when a check command
reports a failing/divergent verdict, 1 on usage, configuration or execution
errors, a numpy floating-point fault included (``run`` raises it whatever
the warnings filter).  No numerics live here: every command is a thin
wrapper over public library operations, and every function kind names a
built-in map of ``disc_analysis``.

Fourteen commands make one library call and report its result through one
rule, ``_report``: it passes the config keys to the operation as keyword
arguments and writes what the command's ``payload`` makes of the result.
The rule looks the operation up on its module when the command runs, not
when this module is imported, so a wrapper installed on the module attribute
afterwards (the benchmark tracer patches them) still sees every call.  Three
handlers are written by hand: ``mod-cont`` and ``conjugate`` chain two
library calls, and ``pipeline`` checks that its two domains match.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import convex_geometry as cg
from . import disc_analysis as da
from . import hardy_littlewood as hl
from . import kobayashi as kb


class ConfigError(ValueError):
    pass


# --- config schema -----------------------------------------------------------
#
# A schema is a Scalar; a one-item list [item] for a list of items; a record
# {key: schema or Opt}, read into keyword arguments; or Kinds, a record picked
# by its "kind" key and built into a library object.  `parse` is the only
# reader of config values.


@dataclass(frozen=True)
class Scalar:
    """One JSON value: ``accepts`` tests its type, ``convert`` reads it and
    raises ValueError for a value out of range."""

    expected: str
    accepts: Callable[[object], bool]
    convert: Callable


@dataclass(frozen=True)
class Opt:
    """An optional record field.  When it is absent, ``default`` is passed;
    without a default nothing is, so the library's own default applies."""

    schema: object
    default: object = None


@dataclass(frozen=True)
class Kinds:
    """Specs told apart by their "kind": kind -> (builder, record); the
    builder takes the parsed record as keyword arguments."""

    name: str
    kinds: dict[str, tuple[Callable, dict]]


def _is_real(value) -> bool:
    """A finite JSON number: ``json`` also reads NaN and Infinity, and an
    integer too large for a double has no float value."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_complex(value) -> bool:
    if isinstance(value, (list, tuple)):
        return len(value) == 2 and _is_real(value[0]) and _is_real(value[1])
    return _is_real(value)


def _to_complex(value) -> complex:
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


NUMBER = Scalar("a finite number", _is_real, float)
COUNT = Scalar("an integer", _is_count, int)
BOOLEAN = Scalar("true or false", lambda v: isinstance(v, bool), bool)
TEXT = Scalar("a string", lambda v: isinstance(v, str), str)
FORMAT = Scalar("'json' or 'csv'", lambda v: v in ("json", "csv"), str)
COMPLEX = Scalar("a finite number or an [re, im] pair of them", _is_complex, _to_complex)
VECTOR = [COMPLEX]


# sizes of uniform grids on the circle
GRID = Scalar("an integer", _is_count, da.grid_size)
DYADIC_GRID = Scalar("an integer", _is_count, da.dyadic_grid_size)


def parse(schema, value, path: str):
    """``value`` checked against ``schema`` and converted.  The ConfigError
    for an unknown, missing or mistyped value, or one the library rejects,
    names its key path, e.g. ``domain.constraints[0].b``."""
    where = path or "config"
    if isinstance(schema, Scalar):
        if not schema.accepts(value):
            raise ConfigError(f"{where}: expected {schema.expected}, got {value!r}")
        try:
            return schema.convert(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(schema, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [parse(schema[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    prefix = f"{path}." if path else ""
    if isinstance(schema, Kinds):
        if "kind" not in value:
            raise ConfigError(f"{prefix}kind: missing key")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in schema.kinds:
            raise ConfigError(
                f"{prefix}kind: unknown {schema.name} kind {kind!r}, "
                f"expected one of {', '.join(schema.kinds)}"
            )
        build, record = schema.kinds[kind]
        args = parse(record, {k: v for k, v in value.items() if k != "kind"}, path)
        try:
            return build(**args)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    for key in value:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key")
    args = {}
    for key, field in schema.items():
        optional = isinstance(field, Opt)
        if key in value:
            args[key] = parse(field.schema if optional else field, value[key], prefix + key)
        elif not optional:
            raise ConfigError(f"{prefix}{key}: missing key")
        elif field.default is not None:
            args[key] = field.default
    return args


# --- spec kinds --------------------------------------------------------------

def _halfspace_intersection(constraints: list[dict], **options) -> cg.HalfspaceIntersection:
    pairs = tuple((c["a"], c["b"]) for c in constraints)
    return cg.HalfspaceIntersection(pairs, **options)


def _flat_model(C: float, alpha: float, R0: float, s0: float, **options) -> cg.FlatModelDomain:
    return cg.FlatModelDomain(cg.FlatSupport(C, alpha, R0, s0), **options)


FUNCTION = Kinds("function", {
    "identity": (da.identity_map, {}),
    "constant": (da.constant_map, {"values": VECTOR}),
    "automorphism": (da.disc_automorphism, {"a": COMPLEX, "phi": Opt(NUMBER)}),
    "monomial": (da.monomial_map, {"degree": COUNT, "coefficient": Opt(COMPLEX, 1 + 0j)}),
    "pair_identity_zero": (da.pair_identity_zero_map, {}),
    "nonextending": (da.nonextending_map, {}),
})
MAJORANT = Kinds("majorant", {
    "family": (hl.Majorant.family,
               {"K1": NUMBER, "K2": NUMBER, "alpha": NUMBER, "r0": NUMBER}),
    "power": (hl.Majorant.power,
              {"r0": NUMBER, "coefficient": Opt(NUMBER, 1.0), "exponent": Opt(NUMBER, 0.0)}),
})
MODULUS = Kinds("modulus", {
    "holder": (da.ModulusFamily.holder, {"a": NUMBER}),
    "log_reciprocal": (da.ModulusFamily.log_reciprocal, {}),
    "stretched_exponential": (da.ModulusFamily.stretched_exponential,
                              {"coeff": NUMBER, "eps": NUMBER}),
})
DOMAIN = Kinds("domain", {
    "polydisc": (cg.Polydisc, {"radii": [NUMBER]}),
    "ball": (cg.Ball, {"center": VECTOR, "radius": NUMBER}),
    "halfspace_intersection": (_halfspace_intersection, {
        "constraints": [{"a": VECTOR, "b": NUMBER}],
        "interior_point": Opt(VECTOR),
    }),
    "flat_model": (_flat_model, {
        "C": NUMBER, "alpha": NUMBER, "R0": NUMBER, "s0": NUMBER,
        "dimension": Opt(COUNT),
    }),
})
# for the operations defined only near a flat boundary point
FLAT_MODEL = Kinds("domain", {"flat_model": DOMAIN.kinds["flat_model"]})
CANDIDATE = Kinds("candidate", {
    "nonextending": (kb.nonextending_geodesic, {}),
    "flat_slice": (kb.flat_slice_candidate,
                   {"domain": FLAT_MODEL, "center": COMPLEX, "radius": NUMBER}),
    "map": (kb.GeodesicCandidate, {"map": FUNCTION, "domain": DOMAIN}),
})


def _profile_rows(profile: da.ModulusProfile) -> list[dict]:
    """One CSV row per delta of an empirical modulus profile."""
    return [{"delta": d, "omega": w} for d, w in zip(profile.deltas, profile.omegas)]


# --- command handlers: each returns (result_payload, csv_rows, verdict_ok) ---
#
# csv_rows is a function of no arguments that builds the CSV rows, so a JSON
# report builds none.  _report builds the handler of every command that makes
# one library call; it binds its operation late, as the module docstring
# explains.

def _report(module, name: str, payload, ok, rows):
    """The handler reporting ``result = module.name(**args)``: ``payload(result)``
    is the report; ``ok(result)`` is the verdict, or ``ok`` is None for a
    command without one; ``rows(result)`` builds the CSV rows, or ``rows`` is
    None and the payload is the one row."""
    def handler(**args):
        result = getattr(module, name)(**args)
        report = payload(result)
        csv_rows = (lambda: [report]) if rows is None else (lambda: rows(result))
        return report, csv_rows, None if ok is None else ok(result)

    return handler


def _cmd_mod_cont(function, n, deltas):
    samples = da.boundary_samples(function, n)
    profile = da.modulus_profile(samples, deltas)
    payload = {
        "deltas": profile.deltas.tolist(),
        "omegas": profile.omegas.tolist(),
        "cauchy_fraction": samples.cauchy_fraction,
    }
    return payload, lambda: _profile_rows(profile), None


def _cmd_conjugate(function, n, real_part):
    samples = da.boundary_samples(function, n)
    if real_part:
        samples = replace(samples, values=samples.values[:, 0].real.astype(complex))
    conjugated = da.conjugate_function(samples)
    values = conjugated.values[:, 0]
    payload = {"n": conjugated.n, "values": np.column_stack((values.real, values.imag)).tolist()}
    return payload, lambda: [
        {"theta": t, "re": v.real, "im": v.imag} for t, v in zip(conjugated.thetas, values)
    ], None


def _cmd_pipeline(domain, candidate):
    if candidate.domain != domain:
        raise ConfigError("candidate domain does not match the pipeline domain")
    report = kb.theorem_pipeline(candidate)
    payload = {"ok": report.ok, "stages": [asdict(s) for s in report.stages]}
    return payload, lambda: [
        {"stage": s.name, "status": s.status} for s in report.stages
    ], report.ok


_POINT_AND_DIRECTION = {"point": VECTOR, "direction": VECTOR}

# name -> (handler, record of the handler's keyword arguments)
COMMANDS: dict[str, tuple[Callable, dict]] = {
    "hl-verify": (_report(hl, "verify_majorant", lambda r: {
        "max_violation": r.max_violation, "worst_r": r.worst_r,
        "worst_theta": r.worst_theta, "verified": r.verified(),
    }, lambda r: r.verified(), None), {"function": FUNCTION, "majorant": MAJORANT}),
    "hl-bound": (_report(hl, "omega_bound", lambda v: {"omega_bound": v}, math.isfinite, None),
                 {"majorant": MAJORANT, "delta": NUMBER}),
    "hl-l1": (_report(hl, "phi_log_l1", lambda r: {
        "value": r.limit, "verdict": r.verdict,
        "refinement_levels": r.refinement_levels, "estimated_error": r.estimated_error,
    }, lambda r: r.converged, None), {"majorant": MAJORANT, "n": Opt(COUNT, 0)}),
    "mod-cont": (_cmd_mod_cont, {
        "function": FUNCTION, "n": Opt(GRID, 512), "deltas": [NUMBER],
    }),
    "conjugate": (_cmd_conjugate, {
        "function": FUNCTION, "n": Opt(DYADIC_GRID, 512), "real_part": Opt(BOOLEAN, False),
    }),
    "pz-bound": (_report(da, "pz_bound", lambda v: {
        "pz_bound": v if math.isfinite(v) else None, "finite": math.isfinite(v),
    }, math.isfinite, None), {"modulus": MODULUS, "delta": NUMBER, "K": Opt(NUMBER, 1.0)}),
    "log-dini": (_report(da, "log_dini_test", lambda r: {
        "log_dini": r.log_dini, "n_max": r.n_max, "verdicts": list(r.verdicts),
        "note": "finite surrogate: tested n <= n_max only",
    }, lambda r: r.log_dini, lambda r: [
        {"n": n, "verdict": res.verdict, "value": res.limit} for n, res in enumerate(r.results)
    ]), {"modulus": MODULUS, "n_max": Opt(COUNT)}),
    "domain-distance": (_report(cg, "boundary_distance", lambda v: {"distance": v}, None, None),
                        {"domain": DOMAIN, "point": VECTOR}),
    "domain-radius": (_report(cg, "inscribed_disc_radius", lambda v: {"radius": v}, None, None),
                      {"domain": DOMAIN, **_POINT_AND_DIRECTION}),
    "flat-x0": (_report(cg, "x0_cap", lambda v: {"x0": v}, None, None),
                {"C": NUMBER, "alpha": NUMBER}),
    "flat-rho": (_report(cg, "rho_triangle", lambda v: {"rho": v}, None, None),
                 {"d": NUMBER, "slope": NUMBER, "C": NUMBER, "alpha": NUMBER}),
    "rest-check": (_report(cg, "rest_bound_check", asdict, lambda r: r.satisfied, None),
                   {"domain": FLAT_MODEL, **_POINT_AND_DIRECTION}),
    "graham": (_report(cg, "graham_bounds", asdict, None, None),
               {"domain": DOMAIN, **_POINT_AND_DIRECTION}),
    "geodesic-defect": (_report(kb, "geodesic_defect", lambda v: {"defect": v}, None, None), {
        "candidate": CANDIDATE, "zeta1": COMPLEX, "zeta2": COMPLEX,
    }),
    "geodesic-probe": (_report(kb, "boundary_extension_probe", lambda r: {
        "verdict": r.verdict, "omega_min": r.omega_min, "cauchy_fraction": r.cauchy_fraction,
    }, lambda r: r.verdict != "fails", lambda r: _profile_rows(r.profile)),
                       {"candidate": CANDIDATE, "n_theta": Opt(GRID)}),
    "mercer-fit": (_report(kb, "mercer_fit", asdict, None, None),
                   {"candidate": CANDIDATE, "theta": Opt(NUMBER)}),
    "pipeline": (_cmd_pipeline, {"domain": FLAT_MODEL, "candidate": CANDIDATE}),
}

_GLOBAL_FIELDS = {"format": Opt(FORMAT, "json"), "out": Opt(TEXT)}


def parse_config(command: str, cfg: dict) -> dict:
    """The keyword arguments of ``command``'s handler, plus the global
    ``format`` and ``out``, read from ``cfg``."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    return parse({**COMMANDS[command][1], **_GLOBAL_FIELDS}, cfg, "")


def _json_scalar(value):
    """``json.dumps``'s hook for what it cannot write: a numpy scalar as the
    Python value it holds (np.float64 is a float, and written as one)."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_floats(text: str) -> str:
    """``text`` of float reprs with json's tokens for the non-finite ones (no
    finite repr holds an "n")."""
    return text.replace("inf", "Infinity").replace("nan", "NaN") if "n" in text else text


def _to_json(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=_json_scalar)``'s
    text, byte for byte, for string keys; ``indent`` is the newline and the
    spaces that open ``value``'s line.  A list of floats, or of equal-length
    float lists, is written in one pass of ``float.__repr__``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_floats(float.__repr__(value))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # TypeError for an item that is not a float; ValueError for ragged rows
            if set(map(type, value)) <= {list, tuple}:
                (k,) = set(map(len, value))
                row = "[" + inner + "  " + f",{inner}  ".join(["%s"] * k) + inner + "]"
                items = f",{inner}".join([row if k else "[]"] * len(value)) % tuple(
                    map(float.__repr__, chain.from_iterable(value)))
            else:
                items = f",{inner}".join(map(float.__repr__, value))
            items = _json_floats(items)
        except (TypeError, ValueError):
            items = f",{inner}".join([_to_json(item, inner) for item in value])
        return "[" + inner + items + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + f",{inner}".join([
            f"{encode_basestring_ascii(key)}: {_to_json(item, inner)}"
            for key, item in sorted(value.items())]) + indent + "}"
    return _to_json(_json_scalar(value), indent)


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to the temp file ``<path>.<pid>.tmp``, remove the old
    report and rename the temp file into its place.

    No reader sees a partial report: ``path`` holds the old report or the new
    one, and is missing only between the unlink and the rename.  The rename
    never lands on an existing file, so ext4 (``auto_da_alloc``) does not
    flush the new data on every write; nothing is fsynced.  The temp file is
    created exclusively, with the umask's mode: a file already at its name (a
    stale temp file, or a planted link) is refused by that name and left as
    it is.  A failure while the temp file is written leaves the old report as
    it was; any failure after the temp file is made removes it and is raised
    as an ``OSError`` naming ``path``.
    """
    tmp, fh = f"{path}.{os.getpid()}.tmp", None
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException as exc:
        if fh is None and isinstance(exc, FileExistsError):
            raise  # the file at the temp name is not ours
        if fh is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _render_csv(rows: list[dict]) -> str:
    header = list(rows[0]) if rows else []
    lines = [",".join(header)] + [",".join(str(row.get(key)) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def run(command: str, cfg: dict) -> int:
    """Parse, dispatch, write the report; returns the process exit code."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        args = parse_config(command, cfg)
        fmt, out = args.pop("format"), args.pop("out", None)
        payload, rows, verdict_ok = COMMANDS[command][0](**args)
    report = {"command": command, "result": payload}
    text = _to_json(report, "\n") + "\n" if fmt == "json" else _render_csv(rows())
    if out:
        _write_atomic(out, text.encode())
    else:
        sys.stdout.write(text)
    return 0 if verdict_ok in (None, True) else 2


class _Parser(argparse.ArgumentParser):
    """Collects the arguments as strings; a usage error is a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="geodisc",
        description="Boundary-regularity toolkit for holomorphic discs in "
        "convex domains",
    )
    parser.add_argument("command", help=f"one of {', '.join(sorted(COMMANDS))}")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="report path (stdout when omitted)")
    parser.add_argument("--format", help="json (the default) or csv")

    cfg: dict = {}
    try:
        args = parser.parse_args(argv)
        if args.config:
            with open(args.config) as fh:
                try:
                    cfg = json.load(fh)
                except RecursionError:
                    raise ConfigError("config nested too deeply to read") from None
            if not isinstance(cfg, dict):
                raise ConfigError("config must be a JSON object")
        if args.out is not None:
            cfg["out"] = args.out
        if args.format is not None:
            cfg["format"] = args.format
        return run(args.command, cfg)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"geodisc: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"geodisc: error: numeric overflow ({exc})", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"geodisc: error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
