"""Batch front end.

Loads a JSON run configuration, reads it through one typed schema,
dispatches exactly one library operation, and writes a machine-readable
report (JSON or CSV).  Exit codes: 0 on success, 2 when a check command
reports a failing/divergent verdict, 1 on configuration or execution
errors.  No numerics live here: every command is a thin wrapper over one
public library operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
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
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_complex(value) -> bool:
    if isinstance(value, (list, tuple)):
        return len(value) == 2 and _is_real(value[0]) and _is_real(value[1])
    return _is_real(value)


def _to_complex(value) -> complex:
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


NUMBER = Scalar("a number", _is_real, float)
COUNT = Scalar("an integer", _is_count, int)
BOOLEAN = Scalar("true or false", lambda v: isinstance(v, bool), bool)
TEXT = Scalar("a string", lambda v: isinstance(v, str), str)
FORMAT = Scalar("'json' or 'csv'", lambda v: v in ("json", "csv"), str)
COMPLEX = Scalar("a number or an [re, im] pair", _is_complex, _to_complex)
VECTOR = [COMPLEX]


def _grid(n: int) -> int:
    if n < 8:
        raise ValueError("grid size must be at least 8")
    return n


def _dyadic_grid(n: int) -> int:
    n = _grid(n)
    if n & (n - 1):
        raise ValueError("grid size must be a power of two")
    return n


# sizes of uniform grids on the circle
GRID = Scalar("an integer", _is_count, _grid)
DYADIC_GRID = Scalar("an integer", _is_count, _dyadic_grid)


def parse(schema, value, path: str = ""):
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

def _monomial(degree: int, coefficient: complex) -> da.UnitDiscFunction:
    if degree < 0:
        raise ValueError("monomial degree must be nonnegative")
    return da.UnitDiscFunction(
        lambda z: da.stack_components(z, da.cmul(coefficient, da.cpow(z, degree))),
        1,
        lambda z: da.stack_components(
            z, da.cmul(coefficient * degree, da.cpow(z, degree - 1)) if degree else 0.0
        ),
    )


def _pair_identity_zero() -> da.UnitDiscFunction:
    return da.UnitDiscFunction(
        lambda z: da.stack_components(z, z, 0.0),
        2,
        lambda z: da.stack_components(z, 1.0, 0.0),
    )


def _power_majorant(r0: float, coefficient: float, exponent: float) -> hl.Majorant:
    """Phi(x) = coefficient * x**exponent."""
    log_coefficient = math.log(coefficient) if coefficient > 0.0 else -math.inf
    return hl.Majorant(
        lambda x: coefficient * x**exponent,
        r0,
        lambda u: log_coefficient - (exponent + 1.0) * u,
    )


def _halfspace_intersection(constraints: list[dict], **options) -> cg.HalfspaceIntersection:
    pairs = tuple((c["a"], c["b"]) for c in constraints)
    return cg.HalfspaceIntersection(pairs, **options)


def _flat_model(C: float, alpha: float, R0: float, s0: float, **options) -> cg.FlatModelDomain:
    return cg.FlatModelDomain(cg.FlatSupport(C, alpha, R0, s0), **options)


FUNCTION = Kinds("function", {
    "identity": (da.identity_map, {}),
    "constant": (da.constant_map, {"values": VECTOR}),
    "automorphism": (kb.disc_automorphism, {"a": COMPLEX, "phi": Opt(NUMBER)}),
    "monomial": (_monomial, {"degree": COUNT, "coefficient": Opt(COMPLEX, 1 + 0j)}),
    "pair_identity_zero": (_pair_identity_zero, {}),
    "nonextending": (lambda: kb.nonextending_geodesic().map, {}),
})
MAJORANT = Kinds("majorant", {
    "family": (hl.DerivMajorantFamily,
               {"K1": NUMBER, "K2": NUMBER, "alpha": NUMBER, "r0": NUMBER}),
    "power": (_power_majorant,
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
    "map": (kb.GeodesicCandidate,
            {"map": FUNCTION, "domain": DOMAIN, "construction": Opt(TEXT)}),
})


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# --- command handlers: each returns (result_payload, csv_rows, verdict_ok) ---

def _cmd_hl_verify(function, majorant):
    report = hl.verify_majorant(function, majorant)
    ok = report.verified()
    payload = {
        "max_violation": report.max_violation,
        "worst_r": report.worst_r,
        "worst_theta": report.worst_theta,
        "verified": ok,
    }
    return payload, [payload], ok


def _cmd_hl_bound(majorant, delta):
    value = hl.omega_bound(majorant, delta)
    payload = {"omega_bound": value}
    return payload, [payload], math.isfinite(value)


def _cmd_hl_l1(majorant, n):
    res = hl.phi_log_l1(majorant, n)
    payload = {
        "value": res.value if res.converged else None,
        "verdict": "converged" if res.converged else "diverged",
        "refinement_levels": res.refinement_levels,
        "estimated_error": res.estimated_error,
    }
    return payload, [payload], res.converged


def _cmd_mod_cont(function, n, delta=None, deltas=None):
    if (delta is None) == (deltas is None):
        raise ConfigError("delta, deltas: give exactly one of the two")
    samples = da.boundary_samples(function, n)
    profile = da.modulus_profile(samples, [delta] if deltas is None else deltas)
    rows = [
        {"delta": d, "omega": w} for d, w in zip(profile.deltas, profile.omegas)
    ]
    payload = {
        "deltas": profile.deltas.tolist(),
        "omegas": profile.omegas.tolist(),
        "cauchy_fraction": samples.cauchy_fraction,
    }
    return payload, rows, None


def _cmd_conjugate(function, n, real_part):
    samples = da.boundary_samples(function, n)
    if real_part:
        samples = da.BoundarySamples(
            samples.n,
            samples.values[:, 0].real.astype(complex),
            samples.radius_used,
            samples.cauchy_fraction,
        )
    conjugated = da.conjugate_function(samples)
    rows = [
        {"theta": t, "re": v.real, "im": v.imag}
        for t, v in zip(conjugated.thetas, conjugated.values[:, 0])
    ]
    payload = {"n": conjugated.n, "values": [ _complex_pair(v) for v in conjugated.values[:, 0] ]}
    return payload, rows, None


def _cmd_pz_bound(modulus, delta, K):
    value = da.pz_bound(modulus, delta, K)
    payload = {"pz_bound": value if math.isfinite(value) else None,
               "finite": math.isfinite(value)}
    return payload, [payload], math.isfinite(value)


def _cmd_log_dini(modulus, **options):
    report = da.log_dini_test(modulus, **options)
    rows = [
        {"n": n, "verdict": verdict, "value": res.value if res.converged else None}
        for n, (verdict, res) in enumerate(zip(report.verdicts, report.results))
    ]
    payload = {
        "log_dini": report.log_dini,
        "n_max": report.n_max,
        "verdicts": list(report.verdicts),
        "note": "finite surrogate: tested n <= n_max only",
    }
    return payload, rows, report.log_dini


def _cmd_domain_distance(domain, point):
    value = cg.boundary_distance(domain, point)
    payload = {"distance": value}
    return payload, [payload], None


def _cmd_domain_radius(domain, point, direction):
    value = cg.inscribed_disc_radius(domain, point, direction)
    payload = {"radius": value}
    return payload, [payload], None


def _cmd_flat_x0(C, alpha):
    value = cg.x0_cap(C, alpha)
    payload = {"x0": value}
    return payload, [payload], None


def _cmd_flat_rho(d, slope, C, alpha):
    value = cg.rho_triangle(d, slope, C, alpha)
    payload = {"rho": value}
    return payload, [payload], None


def _cmd_rest_check(domain, point, direction, **options):
    report = cg.rest_bound_check(domain, point, direction, **options)
    payload = {
        "z": [_complex_pair(z) for z in point],
        "v": [_complex_pair(v) for v in direction],
        "d": report.d,
        "radius": report.radius,
        "bound": report.bound,
        "margin": report.margin,
        "satisfied": report.satisfied,
    }
    row = dict(payload)
    row["z"] = ";".join(f"{z.real}{z.imag:+}j" for z in point)
    row["v"] = ";".join(f"{v.real}{v.imag:+}j" for v in direction)
    return payload, [row], report.satisfied


def _cmd_graham(domain, point, direction):
    bounds = kb.graham_bounds(domain, point, direction)
    payload = {"lower": bounds.lower, "upper": bounds.upper}
    return payload, [payload], None


def _cmd_geodesic_defect(candidate, zeta1, zeta2):
    value = kb.geodesic_defect(candidate, zeta1, zeta2)
    payload = {"defect": value}
    return payload, [payload], None


def _cmd_geodesic_probe(candidate, **options):
    report = kb.boundary_extension_probe(candidate, **options)
    rows = [
        {"delta": d, "omega": w}
        for d, w in zip(report.profile.deltas, report.profile.omegas)
    ]
    payload = {
        "verdict": report.verdict,
        "omega_min": report.omega_min,
        "cauchy_fraction": report.cauchy_fraction,
    }
    return payload, rows, report.verdict != "fails"


def _cmd_mercer_fit(candidate, **options):
    fit = kb.mercer_fit(candidate, **options)
    payload = {
        "C1": fit.C1,
        "C2": fit.C2,
        "beta": fit.beta,
        "residual": fit.residual,
        "clamped": fit.clamped,
    }
    return payload, [payload], None


def _cmd_pipeline(domain, candidate, **params):
    report = kb.theorem_pipeline(domain, candidate, kb.PipelineParams(**params))
    rows = [
        {"stage": s.name, "status": s.status} for s in report.stages
    ]
    return report.to_payload(), rows, report.ok


_POINT_AND_DIRECTION = {"point": VECTOR, "direction": VECTOR}

# name -> (handler, record of the handler's keyword arguments)
COMMANDS: dict[str, tuple[Callable, dict]] = {
    "hl-verify": (_cmd_hl_verify, {"function": FUNCTION, "majorant": MAJORANT}),
    "hl-bound": (_cmd_hl_bound, {"majorant": MAJORANT, "delta": NUMBER}),
    "hl-l1": (_cmd_hl_l1, {"majorant": MAJORANT, "n": Opt(COUNT, 0)}),
    "mod-cont": (_cmd_mod_cont, {
        "function": FUNCTION, "n": Opt(GRID, 512),
        "delta": Opt(NUMBER), "deltas": Opt([NUMBER]),
    }),
    "conjugate": (_cmd_conjugate, {
        "function": FUNCTION, "n": Opt(DYADIC_GRID, 512), "real_part": Opt(BOOLEAN, False),
    }),
    "pz-bound": (_cmd_pz_bound, {"modulus": MODULUS, "delta": NUMBER, "K": Opt(NUMBER, 1.0)}),
    "log-dini": (_cmd_log_dini, {"modulus": MODULUS, "n_max": Opt(COUNT)}),
    "domain-distance": (_cmd_domain_distance, {"domain": DOMAIN, "point": VECTOR}),
    "domain-radius": (_cmd_domain_radius, {"domain": DOMAIN, **_POINT_AND_DIRECTION}),
    "flat-x0": (_cmd_flat_x0, {"C": NUMBER, "alpha": NUMBER}),
    "flat-rho": (_cmd_flat_rho, {"d": NUMBER, "slope": NUMBER, "C": NUMBER, "alpha": NUMBER}),
    "rest-check": (_cmd_rest_check, {
        "domain": FLAT_MODEL, **_POINT_AND_DIRECTION, "tol": Opt(NUMBER),
    }),
    "graham": (_cmd_graham, {"domain": DOMAIN, **_POINT_AND_DIRECTION}),
    "geodesic-defect": (_cmd_geodesic_defect, {
        "candidate": CANDIDATE, "zeta1": COMPLEX, "zeta2": COMPLEX,
    }),
    "geodesic-probe": (_cmd_geodesic_probe, {
        "candidate": CANDIDATE, "n_theta": Opt(GRID), "tol_ext": Opt(NUMBER),
    }),
    "mercer-fit": (_cmd_mercer_fit, {"candidate": CANDIDATE, "theta": Opt(NUMBER)}),
    "pipeline": (_cmd_pipeline, {
        "domain": FLAT_MODEL, "candidate": CANDIDATE,
        "properness_threshold": Opt(NUMBER), "majorant_alpha_override": Opt(NUMBER),
        "probe_n_theta": Opt(GRID),
    }),
}

_GLOBAL_FIELDS = {"command": Opt(TEXT), "format": Opt(FORMAT, "json"), "out": Opt(TEXT)}


def parse_config(command: str, cfg: dict) -> dict:
    """The keyword arguments of ``command``'s handler, plus the global
    ``format`` and ``out``, read from ``cfg``."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    args = parse({**COMMANDS[command][1], **_GLOBAL_FIELDS}, cfg)
    named = args.pop("command", command)
    if named != command:
        raise ConfigError(f"command: config command '{named}' does not match '{command}'")
    return args


def _sanitize(obj):
    """Plain-Python copy of a report tree: numpy scalars become floats/ints."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    return obj


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row.get(key)
            cells.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run(command: str, cfg: dict) -> int:
    """Parse, dispatch, write the report; returns the process exit code."""
    args = parse_config(command, cfg)
    fmt, out = args.pop("format"), args.pop("out", None)
    payload, rows, verdict_ok = COMMANDS[command][0](**args)
    payload, rows = _sanitize(payload), _sanitize(rows)
    report = {"command": command, "result": payload}
    text = (
        json.dumps(report, sort_keys=True, indent=2) + "\n"
        if fmt == "json"
        else _render_csv(rows)
    )
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
    return 0 if verdict_ok in (None, True) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geodisc",
        description="Boundary-regularity toolkit for holomorphic discs in "
        "convex domains",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="report path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    cfg: dict = {}
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
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


if __name__ == "__main__":
    sys.exit(main())
