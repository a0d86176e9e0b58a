"""Seeded operations for the three workloads, each with its output check.

A workload is a fixed schedule of CLI commands repeated in rounds; the seed
draws only the parameters of each command, never which commands run, so
every seed runs the same mix of work.  Each operation carries a check that
compares the command's report against an independent reference from
``oracles``.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as ref


# Defects of the program that the checks catch and the baseline still has.
# Their failures count in `failed` but do not make a run incorrect.
X0_CAP_DEFECT = "x0_cap misses roots below its 1e-12 C scan floor"
CIRCLE_SEARCH_DEFECT = "inscribed_disc_radius stops at a non-global local minimum over the circle"


@dataclass(frozen=True)
class Failure:
    reason: str
    known_defect: str = ""  # one of the names above, or "" for a new failure


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``geodisc <command>`` on ``cfg``.

    ``check(exit_code, result)`` returns None when the report is right; the
    result is the report's ``result`` object for JSON reports and the list
    of row dicts for CSV reports.
    """

    command: str
    cfg: dict
    check: Callable[[int, object], Failure | None]


def _expect(exit_code: int, test: Callable[[object], str | Failure | None]):
    def check(rc: int, result) -> Failure | None:
        if rc != exit_code:
            return Failure(f"exit {rc}, expected {exit_code}")
        outcome = test(result)
        if outcome is None or isinstance(outcome, Failure):
            return outcome
        return Failure(outcome)

    return check


def _first(*conditions: tuple[bool, str]) -> str | None:
    for ok, reason in conditions:
        if not ok:
            return reason
    return None


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _disc_point(rng: random.Random, radius: float) -> complex:
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _unit_vector(rng: random.Random, n: int) -> np.ndarray:
    raw = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
    return raw / np.linalg.norm(raw)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --- probe: boundary sampling and the modulus kernel ------------------------------

PROBE_THETAS = (2048, 8192)
MOD_CONT_PER_ROUND = 4
MOD_CONT_N = 1024

# The README pipeline example and the values its report pins.
README_FLAT = {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.111, "s0": 0.08}
README_PIPELINE = {
    "domain": README_FLAT,
    "candidate": {"kind": "flat_slice", "domain": README_FLAT,
                  "center": [0.0, 0.04], "radius": 0.04},
}
README_PINNED = {"points": 4, "K1": 4.0, "K2": 25.0, "beta": 1.0,
                 "value": 0.8685889634, "omega_min": 6.135922e-05}
PIPELINE_STAGES = ("properness", "rest_bound", "majorant_fit",
                   "majorant_integrable", "extension_probe")
PIPELINE_PROBE_THETA = 4096


def _smooth_candidate(rng: random.Random, kind: str) -> dict:
    """A smooth disc map into a polydisc."""
    if kind == "automorphism":
        a, phi = _disc_point(rng, 0.8), rng.uniform(0.0, 2.0 * math.pi)
        spec = {"kind": "automorphism", "a": _pair(a), "phi": phi}
    elif kind == "monomial":
        spec = {"kind": "monomial", "degree": rng.randint(1, 5),
                "coefficient": _pair(_disc_point(rng, 1.0))}
    else:
        return {"kind": "map", "map": {"kind": "pair_identity_zero"},
                "domain": {"kind": "polydisc", "radii": [1.0, 1.0]}}
    return {"kind": "map", "map": spec, "domain": {"kind": "polydisc", "radii": [1.0]}}


def _probe_op(candidate: dict, n_theta: int, fails: bool) -> Op:
    if fails:
        test = lambda r: _first(
            (r["verdict"] == "fails", f"verdict {r['verdict']!r}, expected 'fails'"),
            (r["omega_min"] >= 0.9, f"omega_min {r['omega_min']} < 0.9"),
        )
        return Op("geodesic-probe", {"candidate": candidate, "n_theta": n_theta},
                  _expect(2, test))
    test = lambda r: _first((r["verdict"] != "fails", "smooth map reported 'fails'"))
    return Op("geodesic-probe", {"candidate": candidate, "n_theta": n_theta},
              _expect(0, test))


def _mod_cont_op(rng: random.Random) -> Op:
    k, c = rng.randint(1, 5), _disc_point(rng, 1.0)
    n = MOD_CONT_N
    step = 2.0 * math.pi / n
    # pi is always requested, so every mod-cont op scans the same lags
    deltas = sorted(_log_uniform(rng, 1.5 * step, math.pi) for _ in range(5)) + [math.pi]
    lags = sorted({min(int(math.floor(d / step + 1e-12)), n // 2) for d in deltas})
    expected = ref.monomial_modulus(c, k, n, lags)

    def test(r):
        got_lags = [round(d / step) for d in r["deltas"]]
        if got_lags != lags:
            return f"lags {got_lags}, expected {lags}"
        worst = max(abs(w - e) for w, e in zip(r["omegas"], expected))
        return _first((worst <= 1e-6, f"omega off by {worst:.3g}"))

    cfg = {"function": {"kind": "monomial", "degree": k, "coefficient": _pair(c)},
           "n": n, "deltas": deltas}
    return Op("mod-cont", cfg, _expect(0, test))


def _pipeline_check(flat: dict, center: complex, radius: float, pinned: dict | None):
    C, alpha = flat["C"], flat["alpha"]
    properness = ref.flat_slice_properness(C, alpha, flat["R0"], flat["s0"], center, radius)
    omega_min = 2.0 * radius * math.sin(math.pi / PIPELINE_PROBE_THETA)

    def test(r):
        stages = {s["name"]: s for s in r["stages"]}
        names = tuple(s["name"] for s in r["stages"])
        if names != PIPELINE_STAGES:
            return f"stages {names}"
        failed = [n for n in names if stages[n]["status"] != "pass"]
        if failed or r["ok"] is not True:
            return f"stages not passing: {failed}"
        rest = stages["rest_bound"]["details"]
        fit = stages["majorant_fit"]["details"]
        integral = stages["majorant_integrable"]["details"]["value"]
        probe = stages["extension_probe"]["details"]
        expected_integral = ref.family_log_integral(
            fit["K1"], fit["K2"], fit["alpha"], math.log(1.0 / fit["r0"]), 0
        )
        reason = _first(
            (ref.close(stages["properness"]["details"]["max_distance"], properness, 1e-9),
             "properness distance"),
            (all(ref.close(row["bound"], 2.0 * ref.flatness_inverse(row["d"], C, alpha), 1e-9)
                 and row["radius"] <= row["bound"] + 1e-6 for row in rest["rows"]),
             "rest-bound rows"),
            (ref.close(fit["K1"], 4.0 * fit["beta"] ** (1.0 / alpha), 1e-12), "K1"),
            (ref.close(integral, expected_integral, 1e-6), "majorant integral"),
            (probe["verdict"] == "extends (numerically)", f"probe {probe['verdict']!r}"),
            (ref.close(probe["omega_min"], omega_min, 1e-6), "probe omega_min"),
        )
        if reason or pinned is None:
            return reason
        return _first(
            (rest["points"] == pinned["points"], "rest-bound point count"),
            (ref.close(fit["K1"], pinned["K1"], 1e-6), "pinned K1"),
            (ref.close(fit["K2"], pinned["K2"], 1e-6), "pinned K2"),
            (ref.close(fit["beta"], pinned["beta"], 1e-6), "pinned beta"),
            (ref.close(integral, pinned["value"], 1e-6), "pinned integral"),
            (ref.close(probe["omega_min"], pinned["omega_min"], 1e-6), "pinned omega_min"),
        )

    return _expect(0, test)


def _pipeline_op(rng: random.Random, readme: bool) -> Op:
    if readme:
        check = _pipeline_check(README_FLAT, 0.04j, 0.04, README_PINNED)
        return Op("pipeline", README_PIPELINE, check)
    alpha = rng.uniform(0.3, 0.9)
    s0 = rng.uniform(0.06, 0.09)
    flat = {"kind": "flat_model", "C": _log_uniform(rng, 0.5, 2.0), "alpha": alpha,
            "R0": min(ref.convexity_cap(alpha), 0.2) * rng.uniform(0.5, 1.0), "s0": s0}
    center, radius = 0.5j * s0, 0.5 * s0 * rng.uniform(0.98, 1.0)
    cfg = {"domain": flat,
           "candidate": {"kind": "flat_slice", "domain": flat,
                         "center": _pair(center), "radius": radius}}
    return Op("pipeline", cfg, _pipeline_check(flat, center, radius, None))


def probe_ops(rng: random.Random, rounds: int) -> list[Op]:
    """One round, from cheap to costly: four mod-cont and a monomial probe
    at 2048 nodes; two automorphism probes at 2048; the two-dimensional
    probes at 2048 (the identity/zero pair and the non-extending geodesic);
    a pipeline or a one-dimensional probe at 8192; the two-dimensional
    probes at 8192.  Five ops sit below the automorphism probes and five
    above, so the median op is one of them, and the two-dimensional
    8192-node probes, whose cost no seed changes, hold the tail."""
    small, large = PROBE_THETAS
    ops = []
    for i in range(rounds):
        ops += [_mod_cont_op(rng) for _ in range(MOD_CONT_PER_ROUND)]
        ops += [_probe_op(_smooth_candidate(rng, kind), small, False)
                for kind in ("monomial", "automorphism", "automorphism")]
        ops += [_probe_op(_smooth_candidate(rng, "pair_identity_zero"), small, False),
                _probe_op({"kind": "nonextending"}, small, True)]
        if i % 2 == 0:
            ops.append(_pipeline_op(rng, readme=(i == 0)))
        else:
            kind = ("automorphism", "monomial")[(i // 2) % 2]
            ops.append(_probe_op(_smooth_candidate(rng, kind), large, False))
        ops += [_probe_op(_smooth_candidate(rng, "pair_identity_zero"), large, False),
                _probe_op({"kind": "nonextending"}, large, True)]
    return ops


# --- flat_geometry: exit-time bisection on the flat model -----------------------

FLAT_LIGHT_PER_ROUND = 20
# geodesic-defect computes 32 inscribed radii, 25 times a light op; three per
# round make it the slowest command, and the run's tail (the 11th slowest of
# 15) falls inside its spread rather than on its fastest members.
FLAT_DEFECTS_PER_ROUND = 3
FLAT_KINDS = ("radius_normal", "radius_tangential", "radius_tilted", "graham", "rest_check")


@dataclass(frozen=True)
class FlatDraw:
    C: float
    alpha: float
    R0: float
    s0: float
    d: float

    @property
    def spec(self) -> dict:
        return {"kind": "flat_model", "C": self.C, "alpha": self.alpha,
                "R0": self.R0, "s0": self.s0}

    @property
    def point(self) -> list:
        return [[0.0, 0.0], [0.0, self.d]]


def _flat_draw(rng: random.Random) -> FlatDraw:
    """A flat model and a depth d on its axis inside the boundary zone.

    alpha stays at or above 0.3: below that the convexity cap on R0 falls
    under 1e-2 and vanishes fast (4e-11 at alpha = 0.1), leaving no room
    for depths from 1e-6.  The zone uses the true cap point, so every depth
    is in the zone with or without the x0_cap defect.  Depths also stay
    below min_t t^2 / (2 C phi(t)): there the graph point at radius t is no
    closer than the vertex, since t^2 + (d - C phi(t))^2 >= d^2, so the
    axis point's boundary distance is exactly d.
    """
    alpha = rng.uniform(0.3, 0.95)
    C = _log_uniform(rng, 0.5, 2.0)
    R0 = ref.convexity_cap(alpha) * rng.uniform(0.5, 1.0)
    s0 = rng.uniform(0.05, 0.1)
    ts = np.geomspace(1e-3 * R0, R0, 512)
    with np.errstate(over="ignore"):
        vertex_nearest = float(np.min(ts**2 * np.exp(ts**-alpha) / (2.0 * C)))
    top = 0.9 * min(0.5 * s0, R0, ref.x0_reference(C, alpha), 0.5 * vertex_nearest)
    return FlatDraw(C, alpha, R0, s0, _log_uniform(rng, 1e-6, top))


def _direction(rng: random.Random, kind: str) -> np.ndarray:
    phase = cmath.exp(2j * math.pi * rng.random())
    if kind == "radius_normal":
        return np.array([0.0, phase])
    if kind in ("radius_tangential", "rest_check"):
        return np.array([phase, 0.0])
    tilt = rng.uniform(0.2, 1.3)
    return np.array([math.cos(tilt) * phase, math.sin(tilt) * cmath.exp(2j * math.pi * rng.random())])


def _flat_light_op(rng: random.Random, kind: str) -> Op:
    f = _flat_draw(rng)
    v = _direction(rng, kind)
    exact = ref.flat_axis_radius(f.C, f.alpha, f.R0, f.s0, f.d, v)
    rest_bound = 2.0 * ref.flatness_inverse(f.d, f.C, f.alpha)
    cfg = {"domain": f.spec, "point": f.point, "direction": [_pair(x) for x in v]}

    if kind == "radius_normal":
        return Op("domain-radius", cfg, _expect(0, lambda r: _first(
            (abs(r["radius"] - f.d) <= 1e-6, f"normal radius {r['radius']} vs d {f.d}"))))
    if kind in ("radius_tangential", "radius_tilted"):
        return Op("domain-radius", cfg, _expect(0, lambda r: _first(
            (ref.close(r["radius"], exact, 1e-6, 1e-9), f"radius {r['radius']} vs {exact}"),
            (kind == "radius_tilted" or r["radius"] <= rest_bound + 1e-6, "rest bound"))))
    if kind == "graham":
        return Op("graham", cfg, _expect(0, lambda r: _first(
            (r["upper"] == 2.0 * r["lower"], "upper is not twice lower"),
            (ref.close(0.5 / r["lower"], exact, 1e-6, 1e-9),
             f"lower {r['lower']} vs {0.5 / exact}"))))
    return Op("rest-check", cfg, _expect(0, lambda r: _first(
        (r["satisfied"] is True, "rest bound not satisfied"),
        (abs(r["d"] - f.d) <= 1e-12, f"axis distance {r['d']} vs {f.d}"),
        (ref.close(r["bound"], rest_bound, 1e-12), "bound"),
        (ref.close(r["radius"], exact, 1e-6, 1e-9), f"radius {r['radius']} vs {exact}"))))


def _flat_defect_op(rng: random.Random) -> Op:
    f = _flat_draw(rng)
    center = complex(rng.uniform(-0.1, 0.1) * f.s0, 0.5 * f.s0)
    radius = 0.45 * f.s0 * rng.uniform(0.8, 1.0)
    cfg = {"candidate": {"kind": "flat_slice", "domain": f.spec,
                         "center": _pair(center), "radius": radius},
           "zeta1": _pair(_disc_point(rng, 0.7)), "zeta2": _pair(_disc_point(rng, 0.7))}
    zeta1, zeta2 = complex(*cfg["zeta1"]), complex(*cfg["zeta2"])
    expected = ref.flat_slice_defect(f.s0, center, radius, zeta1, zeta2)
    scale = ref.poincare(zeta1, zeta2)
    return Op("geodesic-defect", cfg, _expect(0, lambda r: _first(
        (ref.close(r["defect"], expected, 1e-6, 1e-6 * scale),
         f"defect {r['defect']} vs {expected}"))))


def flat_geometry_ops(rng: random.Random, rounds: int) -> list[Op]:
    ops = []
    for _ in range(rounds):
        ops += [_flat_light_op(rng, FLAT_KINDS[j % len(FLAT_KINDS)])
                for j in range(FLAT_LIGHT_PER_ROUND)]
        ops += [_flat_defect_op(rng) for _ in range(FLAT_DEFECTS_PER_ROUND)]
    return ops


# --- quick_verdicts: quadrature verdicts and closed-form geometry --------------

X0_PER_ROUND = 4
X0_ALPHA = (0.05, 0.95)
X0_SCAN_FLOOR = 1e-12  # x0_cap scans (1e-12 C, C); roots below it are missed
# Every fourth round adds log-Dini verdicts up to n = 80 for the divergent
# log-reciprocal modulus: about 3.5 times the slowest regular op.  A 20 s
# run has 26 of them, so its tail (the 11th slowest op) lands in the middle
# of this command's spread rather than on machine stalls.
HEAVY_EVERY = 4
HEAVY_N_MAX = 80


def _family_spec(rng: random.Random, p: float) -> dict:
    K2 = rng.uniform(1.5, 4.0)
    return {"kind": "family", "K1": rng.uniform(0.5, 2.0), "K2": K2,
            "alpha": 1.0 / p, "r0": rng.uniform(0.2, 0.6)}


def _hl_l1_op(rng: random.Random, convergent: bool) -> Op:
    n = rng.randint(0, 1)
    # 1/alpha = p; the integral converges iff p > n + 1
    p = n + 1 + (rng.uniform(0.7, 2.0) if convergent else -rng.uniform(0.0, 0.7))
    spec = _family_spec(rng, p)
    expected = ref.family_log_integral(spec["K1"], spec["K2"], spec["alpha"],
                                       math.log(1.0 / spec["r0"]), n)
    if convergent:
        check = _expect(0, lambda r: _first(
            (r["verdict"] == "converged", "verdict"),
            (ref.close(r["value"], expected, 1e-6), f"value {r['value']} vs {expected}")))
    else:
        check = _expect(2, lambda r: _first(
            (r["verdict"] == "diverged" and r["value"] is None, "verdict")))
    return Op("hl-l1", {"majorant": spec, "n": n}, check)


def _hl_bound_op(rng: random.Random, convergent: bool) -> Op:
    coeff = rng.uniform(0.5, 2.0)
    exponent = rng.uniform(-0.6, 0.0) if convergent else rng.uniform(-1.5, -1.0)
    r0 = rng.uniform(0.3, 0.8)
    delta = rng.uniform(0.05, 0.9) * r0
    expected = ref.power_omega_bound(coeff, exponent, delta)
    spec = {"kind": "power", "coefficient": coeff, "exponent": exponent, "r0": r0}
    if convergent:
        check = _expect(0, lambda r: _first(
            (ref.close(r["omega_bound"], expected, 1e-6), f"{r['omega_bound']} vs {expected}")))
    else:
        check = _expect(2, lambda r: _first((r["omega_bound"] == math.inf, "not divergent")))
    return Op("hl-bound", {"majorant": spec, "delta": delta}, check)


def _hl_verify_op(rng: random.Random, holds: bool) -> Op:
    k, c = rng.randint(2, 5), _disc_point(rng, 1.0)
    r0 = rng.uniform(0.3, 0.8)
    top = k * abs(c)
    M = top * (rng.uniform(1.1, 1.5) if holds else rng.uniform(0.5, 0.9))
    # |f'| = k |c| r^(k-1) peaks at the outermost grid radius 1 - 1e-4 r0
    expected = top * (1.0 - 1e-4 * r0) ** (k - 1) - M
    cfg = {"function": {"kind": "monomial", "degree": k, "coefficient": _pair(c)},
           "majorant": {"kind": "power", "coefficient": M, "exponent": 0.0, "r0": r0}}
    return Op("hl-verify", cfg, _expect(0 if holds else 2, lambda r: _first(
        (r["verified"] is holds, "verdict"),
        (ref.close(r["max_violation"], expected, 1e-9, 1e-12),
         f"violation {r['max_violation']} vs {expected}"))))


def _csv_values(rows: list[dict]) -> list[float | None]:
    return [None if row["value"] == "None" else float(row["value"]) for row in rows]


def _log_dini_op(rng: random.Random, kind: str, n_max: int = 6) -> Op:
    if kind == "holder":
        a = rng.uniform(0.3, 1.0)
        spec = {"kind": "holder", "a": a}
        expected = [ref.holder_log_dini(a, n) for n in range(n_max + 1)]
    elif kind == "stretched_exponential":
        coeff, eps = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.6)
        spec = {"kind": kind, "coeff": coeff, "eps": eps}
        expected = [ref.stretched_log_dini(coeff, eps, n) for n in range(n_max + 1)]
    else:
        spec, expected = {"kind": "log_reciprocal"}, None
    cfg = {"modulus": spec, "n_max": n_max, "format": "csv"}
    if expected is None:
        return Op("log-dini", cfg, _expect(2, lambda rows: _first(
            (all(row["verdict"] == "diverged" for row in rows), "verdicts"),
            (len(rows) == n_max + 1, "row count"))))

    def test(rows):
        values = _csv_values(rows)
        return _first(
            (len(values) == n_max + 1, "row count"),
            (all(ref.close(v, e, 1e-6) for v, e in zip(values, expected)),
             f"values {values} vs {expected}"))

    return Op("log-dini", cfg, _expect(0, test))


def _pz_bound_op(rng: random.Random, convergent: bool, holder_one: bool = False) -> Op:
    delta, K = rng.uniform(0.01, 1.0), rng.uniform(0.5, 2.0)
    if not convergent:
        cfg = {"modulus": {"kind": "log_reciprocal"}, "delta": delta, "K": K}
        return Op("pz-bound", cfg, _expect(2, lambda r: _first(
            (r["finite"] is False and r["pz_bound"] is None, "not divergent"))))
    a = 1.0 if holder_one else rng.uniform(0.3, 1.0)
    expected = ref.holder_pz_bound(a, delta, K)
    cfg = {"modulus": {"kind": "holder", "a": a}, "delta": delta, "K": K}
    return Op("pz-bound", cfg, _expect(0, lambda r: _first(
        (ref.close(r["pz_bound"], expected, 1e-6), f"{r['pz_bound']} vs {expected}"))))


def _flat_x0_op(rng: random.Random, alpha: float) -> Op:
    C = _log_uniform(rng, 0.5, 2.0)
    expected = ref.x0_reference(C, alpha)

    def test(r):
        if ref.close(r["x0"], expected, 1e-6):
            return None
        reason = f"x0 {r['x0']} vs {expected} (C={C}, alpha={alpha})"
        return Failure(reason, X0_CAP_DEFECT if expected < X0_SCAN_FLOOR * C else "")

    return Op("flat-x0", {"C": C, "alpha": alpha}, _expect(0, test))


def _flat_rho_op(rng: random.Random, tilted: bool) -> Op:
    alpha = rng.uniform(*X0_ALPHA)
    C = _log_uniform(rng, 0.5, 2.0)
    d = _log_uniform(rng, 1e-4, 0.5 * C)
    slope = rng.uniform(0.1, 5.0) if tilted else 0.0
    cfg = {"d": d, "slope": slope, "C": C, "alpha": alpha}
    if tilted:
        return Op("flat-rho", cfg, _expect(0, lambda r: _first(
            (ref.rho_brackets(r["rho"], d, slope, C, alpha), f"rho {r['rho']} is not the root"))))
    expected = ref.flatness_inverse(d, C, alpha)
    return Op("flat-rho", cfg, _expect(0, lambda r: _first(
        (ref.close(r["rho"], expected, 1e-12), f"rho {r['rho']} vs {expected}"))))


def _conjugate_op(rng: random.Random) -> Op:
    n = rng.choice((256, 512))
    k, c = rng.randint(1, 5), _disc_point(rng, 1.0)
    expected = ref.monomial_conjugate(c, k, n)
    cfg = {"function": {"kind": "monomial", "degree": k, "coefficient": _pair(c)},
           "n": n, "real_part": True}

    def test(r):
        got = np.array([v[0] for v in r["values"]])
        worst = float(np.max(np.abs(got - expected)))
        return _first((worst <= 1e-6, f"conjugate off by {worst:.3g}"))

    return Op("conjugate", cfg, _expect(0, test))


def _vec(values) -> list:
    return [_pair(complex(x)) for x in values]


@dataclass(frozen=True)
class ClosedFormDomain:
    spec: dict
    z: np.ndarray
    radius_of: Callable  # direction -> inscribed disc radius
    exit_of: Callable  # unit directions (rows) -> exit times
    distance: float


def _polydisc(rng: random.Random) -> ClosedFormDomain:
    radii = [rng.uniform(0.5, 2.0) for _ in range(2)]
    z = np.array([_disc_point(rng, 0.7 * R) for R in radii])
    return ClosedFormDomain({"kind": "polydisc", "radii": radii}, z,
                            lambda v: ref.polydisc_radius(radii, z, v),
                            lambda w: ref.polydisc_exit(radii, z, w),
                            ref.polydisc_distance(radii, z))


def _ball(rng: random.Random) -> ClosedFormDomain:
    center = np.array([_disc_point(rng, 0.5) for _ in range(2)])
    R = rng.uniform(0.5, 2.0)
    z = center + 0.7 * R * rng.random() * _unit_vector(rng, 2)
    return ClosedFormDomain({"kind": "ball", "center": _vec(center), "radius": R}, z,
                            lambda v: ref.ball_radius(center, R, z, v),
                            lambda w: ref.ball_exit(center, R, z, w),
                            ref.ball_distance(center, R, z))


def _halfspace(rng: random.Random) -> ClosedFormDomain:
    constraints = []
    for k in range(2):
        for unit in (1.0, -1.0, 1j, -1j):
            a = np.zeros(2, dtype=complex)
            a[k] = unit
            constraints.append((a, rng.uniform(0.5, 1.5)))
    constraints += [(_unit_vector(rng, 2), rng.uniform(0.5, 1.5)) for _ in range(2)]
    z = 0.3 * 0.5 * rng.random() * _unit_vector(rng, 2)
    spec = {"kind": "halfspace_intersection",
            "constraints": [{"a": _vec(a), "b": b} for a, b in constraints]}
    return ClosedFormDomain(spec, z,
                            lambda v: ref.halfspace_radius(constraints, z, v),
                            lambda w: ref.halfspace_exit(constraints, z, w),
                            ref.halfspace_distance(constraints, z))


DOMAINS = (_polydisc, _ball, _halfspace)


def _radius_check(radius: float, exact: float, domain: ClosedFormDomain, v) -> Failure | None:
    """The exit times of these domains are exact, so any radius off the
    closed form fails.  It is the known circle-search defect only with its
    signature: the radius is above the closed form and equals, to 1e-7, a
    local minimum of the exact exit time over the circle other than the
    global one, found by a dense scan (the coarse scan settled in the wrong
    basin)."""
    if ref.close(radius, exact, 1e-9):
        return None
    reason = f"radius {radius} vs {exact}"
    if radius > exact:
        minima = ref.circle_local_minima(domain.exit_of, v)
        if any(m > exact * (1.0 + 1e-9) and ref.close(radius, m, 1e-7) for m in minima):
            return Failure(f"{reason}, a local minimum over the circle", CIRCLE_SEARCH_DEFECT)
    return Failure(reason)


def _domain_ops(rng: random.Random, make) -> list[Op]:
    ops = []
    domain = make(rng)
    distance = domain.distance
    ops.append(Op("domain-distance", {"domain": domain.spec, "point": _vec(domain.z)},
                  _expect(0, lambda r: _first(
                      (ref.close(r["distance"], distance, 1e-12, 1e-15),
                       f"distance {r['distance']} vs {distance}")))))
    for command in ("domain-radius", "graham"):
        domain = make(rng)
        v = _unit_vector(rng, 2) * rng.uniform(0.5, 2.0)
        exact = domain.radius_of(v)
        cfg = {"domain": domain.spec, "point": _vec(domain.z), "direction": _vec(v)}
        norm = float(np.linalg.norm(v))
        if command == "domain-radius":
            test = lambda r, exact=exact, domain=domain, v=v: _radius_check(
                r["radius"], exact, domain, v)
        else:
            test = lambda r, exact=exact, domain=domain, v=v, norm=norm: _first(
                (r["upper"] == 2.0 * r["lower"], "upper is not twice lower")
            ) or _radius_check(0.5 * norm / r["lower"], exact, domain, v)
        ops.append(Op(command, cfg, _expect(0, test)))
    return ops


MERCER_GRID = 1.0 - np.geomspace(0.5, 1e-6, 25)  # the command's default radial grid


def _mercer_ops(rng: random.Random) -> list[Op]:
    a, phi = _disc_point(rng, 0.8), rng.uniform(0.0, 2.0 * math.pi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    f = ref.automorphism(a, phi)
    ds = np.array([1.0 - abs(f(r * cmath.exp(1j * theta))) for r in MERCER_GRID])
    C1 = float(np.min(ds / (1.0 - MERCER_GRID)))
    auto = {"candidate": {"kind": "map", "domain": {"kind": "polydisc", "radii": [1.0]},
                          "map": {"kind": "automorphism", "a": _pair(a), "phi": phi}},
            "theta": theta}
    pair = {"candidate": {"kind": "map", "map": {"kind": "pair_identity_zero"},
                          "domain": {"kind": "polydisc", "radii": [1.0, 1.0]}},
            "theta": rng.uniform(0.0, 2.0 * math.pi)}
    return [
        Op("mercer-fit", auto, _expect(0, lambda r: _first(
            (ref.close(r["C1"], C1, 1e-6), f"C1 {r['C1']} vs {C1}"),
            (r["beta"] >= 1.0 and r["residual"] <= 1e-9 * r["C2"], "fit constraints")))),
        Op("mercer-fit", pair, _expect(0, lambda r: _first(
            (all(abs(r[key] - 1.0) <= 1e-9 for key in ("C1", "C2", "beta")), "identity fit"),
            (r["residual"] <= 1e-12, "residual")))),
    ]


def _polydisc_defect_ops(rng: random.Random) -> list[Op]:
    ops = []
    z1, z2 = _disc_point(rng, 0.9), _disc_point(rng, 0.9)
    k, c = rng.randint(2, 5), _disc_point(rng, 1.0)
    expected = abs(ref.poincare(z1, z2) - ref.poincare(c * z1**k, c * z2**k))
    monomial = {"kind": "map", "domain": {"kind": "polydisc", "radii": [1.0]},
                "map": {"kind": "monomial", "degree": k, "coefficient": _pair(c)}}
    ops.append(Op("geodesic-defect", {"candidate": monomial, "zeta1": _pair(z1), "zeta2": _pair(z2)},
                  _expect(0, lambda r: _first(
                      (ref.close(r["defect"], expected, 1e-9, 1e-12), f"{r['defect']} vs {expected}")))))
    z1, z2 = _disc_point(rng, 0.9), _disc_point(rng, 0.9)
    candidate = _smooth_candidate(rng, rng.choice(("automorphism", "pair_identity_zero")))
    ops.append(Op("geodesic-defect", {"candidate": candidate, "zeta1": _pair(z1), "zeta2": _pair(z2)},
                  _expect(0, lambda r: _first((abs(r["defect"]) <= 1e-9, f"isometry defect {r['defect']}")))))
    return ops


def quick_verdicts_ops(rng: random.Random, rounds: int) -> list[Op]:
    # Stratified alphas over the whole run: the share of alphas in any
    # sub-range, such as the one where x0_cap misses its root, is the same
    # for every seed up to one draw.
    count = rounds * X0_PER_ROUND
    strata = list(range(count))
    rng.shuffle(strata)
    lo, hi = X0_ALPHA
    alphas = [lo + (hi - lo) * (s + rng.random()) / count for s in strata]
    ops = []
    for i in range(rounds):
        ops += [_hl_l1_op(rng, convergent) for convergent in (True, True, False, False)]
        ops += [_hl_bound_op(rng, convergent) for convergent in (True, False)]
        ops += [_hl_verify_op(rng, holds) for holds in (True, False)]
        ops += [_log_dini_op(rng, kind)
                for kind in ("holder", "stretched_exponential", "log_reciprocal")]
        ops += [_pz_bound_op(rng, True, holder_one=True), _pz_bound_op(rng, True),
                _pz_bound_op(rng, False)]
        ops += [_flat_x0_op(rng, a) for a in alphas[i * X0_PER_ROUND:(i + 1) * X0_PER_ROUND]]
        ops += [_flat_rho_op(rng, tilted) for tilted in (False, True)]
        ops.append(_conjugate_op(rng))
        for make in DOMAINS:
            ops += _domain_ops(rng, make)
        ops += _mercer_ops(rng)
        ops += _polydisc_defect_ops(rng)
        if i % HEAVY_EVERY == 0:
            ops.append(_log_dini_op(rng, "log_reciprocal", n_max=HEAVY_N_MAX))
    return ops


WORKLOADS = {
    "probe": probe_ops,
    "flat_geometry": flat_geometry_ops,
    "quick_verdicts": quick_verdicts_ops,
}


def build(workload: str, seed: int, rounds: int) -> list[Op]:
    """The operations of ``rounds`` rounds of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), rounds)
