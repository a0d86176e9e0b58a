"""Geodesic candidates, metric bounds, and the boundary-extension pipeline.

Poincare geometry on the disc, two-sided Kobayashi metric bounds from
inscribed disc radii, exact polydisc oracles, the explicit non-extending
geodesic of the bidisc, empirical boundary-extension probes, distance decay
fits along candidates, and the staged pipeline that chains properness, the
flatness bound, the fitted derivative majorant, its integrability, and the
extension probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convex_geometry import (
    ConvexDomainModel,
    FlatModelDomain,
    Polydisc,
    boundary_distance,
    inscribed_disc_radius,
    rest_bound_check,
    x0_cap,
)
from .disc_analysis import (
    ModulusProfile,
    UnitDiscFunction,
    _lag,
    boundary_samples,
    derivative_at,
    modulus_profile,
    stack_components,
)
from .hardy_littlewood import DerivMajorantFamily, phi_log_l1
from .numerics import QuadratureResult, gauss_panel

# geodesic_defect integrates the metric bounds with 4 panels of GL-8.
_DEFECT_PANELS = 4
_DEFECT_ORDER = 8


# --- Poincare geometry -------------------------------------------------------

def _require_in_disc(*points: complex) -> None:
    for p in points:
        if abs(p) >= 1.0:
            raise ValueError("point outside unit disc")


def poincare_distance(z1: complex, z2: complex) -> float:
    """artanh of the Mobius pseudodistance |(z1 - z2) / (1 - conj(z2) z1)|."""
    _require_in_disc(z1, z2)
    return math.atanh(abs((z1 - z2) / (1.0 - z2.conjugate() * z1)))


def disc_automorphism(a: complex, phi: float = 0.0) -> UnitDiscFunction:
    """zeta -> e^{i phi} (zeta - a) / (1 - conj(a) zeta)."""
    if abs(a) >= 1.0:
        raise ValueError("automorphism parameter must lie inside the disc")
    rot = cmath.exp(1j * phi)
    abar = complex(a).conjugate()
    scale = rot * (1.0 - abs(a) ** 2)
    return UnitDiscFunction(
        lambda z: stack_components(z, rot * (z - a) / (1.0 - abar * z)),
        1,
        lambda z: stack_components(z, scale / (1.0 - abar * z) ** 2),
    )


def polydisc_distance(z, w, radii: Sequence[float]) -> float:
    """Kobayashi distance of a polydisc: max over coordinates of the
    Poincare distance of the rescaled entries."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    radii = np.asarray(radii, dtype=float)
    if np.any(np.abs(z) >= radii) or np.any(np.abs(w) >= radii):
        raise ValueError("point outside polydisc")
    return max(
        poincare_distance(complex(zi / r), complex(wi / r))
        for zi, wi, r in zip(z, w, radii)
    )


# --- metric bounds -----------------------------------------------------------

@dataclass(frozen=True)
class MetricBounds:
    """Two-sided Kobayashi metric estimate; upper is twice lower by shape."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0.0 or self.upper < self.lower:
            raise ValueError("bounds must satisfy 0 <= lower <= upper")


def graham_bounds(domain: ConvexDomainModel, z, v) -> MetricBounds:
    """||v|| / (2 r) <= kappa(z; v) <= ||v|| / r with r the inscribed disc
    radius; degenerate (0, 0) for v = 0."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return MetricBounds(0.0, 0.0)
    radius = inscribed_disc_radius(domain, z, v)
    return MetricBounds(norm / (2.0 * radius), norm / radius)


# --- geodesic candidates -----------------------------------------------------

@dataclass(frozen=True)
class GeodesicCandidate:
    """A disc map into a domain model with a construction tag."""

    map: UnitDiscFunction
    domain: ConvexDomainModel
    construction: str = "custom"

    def __post_init__(self):
        if self.map.dimension != self.domain.dimension:
            raise ValueError("map dimension does not match domain")

    def image_inside(self) -> bool:
        """No image point outside the domain among 64 seeded points drawn
        uniformly from the disc of radius 0.999."""
        radii, angles = np.random.default_rng(0).random((64, 2)).T
        zeta = 0.999 * np.sqrt(radii) * np.exp(2j * math.pi * angles)
        return all(
            self.domain.membership(z) != "outside" for z in self.map.values(zeta)
        )


def nonextending_geodesic() -> GeodesicCandidate:
    """The explicit bidisc geodesic whose second component has no continuous
    boundary extension.

    The first coordinate is the identity, an automorphism, so the map is a
    complex geodesic of the bidisc; the second is (1/2) exp((1+z)/(z-1)),
    bounded by 1/2 because Re((1+z)/(z-1)) <= 0 on the disc, with radial
    limit 0 at theta = 0 but unimodular oscillation (1/2) e^{-i cot(theta/2)}
    elsewhere.
    """
    def f2(z):
        return 0.5 * np.exp((1.0 + z) / (z - 1.0))

    mapping = UnitDiscFunction(
        lambda z: stack_components(z, z, f2(z)),
        2,
        lambda z: stack_components(z, 1.0, -2.0 * f2(z) / (z - 1.0) ** 2),
    )
    return GeodesicCandidate(mapping, Polydisc((1.0, 1.0)), "polydisc_explicit")


def flat_slice_candidate(domain: FlatModelDomain, center: complex,
                         radius: float) -> GeodesicCandidate:
    """Affine disc in the last-coordinate slice: zeta -> (0', center + radius zeta)."""
    flat = (0.0,) * (domain.dimension - 1)
    mapping = UnitDiscFunction(
        lambda z: stack_components(z, *flat, center + radius * z),
        domain.dimension,
        lambda z: stack_components(z, *flat, radius),
    )
    return GeodesicCandidate(mapping, domain, "custom")


# --- geodesic defect ---------------------------------------------------------

def geodesic_defect(candidate: GeodesicCandidate, zeta1: complex,
                    zeta2: complex) -> float:
    """Deviation of the candidate from the isometry identity.

    On a polydisc this is |p(zeta1, zeta2) - K(f(zeta1), f(zeta2))| with the
    exact product distance.  On other convex models the Kobayashi distance is
    only known between the integrated two-sided metric bounds along the
    image segment, so the defect is the distance from p to that interval
    (zero when p lies inside it).
    """
    _require_in_disc(zeta1, zeta2)
    f = candidate.map
    z1, z2 = f(zeta1), f(zeta2)
    for z in (z1, z2):
        if candidate.domain.membership(z) == "outside":
            raise ValueError("image point outside domain")
    p = poincare_distance(zeta1, zeta2)
    if isinstance(candidate.domain, Polydisc):
        return abs(p - polydisc_distance(z1, z2, candidate.domain.radii))

    direction = z2 - z1
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        return p
    lower_metric = lambda t: graham_bounds(
        candidate.domain, z1 + t * direction, direction
    ).lower
    lower = sum(
        gauss_panel(lower_metric, k / _DEFECT_PANELS, (k + 1) / _DEFECT_PANELS, _DEFECT_ORDER)
        for k in range(_DEFECT_PANELS)
    )
    upper = 2.0 * lower  # each upper bound is exactly twice its lower bound
    if lower <= p <= upper:
        return 0.0
    return min(abs(p - lower), abs(p - upper))


# --- boundary-extension probe ------------------------------------------------

_PROBE_DELTAS = tuple(math.pi * 2.0 ** (-j) for j in range(13))


@dataclass(frozen=True)
class ProbeReport:
    verdict: str
    profile: ModulusProfile
    cauchy_fraction: float
    tol_ext: float

    @property
    def omega_min(self) -> float:
        return float(self.profile.omegas[0])


def boundary_extension_probe(
    candidate: GeodesicCandidate,
    n_theta: int = 8192,
    tol_ext: float = 1e-3,
) -> ProbeReport:
    """Empirical continuous-extension verdict from boundary samples.

    The empirical modulus is read at the four smallest deltas pi 2^-j,
    j <= 12, that resolve on the grid (at least one grid step; fewer than
    four on a grid of under 16 nodes), so only lags up to the largest of
    them are swept.  "extends (numerically)": the modulus at the smallest
    of them is below tol_ext.  "fails": the modulus plateaus above
    10 * tol_ext over them.  Anything else is "inconclusive".  Radial
    limits may exist pointwise while the boundary function oscillates, so
    the verdict inspects the modulus, not pointwise convergence.
    """
    if not tol_ext > 0.0:
        raise ValueError("tol_ext must be positive")
    samples = boundary_samples(candidate.map, n_theta)
    # _PROBE_DELTAS decreases, so the last four that resolve are the judged ones
    judged = [d for d in _PROBE_DELTAS if _lag(d, n_theta) >= 1][-4:]
    profile = modulus_profile(samples, judged)
    omegas = profile.omegas
    verdict = "inconclusive"
    if omegas[0] < tol_ext:
        verdict = "extends (numerically)"
    elif (
        float(np.min(omegas)) >= 10.0 * tol_ext
        and float(np.max(omegas) - np.min(omegas)) <= 0.1 * float(np.max(omegas))
    ):
        verdict = "fails"
    return ProbeReport(verdict, profile, samples.cauchy_fraction, tol_ext)


# --- distance decay fit -------------------------------------------------------

@dataclass(frozen=True)
class MercerFit:
    """Two-sided distance decay C1 (1-r) <= d <= C2 (1-r)^{1/beta} on the grid."""

    C1: float
    C2: float
    beta: float
    residual: float
    clamped: bool


_MERCER_RADII = 1.0 - np.geomspace(0.5, 1e-6, 25)


def mercer_fit(candidate: GeodesicCandidate, theta: float = 0.0) -> MercerFit:
    """Fit the two-sided boundary-distance decay along the ray e^{i theta} r
    at the 25 radii with 1 - r geometric from 1/2 down to 1e-6.

    C1 is the smallest observed d / (1 - r).  beta comes from the slope of
    log d against log(1 - r) (clamped to >= 1 and flagged when the raw slope
    falls outside (0, 1]); C2 is then the smallest constant making the upper
    constraint hold on the whole grid, so the reported residual is the
    violation of the fitted constraints, zero by construction up to rounding.
    """
    rs = _MERCER_RADII
    ds = []
    for z in candidate.map.values(cmath.exp(1j * theta) * rs):
        d = boundary_distance(candidate.domain, z)
        if d <= 0.0:
            raise ValueError("image touches boundary")
        ds.append(d)
    ds = np.array(ds)
    one_minus = 1.0 - rs

    C1 = float(np.min(ds / one_minus))
    x = np.log(one_minus)
    y = np.log(ds)
    slope = float(np.cov(x, y, bias=True)[0, 1] / np.var(x))
    clamped = False
    if not math.isfinite(slope) or slope <= 0.0 or slope > 1.0:
        # beta = 1/slope below 1 (or a degenerate non-decaying fit) is
        # outside the model; clamp and flag
        clamped = True
        beta = 1.0
    else:
        beta = 1.0 / slope
    C2 = float(np.max(ds / one_minus ** (1.0 / beta)))
    residual = max(
        float(np.max(C1 * one_minus - ds, initial=0.0)),
        float(np.max(ds - C2 * one_minus ** (1.0 / beta), initial=0.0)),
    )
    return MercerFit(C1, C2, beta, residual, clamped)


# --- the staged pipeline -------------------------------------------------------

@dataclass(frozen=True)
class PipelineStage:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[PipelineStage, ...]
    ok: bool

    def stage(self, name: str) -> PipelineStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "stages": [
                {"name": s.name, "status": s.status, "details": s.details}
                for s in self.stages
            ],
        }


# Fixed rules of the pipeline: the properness circle and its angle grid,
# the number of boundary-zone points checked against the rest bound, the
# majorant window cap, and the extension probe's tolerance.
_PROPERNESS_RADIUS = 0.999
_PROPERNESS_N_THETA = 64
_REST_POINTS = 4
_MAJORANT_R0 = 0.25
_PROBE_TOL_EXT = 1e-3


@dataclass(frozen=True)
class PipelineParams:
    properness_threshold: float = 0.05
    majorant_alpha_override: float | None = None
    probe_n_theta: int = 4096

    def __post_init__(self):
        alpha = self.majorant_alpha_override
        if alpha is not None and not alpha > 0.0:
            raise ValueError("majorant_alpha_override must be positive")


def theorem_pipeline(
    domain: FlatModelDomain,
    candidate: GeodesicCandidate,
    params: PipelineParams | None = None,
) -> PipelineReport:
    """Chain the stages of the continuous-extension argument on a flat model.

    (i) properness diagnostic: the image must approach the boundary along
    the whole circle of radius 0.999; (ii) the inscribed-radius bound in
    the boundary zone; (iii) a derivative majorant
    (K1/x)(log(K2/x))^{-1/alpha} with K1 = 4 beta^{1/alpha} and
    K2 = (C/C2)^beta from the distance-decay fit; (iv) integrability of the
    majorant; (v) the boundary-extension probe.  A properness failure aborts
    the remaining stages; a divergent majorant is reported and the probe
    still runs.  ``candidate`` must map into ``domain`` itself.
    """
    if candidate.domain != domain:
        raise ValueError("candidate domain does not match the pipeline domain")
    params = params or PipelineParams()
    s = domain.support
    stages: list[PipelineStage] = []

    # (i) properness
    f = candidate.map
    ring = _PROPERNESS_RADIUS * np.exp(
        2j * math.pi * np.arange(_PROPERNESS_N_THETA) / _PROPERNESS_N_THETA
    )
    images = f.values(ring)
    ds = [boundary_distance(domain, z) for z in images]
    worst = float(np.max(ds))
    proper = worst < params.properness_threshold
    stages.append(
        PipelineStage(
            "properness",
            "pass" if proper else "fail",
            {"max_distance": worst, "threshold": params.properness_threshold},
        )
    )
    if not proper:
        skipped = ("rest_bound", "majorant_fit", "majorant_integrable", "extension_probe")
        stages.extend(PipelineStage(name, "skipped", {}) for name in skipped)
        return PipelineReport(tuple(stages), False)

    # (ii) inscribed-radius bound at the deepest boundary-zone samples
    zone = min(s.s0, x0_cap(s.C, s.alpha))
    order = np.argsort(ds)
    checked, ok_rest, rest_rows = 0, True, []
    for idx in order:
        if checked >= _REST_POINTS:
            break
        d = ds[idx]
        if not 0.0 < d < zone:
            continue
        checked += 1
        report = rest_bound_check(domain, images[idx], derivative_at(f, ring[idx]))
        ok_rest &= report.satisfied
        rest_rows.append(
            {"d": report.d, "radius": report.radius, "bound": report.bound}
        )
    status = "pass" if (checked > 0 and ok_rest) else "fail"
    stages.append(
        PipelineStage("rest_bound", status, {"points": checked, "rows": rest_rows})
    )

    # (iii) majorant constants from the distance-decay fit, taken along the
    # ray where the image actually approaches the boundary
    theta_star = 2.0 * math.pi * int(order[0]) / _PROPERNESS_N_THETA
    fit = mercer_fit(candidate, theta=theta_star)
    alpha = params.majorant_alpha_override
    if alpha is None:
        alpha = s.alpha
    K1 = 4.0 * fit.beta ** (1.0 / alpha)
    K2 = (s.C / fit.C2) ** fit.beta
    r0 = min(_MAJORANT_R0, 0.9 * K2)
    family = DerivMajorantFamily(K1=K1, K2=K2, alpha=alpha, r0=r0)
    stages.append(
        PipelineStage(
            "majorant_fit",
            "pass",
            {
                "C1": fit.C1,
                "C2": fit.C2,
                "beta": fit.beta,
                "K1": K1,
                "K2": K2,
                "alpha": alpha,
                "r0": r0,
            },
        )
    )

    # (iv) integrability of the majorant
    integral: QuadratureResult = phi_log_l1(family, 0)
    stages.append(
        PipelineStage(
            "majorant_integrable",
            "pass" if integral.converged else "fail",
            {
                "converged": integral.converged,
                "value": integral.value if integral.converged else None,
                "note": None if integral.converged else "majorant not integrable",
            },
        )
    )

    # (v) boundary-extension probe
    probe = boundary_extension_probe(
        candidate, n_theta=params.probe_n_theta, tol_ext=_PROBE_TOL_EXT
    )
    stages.append(
        PipelineStage(
            "extension_probe",
            "pass" if probe.verdict.startswith("extends") else "fail",
            {"verdict": probe.verdict, "omega_min": probe.omega_min},
        )
    )

    ok = all(stage.status == "pass" for stage in stages)
    return PipelineReport(tuple(stages), ok)
