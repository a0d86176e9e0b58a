"""Geodesic candidates and the boundary-extension pipeline.

Poincare geometry on the disc, geodesic candidates (a disc map paired
with the domain it maps into: the explicit non-extending geodesic of the
bidisc, whose map is ``disc_analysis.nonextending_map``, and the affine
discs of a flat model's slice), geodesic defects, empirical
boundary-extension probes, distance decay fits along candidates, and the
staged pipeline that chains properness, the flatness bound, the fitted
derivative majorant, its integrability, and the extension probe.  The
built-in disc maps live in ``disc_analysis``.  Graham's metric bounds
(``graham_bounds``, ``MetricBounds``) live in ``convex_geometry`` beside
the inscribed radius they read, and are re-exported here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .convex_geometry import (
    ConvexDomainModel,
    FlatModelDomain,
    MetricBounds,
    Polydisc,
    RestBoundReport,
    ball_distance,
    boundary_distance,
    graham_bounds,
    inscribed_disc_radius,
)
from .disc_analysis import (
    ModulusProfile,
    UnitDiscFunction,
    boundary_samples,
    derivative_at,
    grid_lag,
    modulus_profile,
    nonextending_map,
    stack_components,
)
from .hardy_littlewood import Majorant, phi_log_l1, verify_majorant


# --- Poincare geometry -------------------------------------------------------

def _image_distances(domain: ConvexDomainModel, images: np.ndarray) -> np.ndarray:
    """Boundary distances of a candidate map's image points, one stack.  The
    map has the domain's dimension, so the only image ``boundary_distance``
    rejects is one outside the domain, and it is reported as such."""
    try:
        return boundary_distance(domain, images)
    except ValueError:
        raise ValueError("image point outside domain") from None


def poincare_distance(z1: complex, z2: complex) -> float:
    """The Poincare distance: the unit ball's Kobayashi distance in C^1."""
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise ValueError("point outside unit disc")
    return ball_distance(z1, z2)


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


def nonextending_geodesic() -> GeodesicCandidate:
    """The explicit bidisc geodesic ``disc_analysis.nonextending_map``, whose
    second component has no continuous boundary extension.

    The first coordinate is the identity, an automorphism, so the map is a
    complex geodesic of the bidisc; the second is (1/2) exp((1+z)/(z-1)),
    bounded by 1/2 because Re((1+z)/(z-1)) <= 0 on the disc, with radial
    limit 0 at theta = 0 but unimodular oscillation (1/2) e^{-i cot(theta/2)}
    elsewhere.
    """
    return GeodesicCandidate(nonextending_map(), Polydisc((1.0, 1.0)), "polydisc_explicit")


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
    """Deviation of the candidate from the isometry identity p(zeta1,
    zeta2) = K(f(zeta1), f(zeta2)): the distance from p to the domain's ends
    [lower, upper] of K (``ConvexDomainModel.kobayashi``), zero when p lies
    between them.  Where K is exact (polydiscs and balls) it is |p - K|.
    Elsewhere the ends are the chord's [L, 2L], and since L does not bound
    K, a true geodesic can show a positive defect.  An image on the
    boundary, where K is infinite, is rejected.
    """
    p = poincare_distance(zeta1, zeta2)
    f = candidate.map
    z1, z2 = f(zeta1), f(zeta2)
    for z in (z1, z2):
        where = candidate.domain.membership(z)
        if where == "outside":
            raise ValueError("image point outside domain")
        if where == "boundary":
            raise ValueError("image point on the boundary, where K is infinite")
    lower, upper = candidate.domain.kobayashi(z1, z2)
    return max(lower - p, p - upper, 0.0)


# --- boundary-extension probe ------------------------------------------------

_PROBE_DELTAS = tuple(math.pi * 2.0 ** (-j) for j in range(13))


@dataclass(frozen=True)
class ProbeReport:
    verdict: str
    profile: ModulusProfile
    cauchy_fraction: float

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
    judged = [d for d in _PROBE_DELTAS if grid_lag(d, n_theta) >= 1][-4:]
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
    return ProbeReport(verdict, profile, samples.cauchy_fraction)


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
    A constant past the largest double raises ``FloatingPointError``.
    """
    rs = _MERCER_RADII
    ds = _image_distances(candidate.domain, candidate.map.values(cmath.exp(1j * theta) * rs))
    if np.any(ds <= 0.0):
        raise ValueError("image touches boundary")
    one_minus = 1.0 - rs

    with np.errstate(over="raise"):
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
    status: str  # pass, fail or skipped
    details: dict


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[PipelineStage, ...]

    @property
    def ok(self) -> bool:
        return all(stage.status == "pass" for stage in self.stages)


# Fixed rules of the pipeline: its stages in order, the properness circle,
# its angle grid and the distance every image on it must come within, the
# number of boundary-zone points checked against the rest bound, the
# majorant window cap and the probe's grid.
_STAGES = ("properness", "rest_bound", "majorant_fit", "majorant_integrable",
           "extension_probe")
_PROPERNESS_RADIUS = 0.999
_PROPERNESS_N_THETA = 64
_PROPERNESS_THRESHOLD = 0.05
_REST_POINTS = 4
_MAJORANT_R0 = 0.25
_PROBE_N_THETA = 4096


def theorem_pipeline(candidate: GeodesicCandidate) -> PipelineReport:
    """Chain the stages of the continuous-extension argument on a candidate
    in a flat model, its own ``candidate.domain``.

    (i) properness diagnostic: the images of the 64 points on the circle of
    radius 0.999 must all lie within 0.05 of the boundary; (ii) the
    inscribed-radius bound at the 4 of them nearest the boundary in its
    zone; (iii) a derivative majorant (K1/x)(log(K2/x))^{-1/alpha} with
    K1 = 4 beta^{1/alpha} and K2 = (C/C2)^beta from the distance-decay
    fit and alpha the model's own flatness exponent, verified against |f'|
    by :func:`verify_majorant`; (iv) integrability of the majorant; (v) the
    boundary-extension probe on 4096 nodes.  These counts and the 0.05 are
    fixed rules (the constants above), not options.  A properness failure
    skips the remaining stages; an unverified or divergent majorant is
    reported and the probe still runs.  A candidate in any other domain is
    rejected before the first stage.
    """
    domain: FlatModelDomain = candidate.domain
    if domain.kind != "flat_model":
        raise ValueError("the pipeline needs a candidate in a flat model domain")
    s = domain.support
    stages: list[PipelineStage] = []

    def record(passed: bool, **details) -> None:
        """The next stage of ``_STAGES``, passed or failed, with its details."""
        stages.append(PipelineStage(_STAGES[len(stages)], "pass" if passed else "fail", details))

    # (i) properness
    f = candidate.map
    ring = _PROPERNESS_RADIUS * np.exp(
        2j * math.pi * np.arange(_PROPERNESS_N_THETA) / _PROPERNESS_N_THETA
    )
    images = f.values(ring)
    ds = _image_distances(domain, images)
    worst = float(np.max(ds))
    proper = worst < _PROPERNESS_THRESHOLD
    record(proper, max_distance=worst, threshold=_PROPERNESS_THRESHOLD)
    if not proper:
        stages.extend(PipelineStage(name, "skipped", {}) for name in _STAGES[1:])
        return PipelineReport(tuple(stages))

    # (ii) inscribed-radius bound at the deepest samples in the graph's zone
    order = np.argsort(ds)
    zoned = ((i, d) for i in order if (d := domain.zone_depth(images[i])) is not None)
    checks = [
        RestBoundReport.of(s, d, inscribed_disc_radius(domain, images[i],
                                                       derivative_at(f, ring[i])))
        for i, d in islice(zoned, _REST_POINTS)
    ]
    record(bool(checks) and all(c.satisfied for c in checks), points=len(checks),
           rows=[{"d": c.d, "radius": c.radius, "bound": c.bound} for c in checks])

    # (iii) majorant constants from the distance-decay fit, taken along the
    # ray where the image actually approaches the boundary
    theta_star = 2.0 * math.pi * int(order[0]) / _PROPERNESS_N_THETA
    fit = mercer_fit(candidate, theta=theta_star)
    K1 = 4.0 * fit.beta ** (1.0 / s.alpha)
    K2 = (s.C / fit.C2) ** fit.beta
    if not math.isfinite(K2):
        raise OverflowError("K2 = (C/C2)^beta exceeds the largest double")
    r0 = min(_MAJORANT_R0, 0.9 * K2)
    family = Majorant.family(K1=K1, K2=K2, alpha=s.alpha, r0=r0)
    fitted = verify_majorant(f, family)
    record(fitted.verified(), C1=fit.C1, C2=fit.C2, beta=fit.beta, K1=K1, K2=K2,
           alpha=s.alpha, r0=r0, max_violation=fitted.max_violation)

    # (iv) integrability of the majorant
    integral = phi_log_l1(family, 0)
    record(integral.converged, converged=integral.converged, value=integral.limit,
           note=None if integral.converged else "majorant not integrable")

    # (v) boundary-extension probe
    probe = boundary_extension_probe(candidate, n_theta=_PROBE_N_THETA)
    record(probe.verdict.startswith("extends"), verdict=probe.verdict,
           omega_min=probe.omega_min)
    return PipelineReport(tuple(stages))
