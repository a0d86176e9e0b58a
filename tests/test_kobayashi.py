"""Geodesic machinery: metric bounds, defects, probes, fits, pipeline."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from geodisc.convex_geometry import (
    Ball,
    FlatModelDomain,
    FlatSupport,
    Polydisc,
    boundary_distance,
)
from geodisc import disc_analysis
from geodisc.disc_analysis import (
    boundary_samples,
    constant_map,
    modulus_profile,
    scalar_function,
    vector_function,
)
from geodisc.hardy_littlewood import DerivMajorantFamily
from geodisc.kobayashi import (
    _PROBE_DELTAS,
    GeodesicCandidate,
    PipelineParams,
    boundary_extension_probe,
    disc_automorphism,
    flat_slice_candidate,
    geodesic_defect,
    graham_bounds,
    mercer_fit,
    nonextending_geodesic,
    poincare_distance,
    polydisc_distance,
    theorem_pipeline,
)


def _polydisc_metric_oracle(z, v) -> float:
    """Exact product-domain metric on the unit polydisc."""
    return max(abs(vi) / (1.0 - abs(zi) ** 2) for zi, vi in zip(z, v))


def pipeline_domain() -> FlatModelDomain:
    # R0 at the convexity cap (alpha/(alpha+1))^(1/alpha) = 1/9 for alpha=1/2;
    # s0 sized so the inscribed slice disc clears the 0.05 properness gate
    return FlatModelDomain(FlatSupport(1.0, 0.5, 1.0 / 9.0, 0.08))


# --- Poincare geometry -------------------------------------------------------

def test_poincare_distance_basics():
    assert poincare_distance(0.0, 0.0) == 0.0
    a, b = 0.3 + 0.2j, -0.5j
    assert abs(poincare_distance(a, b) - poincare_distance(b, a)) < 1e-15
    assert abs(poincare_distance(0.0, 0.5) - 0.5 * math.log(3.0)) < 1e-15


def test_poincare_rejects_boundary_points():
    with pytest.raises(ValueError, match="outside unit disc"):
        poincare_distance(1.0, 0.0)


def test_poincare_triangle_inequality_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pts = 0.95 * rng.random(3) * np.exp(2j * math.pi * rng.random(3))
        a, b, c = (complex(p) for p in pts)
        assert poincare_distance(a, c) <= (
            poincare_distance(a, b) + poincare_distance(b, c) + 1e-12
        )


# --- automorphisms -----------------------------------------------------------

def test_automorphism_identity_case():
    auto = disc_automorphism(0.0, 0.0)
    for z in (0.0, 0.3 + 0.4j, -0.9j):
        assert abs(auto(z)[0] - z) < 1e-15


def test_automorphism_composes_with_inverse():
    a, phi = 0.4 - 0.2j, 1.3
    auto = disc_automorphism(a, phi)
    inverse = disc_automorphism(-cmath.exp(1j * phi) * a, -phi)
    rng = np.random.default_rng(4)
    for _ in range(25):
        z = complex(0.95 * rng.random() * cmath.exp(2j * math.pi * rng.random()))
        assert abs(inverse(auto(z)[0])[0] - z) < 1e-12


def test_automorphism_moves_origin():
    a, phi = 0.3 + 0.1j, 0.7
    auto = disc_automorphism(a, phi)
    assert abs(auto(0.0)[0] - (-cmath.exp(1j * phi) * a)) < 1e-15


def test_automorphism_is_poincare_isometry():
    auto = disc_automorphism(0.5j, 2.0)
    z1, z2 = 0.2 + 0.1j, -0.6
    assert abs(
        poincare_distance(auto(z1)[0], auto(z2)[0]) - poincare_distance(z1, z2)
    ) < 1e-12


# --- polydisc distance -------------------------------------------------------

def test_polydisc_distance_basics():
    unit = (1.0, 1.0)
    assert polydisc_distance([0.1, 0.2j], [0.1, 0.2j], unit) == 0.0
    assert abs(polydisc_distance([0.0, 0.0], [0.5, 0.0], unit) - 0.5 * math.log(3.0)) < 1e-15


def test_polydisc_distance_coordinate_max():
    z = np.array([0.5, 0.3])
    w = np.array([0.5, 0.3j])
    per_coord = [poincare_distance(a, b) for a, b in zip(z, w)]
    assert abs(polydisc_distance(z, w, (1.0, 1.0)) - max(per_coord)) < 1e-15


def test_polydisc_distance_rejects_outside():
    with pytest.raises(ValueError, match="outside polydisc"):
        polydisc_distance([1.5, 0.0], [0.0, 0.0], (1.0, 1.0))


# --- Graham bounds -----------------------------------------------------------

def test_graham_bounds_ball_center():
    ball = Ball(np.zeros(2), 1.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        raw = rng.standard_normal(4)
        v = raw[:2] + 1j * raw[2:]
        norm = float(np.linalg.norm(v))
        bounds = graham_bounds(ball, [0.0, 0.0], v)
        # Schwarz-lemma oracle: the metric at the center of the unit ball is
        # the Euclidean norm; r is exactly 1
        assert abs(bounds.lower - 0.5 * norm) < 1e-9 * norm
        assert abs(bounds.upper - norm) < 1e-9 * norm
        assert bounds.lower <= norm <= bounds.upper + 1e-9


def test_graham_bounds_bidisc_center_axis():
    square = Polydisc((1.0, 1.0))
    bounds = graham_bounds(square, [0.0, 0.0], [1.0, 0.0])
    assert abs(bounds.lower - 0.5) < 1e-10
    assert abs(bounds.upper - 1.0) < 1e-10  # exact metric = 1 sits inside


def test_graham_bounds_zero_direction():
    bounds = graham_bounds(Polydisc((1.0,)), [0.0], [0.0])
    assert bounds.lower == bounds.upper == 0.0


def test_graham_bounds_reject_outside_base():
    flat = FlatModelDomain(FlatSupport(1.0, 0.5, 1.0 / 9.0, 0.1))
    for domain, z, v in ((Polydisc((1.0, 1.0)), [1.5, 0.0], [1.0, 0.0]),
                         (flat, [0.0, -0.01j], [0.0, 1.0])):
        with pytest.raises(ValueError, match="base point outside domain"):
            graham_bounds(domain, z, v)


def test_graham_sandwich_polydisc_random_directions():
    square = Polydisc((1.0, 1.0))
    rng = np.random.default_rng(21)
    for _ in range(20):
        raw = rng.standard_normal(4)
        v = raw[:2] + 1j * raw[2:]
        exact = _polydisc_metric_oracle([0.0, 0.0], v)
        bounds = graham_bounds(square, [0.0, 0.0], v)
        assert bounds.lower <= exact + 1e-9
        assert exact <= bounds.upper + 1e-9


# --- the non-extending geodesic ----------------------------------------------

def test_nonextending_component_stays_in_half_disc():
    candidate = nonextending_geodesic()
    rng = np.random.default_rng(17)
    for _ in range(1000):
        zeta = complex(
            0.999 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        )
        value = candidate.map(zeta)
        # Re((1+z)/(z-1)) <= 0 on the disc forces |f2| < 1/2
        assert ((1.0 + zeta) / (zeta - 1.0)).real <= 1e-12
        assert abs(value[1]) < 0.5
    assert candidate.image_inside()


def test_nonextending_defect_vanishes():
    candidate = nonextending_geodesic()
    rng = np.random.default_rng(23)
    for _ in range(100):
        z1, z2 = (
            complex(0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()))
            for _ in range(2)
        )
        assert geodesic_defect(candidate, z1, z2) <= 1e-10


def test_defect_zero_for_automorphism_first_coordinate():
    # any (automorphism, Schwarz-Pick-contracted second coordinate) pair is a
    # polydisc geodesic: the max of the coordinate distances is the first one
    auto = disc_automorphism(0.3 + 0.2j, 0.9)
    mapping = vector_function(
        [lambda z: auto(z)[0], lambda z: 0.25 * z * z + 0.1]
    )
    candidate = GeodesicCandidate(mapping, Polydisc((1.0, 1.0)), "polydisc_explicit")
    rng = np.random.default_rng(29)
    for _ in range(50):
        z1, z2 = (
            complex(0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()))
            for _ in range(2)
        )
        assert geodesic_defect(candidate, z1, z2) <= 1e-10


def test_defect_positive_for_non_geodesic():
    mapping = vector_function([lambda z: z * z, lambda z: 0.0 * z])
    candidate = GeodesicCandidate(mapping, Polydisc((1.0, 1.0)))
    defect = geodesic_defect(candidate, 0.0, 0.5)
    expected = math.atanh(0.5) - math.atanh(0.25)  # p(0, 1/2) - p(0, 1/4)
    assert abs(defect - expected) < 1e-12
    assert abs(expected - 0.29389) < 1e-4


def test_defect_interval_route_on_the_disc_as_ball():
    # f = id into the unit ball of C^1: the true distance is the Poincare
    # distance, which must land inside the integrated two-sided bounds
    ball = Ball(np.zeros(1), 1.0)
    candidate = GeodesicCandidate(scalar_function(lambda z: z), ball)
    assert geodesic_defect(candidate, 0.0, 0.5) == 0.0
    assert geodesic_defect(candidate, 0.2j, -0.4) == 0.0


def test_kappa_along_polydisc_geodesic_matches_disc_metric():
    candidate = nonextending_geodesic()
    f = candidate.map
    rng = np.random.default_rng(31)
    for _ in range(20):
        zeta = complex(0.9 * rng.random() * cmath.exp(2j * math.pi * rng.random()))
        kappa = _polydisc_metric_oracle(f(zeta), f.derivative(zeta))
        assert abs(kappa - 1.0 / (1.0 - abs(zeta) ** 2)) < 1e-10


# --- boundary-extension probe --------------------------------------------------

def test_probe_extends_for_identity_pair():
    report = boundary_extension_probe(_pair_identity_zero(), n_theta=2048, tol_ext=5e-3)
    assert report.verdict == "extends (numerically)"
    assert report.omega_min < 5e-3


def test_probe_extends_for_constant_second_coordinate():
    mapping = vector_function([lambda z: z, lambda z: 0.3 + 0.0 * z])
    candidate = GeodesicCandidate(mapping, Polydisc((1.0, 1.0)), "polydisc_explicit")
    report = boundary_extension_probe(candidate, n_theta=2048, tol_ext=5e-3)
    assert report.verdict == "extends (numerically)"


@pytest.mark.parametrize("tol_ext", [0.0, -1e-3])
def test_probe_rejects_nonpositive_tolerance(tol_ext):
    # a constant map trivially extends, but with no positive tolerance the
    # verdict would read "fails"
    candidate = GeodesicCandidate(constant_map([0.1, 0.2j]), Polydisc((1.0, 1.0)))
    with pytest.raises(ValueError, match="tol_ext"):
        boundary_extension_probe(candidate, n_theta=64, tol_ext=tol_ext)


def test_probe_fails_for_nonextending_geodesic():
    report = boundary_extension_probe(
        nonextending_geodesic(), n_theta=2048, tol_ext=1e-3
    )
    assert report.verdict == "fails"
    # oscillation of (1/2) e^{-i cot(theta/2)} realizes diameter ~1 near 0
    assert float(np.min(report.profile.omegas[:4])) >= 0.9


def _pair_identity_zero() -> GeodesicCandidate:
    mapping = vector_function([lambda z: z, lambda z: 0.0 * z])
    return GeodesicCandidate(mapping, Polydisc((1.0, 1.0)), "polydisc_explicit")


@pytest.mark.parametrize("n", [8, 9, 2048, 4096, 8192, 12000, 16384])
@pytest.mark.parametrize("make", [nonextending_geodesic, _pair_identity_zero])
def test_probe_profile_is_the_judged_prefix_of_the_full_ladder(make, n):
    # the probe reads the four smallest resolving deltas of pi 2^-j, j <= 12
    # (three on grids under 16 nodes), bit for bit as the full ladder has them
    candidate = make()
    full = modulus_profile(boundary_samples(candidate.map, n), _PROBE_DELTAS)
    report = boundary_extension_probe(candidate, n_theta=n)
    judged = min(4, full.deltas.size)
    assert judged == (3 if n < 16 else 4)
    assert report.profile.deltas.tolist() == full.deltas[:judged].tolist()
    assert report.profile.omegas.tolist() == full.omegas[:judged].tolist()


def test_probe_sweeps_only_the_judged_lags(monkeypatch):
    # at 65536 nodes the largest judged delta, pi 2^-9, is 64 grid steps
    swept = []
    lag_maxima = disc_analysis._lag_maxima

    def recording(samples, max_lag):
        swept.append(max_lag)
        return lag_maxima(samples, max_lag)

    monkeypatch.setattr(disc_analysis, "_lag_maxima", recording)
    report = boundary_extension_probe(nonextending_geodesic(), n_theta=65536)
    assert report.verdict == "fails"
    assert swept and max(swept) <= 64


def test_probe_oscillation_oracle_dyadic_refinement():
    # boundary phase oracle on dyadically refined angles near theta = 0: the
    # sampled values of (1/2) e^{-i cot(theta/2)} attain diameter ~1
    thetas = math.pi * 2.0 ** (-np.arange(8, 24, dtype=float))
    values = 0.5 * np.exp(-1j / np.tan(thetas / 2.0))
    diam = max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]
    )
    assert diam >= 0.9


# --- distance decay fit ---------------------------------------------------------

def test_mercer_fit_identity_disc_exact():
    candidate = GeodesicCandidate(
        scalar_function(lambda z: z), Polydisc((1.0,))
    )
    fit = mercer_fit(candidate)
    assert abs(fit.C1 - 1.0) <= 1e-12
    assert abs(fit.C2 - 1.0) <= 1e-12
    assert abs(fit.beta - 1.0) <= 1e-9
    assert fit.residual <= 1e-12


def test_mercer_fit_pair_identity_zero():
    mapping = vector_function([lambda z: z, lambda z: 0.0 * z])
    candidate = GeodesicCandidate(mapping, Polydisc((1.0, 1.0)))
    fit = mercer_fit(candidate)
    assert abs(fit.C1 - 1.0) <= 1e-12
    assert abs(fit.C2 - 1.0) <= 1e-12
    assert abs(fit.beta - 1.0) <= 1e-9


def test_mercer_fit_nonextending_constraints_hold():
    candidate = nonextending_geodesic()
    fit = mercer_fit(candidate)
    assert fit.residual <= 1e-6
    for r in 1.0 - np.geomspace(0.5, 1e-6, 25):  # the fit's radii
        # closed-form distance for the unit bidisc: min(1 - r, 1 - |f2(r)|)
        f2 = 0.5 * cmath.exp((1.0 + r) / (r - 1.0))
        d = min(1.0 - r, 1.0 - abs(f2))
        assert fit.C1 * (1.0 - r) <= d + 1e-12
        assert d <= fit.C2 * (1.0 - r) ** (1.0 / fit.beta) + 1e-12
        assert abs(d - boundary_distance(candidate.domain, candidate.map(complex(r)))) < 1e-14


# --- pipeline -------------------------------------------------------------------

def test_pipeline_end_to_end_flat_slice():
    domain = pipeline_domain()
    candidate = flat_slice_candidate(domain, 0.04j, 0.04)
    assert candidate.image_inside()
    report = theorem_pipeline(domain, candidate)
    assert report.stage("properness").status == "pass"
    assert report.stage("rest_bound").status == "pass"
    assert report.stage("majorant_fit").status == "pass"
    assert report.stage("majorant_integrable").status == "pass"
    assert report.stage("extension_probe").status == "pass"
    assert report.ok

    fit = report.stage("majorant_fit").details
    assert fit["alpha"] == 0.5
    assert fit["K1"] >= 4.0
    assert fit["K2"] > fit["r0"]

    # the fitted family majorizes the candidate derivative near the boundary
    from geodisc.hardy_littlewood import verify_majorant

    family = DerivMajorantFamily(
        K1=fit["K1"], K2=fit["K2"], alpha=fit["alpha"], r0=fit["r0"]
    )
    assert verify_majorant(candidate.map, family).verified()


def test_pipeline_flags_noninteg_majorant_at_alpha_one():
    domain = pipeline_domain()
    candidate = flat_slice_candidate(domain, 0.04j, 0.04)
    report = theorem_pipeline(
        domain, candidate, PipelineParams(majorant_alpha_override=1.0)
    )
    stage = report.stage("majorant_integrable")
    assert stage.status == "fail"
    assert stage.details["note"] == "majorant not integrable"
    assert report.stage("extension_probe").status == "pass"  # probe still runs
    assert not report.ok


def test_pipeline_rejects_candidate_on_another_domain():
    domain = pipeline_domain()
    other = FlatModelDomain(FlatSupport(2.0, 0.5, 1.0 / 9.0, 0.08))
    with pytest.raises(ValueError, match="candidate domain does not match"):
        theorem_pipeline(domain, flat_slice_candidate(other, 0.04j, 0.04))


def test_pipeline_aborts_for_constant_map():
    # a roomier model: the constant image sits 0.15 > 0.05 from the boundary
    domain = FlatModelDomain(FlatSupport(1.0, 0.5, 1.0 / 9.0, 0.3))
    candidate = flat_slice_candidate(domain, 0.15j, 0.0)
    report = theorem_pipeline(domain, candidate)
    assert report.stage("properness").status == "fail"
    assert report.stage("rest_bound").status == "skipped"
    assert not report.ok
