"""Geodesic machinery: metric bounds, defects, probes, fits, pipeline."""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc.convex_geometry import (
    Ball,
    FlatModelDomain,
    FlatSupport,
    HalfspaceIntersection,
    Polydisc,
    boundary_distance,
    rest_bound_check,
)
from geodisc import convex_geometry, disc_analysis, kobayashi
from geodisc.disc_analysis import (
    UnitDiscFunction,
    boundary_samples,
    constant_map,
    derivative_at,
    disc_automorphism,
    identity_map,
    modulus_profile,
    scalar_function,
    stack_components,
    vector_function,
)
from geodisc.hardy_littlewood import Majorant
from geodisc.numerics import QuadratureResult, gauss_panel
from geodisc.kobayashi import (
    _PROBE_DELTAS,
    GeodesicCandidate,
    boundary_extension_probe,
    flat_slice_candidate,
    geodesic_defect,
    graham_bounds,
    mercer_fit,
    nonextending_geodesic,
    poincare_distance,
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


# --- exact distances through the pieces ---------------------------------------

def test_polydisc_distance_basics():
    # zeta -> (zeta, 0) is a geodesic, so its defect is |p - K| = 0 with
    # K((0, 0), (0.5, 0)) = p(0, 0.5) = log(3) / 2
    candidate = GeodesicCandidate(vector_function([lambda z: z, lambda z: 0.0 * z]),
                                  Polydisc((1.0, 1.0)))
    assert geodesic_defect(candidate, 0.1 + 0.2j, 0.1 + 0.2j) == 0.0
    assert geodesic_defect(candidate, 0.0, 0.5) <= 1e-15


@pytest.mark.parametrize("zeta1, zeta2", [(0.1, 0.3j), (0.8, -0.7j), (0.5j, 0.9)])
def test_polydisc_distance_coordinate_max(zeta1, zeta2):
    # K is the larger of the coordinates' Poincare distances, after each
    # coordinate is rescaled by its radius (exactly, by powers of two)
    square = lambda z: z * z
    for radii in ((1.0, 1.0), (2.0, 0.5)):
        mapping = vector_function([lambda z: radii[0] * square(z), lambda z: radii[1] * 0.5 * z])
        candidate = GeodesicCandidate(mapping, Polydisc(radii))
        per_coord = [poincare_distance(square(zeta1), square(zeta2)),
                     poincare_distance(0.5 * zeta1, 0.5 * zeta2)]
        expected = abs(poincare_distance(zeta1, zeta2) - max(per_coord))
        assert abs(geodesic_defect(candidate, zeta1, zeta2) - expected) < 1e-15


def test_polydisc_distance_rejects_outside():
    # a constant image outside the polydisc; the distance is read only
    # between interior points
    candidate = GeodesicCandidate(constant_map([1.5, 0.0]), Polydisc((1.0, 1.0)))
    with pytest.raises(ValueError, match="image point outside domain"):
        geodesic_defect(candidate, 0.0, 0.5)


def test_polydisc_distance_rejects_mismatched_lengths():
    # a one-coordinate map cannot pair with a bidisc, so the pieces never
    # read points of the wrong length
    with pytest.raises(ValueError, match="map dimension does not match domain"):
        GeodesicCandidate(identity_map(), Polydisc((1.0, 1.0)))


@pytest.mark.parametrize("make", [
    lambda: GeodesicCandidate(constant_map([1.0, 0.2]), Polydisc((1.0, 1.0))),
    lambda: GeodesicCandidate(constant_map([1.0]), Ball(np.zeros(1), 1.0)),
    lambda: flat_slice_candidate(pipeline_domain(), 0.0, 0.0),
], ids=["polydisc", "ball", "flat_model"])
def test_defect_rejects_an_image_on_the_boundary(make):
    # K is infinite there: the polydisc said "point outside polydisc", the
    # ball reported a defect of 0.549 and the flat model returned p
    with pytest.raises(ValueError, match="image point on the boundary"):
        geodesic_defect(make(), 0.0, 0.5)


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


@pytest.mark.parametrize("v, length", [
    ([1e-160, 1e-160], math.sqrt(2.0) * 1e-160),
    ([1e-200, 0.0], 1e-200),
    ([1e200, 0.0], 1e200),
])
def test_graham_bounds_at_extreme_direction_lengths(v, length):
    # ||v||^2 underflows or overflows for these: 1e-200 gave (0, 0) and
    # 1e200 gave (nan, nan); the radius is sqrt 2 along (1, 1), else 1
    square = Polydisc((1.0, 1.0))
    radius = math.sqrt(2.0) if v[1] else 1.0
    bounds = graham_bounds(square, [0.0, 0.0], v)
    assert bounds.lower == pytest.approx(length / (2.0 * radius), rel=1e-15, abs=0.0)
    assert bounds.upper == pytest.approx(length / radius, rel=1e-15, abs=0.0)


def test_graham_bounds_zero_direction():
    bounds = graham_bounds(Polydisc((1.0,)), [0.0], [0.0])
    assert bounds.lower == bounds.upper == 0.0


def test_graham_bounds_zero_direction_checks_base_and_length():
    # the v = 0 shortcut returned (0, 0) before any check
    square = Polydisc((1.0, 1.0))
    with pytest.raises(ValueError, match="base point outside domain"):
        graham_bounds(square, [5.0, 5.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="direction has wrong dimension"):
        graham_bounds(square, [0.0, 0.0], [0.0, 0.0, 0.0])


def test_graham_bounds_reject_outside_base():
    flat = FlatModelDomain(FlatSupport(1.0, 0.5, 1.0 / 9.0, 0.1))
    for domain, z, v in ((Polydisc((1.0, 1.0)), [1.5, 0.0], [1.0, 0.0]),
                         (flat, [0.0, -0.01j], [0.0, 1.0])):
        with pytest.raises(ValueError, match="base point outside domain"):
            graham_bounds(domain, z, v)


def test_graham_bounds_reject_boundary_points():
    # on the boundary, or up to the membership tolerance outside it, the
    # inscribed radius is 0 and no finite bound exists; the radius read
    # -5e-13 just outside and the bounds check failed, and exactly on the
    # boundary the division by 0 escaped as ZeroDivisionError
    square = Polydisc((1.0, 1.0))
    for z in ([1.0, 0.0], [1.0 + 5e-13, 0.0], [0.3, -1.0j]):
        with pytest.raises(ValueError, match="point on the boundary"):
            graham_bounds(square, z, [1.0, 1.0])


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


def test_graham_and_rest_check_check_their_point_once(monkeypatch):
    # each checked its base point, then called inscribed_disc_radius, which
    # checked it again: graham_bounds took the norm of v twice and
    # rest_bound_check made two membership tests
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(convex_geometry, "_scaled_norm",
                        counted("norm", convex_geometry._scaled_norm))
    monkeypatch.setattr(FlatModelDomain, "signed_gap",
                        counted("gap", FlatModelDomain.signed_gap))
    domain, z, v = pipeline_domain(), [0.0, 0.01j], [0.6, 0.8j]
    for query in (graham_bounds, rest_bound_check):
        calls.clear()
        query(domain, z, v)
        assert calls == {"norm": 1, "gap": 1}, query.__name__
    # the direction is checked before the zone: this point is nearest a cap
    with pytest.raises(ValueError, match="direction must be nonzero"):
        rest_bound_check(domain, [0.0, 0.075 + 0.04j], [0.0, 0.0])


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
        assert candidate.domain.membership(value) != "outside"



@pytest.mark.parametrize("n", [8, 2048, 8192])
def test_nonextending_component_keeps_the_bits_of_its_expression(n):
    # built in one buffer, the second component equals 0.5 exp((1 + z)/(z - 1))
    # as numpy evaluates that on the tail grid of the probe: in place as
    # tmp * 0.5 from 256 KB (the 8192-node grid), as 0.5 * tmp below it
    z = disc_analysis._tail_grid(n).reshape(-1)
    expected = 0.5 * np.exp((1.0 + z) / (z - 1.0))
    values = nonextending_geodesic().map.values(z)
    assert values[:, 0].tobytes() == z.tobytes()
    assert values[:, 1].tobytes() == expected.tobytes()

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


def graham_chord_lower(domain, z1, z2) -> float:
    """The chord's lower end with each Gauss node's lower metric from
    ``graham_bounds``."""
    direction = z2 - z1
    metric = lambda t: np.array([
        graham_bounds(domain, z1 + s * direction, direction).lower for s in t.tolist()
    ])
    panels = np.arange(4)
    return sum(gauss_panel(metric, panels / 4, (panels + 1) / 4, 8).tolist())


def graham_interval_defect(candidate: GeodesicCandidate, zeta1: complex,
                           zeta2: complex) -> float:
    """The interval route through :func:`graham_chord_lower`: the distance
    from p to [L, 2L]."""
    p = poincare_distance(zeta1, zeta2)
    lower = graham_chord_lower(candidate.domain, candidate.map(zeta1), candidate.map(zeta2))
    return max(lower - p, p - 2.0 * lower, 0.0)


def test_defect_interval_route_matches_graham_bounds_at_each_node():
    # the nodes skip the base check and normalise the direction once, but
    # read the same radii: equal to the last bit
    rng = np.random.default_rng(24)
    domain = pipeline_domain()
    square = HalfspaceIntersection([([1.0], 1.0), ([-1.0], 1.0), ([1j], 1.0), ([-1j], 1.0)])
    for _ in range(40):
        y0 = rng.uniform(0.01, 0.04)
        radius = 0.9 * min(y0 - 1e-3, 0.08 - y0)
        offset = rng.uniform(0.0, 0.02)
        candidates = [
            flat_slice_candidate(domain, 1j * y0, radius),
            GeodesicCandidate(vector_function(
                [lambda z, a=offset: a + 0.0 * z,
                 lambda z, c=1j * y0, r=radius: c + r * z]), domain),
            GeodesicCandidate(scalar_function(
                lambda z, c=complex(*rng.uniform(-0.3, 0.3, 2)): c + 0.6 * z), square),
        ]
        zeta1, zeta2 = (0.9 * cmath.rect(rng.random(), rng.uniform(0.0, 2.0 * math.pi))
                        for _ in range(2))
        for candidate in candidates:
            expected = graham_interval_defect(candidate, zeta1, zeta2)
            assert geodesic_defect(candidate, zeta1, zeta2) == expected


def test_domain_kobayashi_is_exact_on_polydiscs_and_balls_only():
    # a polydisc's distance is the largest of its coordinate discs'; a
    # ball's is artanh rho with 1 - rho^2 = (1 - |a|^2)(1 - |b|^2) /
    # |1 - <a, b>|^2 for the rescaled points a and b; both answer (K, K)
    # with K the largest of their pieces' answers, to the last bit
    rng = np.random.default_rng(31)

    def draw(radius, dim):
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return radius * rng.uniform(0.0, 0.9) * u / np.linalg.norm(u)

    def exact_ends(domain, z, w):
        ends = domain.kobayashi(z, w)
        assert ends == (max(piece.kobayashi(z, w) for piece in domain.pieces),) * 2
        return ends[0]

    radii = (0.5, 2.0, 1.0)
    polydisc = Polydisc(radii)
    center = np.array([0.1 + 0.2j, -0.3j])
    ball = Ball(center, 1.5)
    for _ in range(20):
        z = np.array([draw(r, 1)[0] for r in radii])
        w = np.array([draw(r, 1)[0] for r in radii])
        exact = max(math.atanh(abs((zk - wk) * r / (r * r - wk.conjugate() * zk)))
                    for zk, wk, r in zip(z, w, radii))
        assert exact_ends(polydisc, z, w) == pytest.approx(exact, rel=1e-12)

        a, b = draw(1.0, 2), draw(1.0, 2)
        s = (1.0 - np.vdot(a, a).real) * (1.0 - np.vdot(b, b).real)
        exact = math.atanh(math.sqrt(1.0 - s / abs(1.0 - np.vdot(b, a)) ** 2))
        K = exact_ends(ball, center + 1.5 * a, center + 1.5 * b)
        assert K == pytest.approx(exact, rel=1e-12)


def box_and_two_normals(rng, dim: int) -> list:
    """The rows of a quick_verdicts half-space domain: the box Re, Im z_k in
    [-b, b] (4 dim rows) and two random unit normals, each b in [0.5, 1.5].
    Every point of norm below 0.5 is inside."""
    rows = []
    for k in range(dim):
        for unit in (1.0, -1.0, 1j, -1j):
            a = np.zeros(dim, dtype=complex)
            a[k] = unit
            rows.append((a, rng.uniform(0.5, 1.5)))
    for _ in range(2):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rows.append((a / np.linalg.norm(a), rng.uniform(0.5, 1.5)))
    return rows


def in_ball(rng, dim: int, radius: float) -> np.ndarray:
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return radius * math.sqrt(rng.random()) * u / np.linalg.norm(u)


def flat_point(rng, dim: int, z_prime=None) -> np.ndarray:
    """A point of ``pipeline_domain`` (of that dimension) with ||z'|| <= 0.01
    and 0.02 <= Im z_n <= 0.06, at the given z' if one is given."""
    z_prime = in_ball(rng, dim - 1, 0.01) if z_prime is None else z_prime
    return np.append(z_prime, complex(rng.uniform(-0.01, 0.01), rng.uniform(0.02, 0.06)))


def test_domain_kobayashi_is_the_chord_elsewhere():
    # half-space intersections and the flat model answer (L, 2L), with L
    # the graham_bounds route at each node to the last bit, though the
    # chord reads its 32 nodes as one stack.  Flat chords with v' = 0 take
    # the graph's stacked affine exit; off the slice each flat node's radius
    # is a circle search, so those draws are few
    square = HalfspaceIntersection([([1.0], 1.0), ([-1.0], 1.0), ([1j], 1.0), ([-1j], 1.0)])
    rng = np.random.default_rng(33)
    flat2, flat3 = pipeline_domain(), FlatModelDomain(pipeline_domain().support, dimension=3)
    in_square = lambda: np.array([complex(*rng.uniform(-0.9, 0.9, 2))])
    cases = [(square, in_square, 10), (flat2, lambda: flat_point(rng, 2), 2),
             (flat3, lambda: flat_point(rng, 3), 1)]
    for dim in (2, 3):
        for _ in range(3):
            domain = HalfspaceIntersection(box_and_two_normals(rng, dim))
            cases.append((domain, lambda dim=dim: in_ball(rng, dim, 0.45), 4))
    for flat in (flat2, flat3):
        for z_prime in (np.zeros(flat.dimension - 1), in_ball(rng, flat.dimension - 1, 0.01)):
            cases.append((flat, lambda flat=flat, c=z_prime: flat_point(rng, flat.dimension, c), 4))
    # a redundant row nearly orthogonal to chords along e1, with a vast
    # offset: its radius quotient passes the largest double and reads inf
    vast = HalfspaceIntersection(box_and_two_normals(rng, 2) + [(np.array([1e-10, 1.0]), 1e300)])
    cases.append((vast, lambda: np.array([complex(*rng.uniform(-0.3, 0.3, 2)), 0.0]), 3))
    with np.errstate(over="raise"):
        for domain, draw, pairs in cases:
            for _ in range(pairs):
                z, w = draw(), draw()
                lower, upper = domain.kobayashi(z, w)
                assert lower == graham_chord_lower(domain, z, w)
                assert upper == 2.0 * lower > 0.0
    assert square.kobayashi(np.array([0.1j]), np.array([0.1j])) == (0.0, 0.0)
    # a stack whose rows have different z' takes each row's own height, at
    # the ray phase and at the worst phase, with v' = 0 and tilted; a
    # half-space the ray does not approach reads inf for every row
    stack = np.array([flat_point(rng, 3) for _ in range(32)])
    v = np.array([0.0, 0.0, cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))])
    tilted = np.array([0.6, 0.0, 0.8j])
    for u, rows in ((v, stack), (tilted, stack[:4])):
        for worst_phase, piece in itertools.product((False, True), flat3.pieces):
            exits = piece.exit(rows, u, worst_phase=worst_phase)
            assert np.broadcast_to(exits, len(rows)).tolist() == [
                piece.exit(z, u, worst_phase=worst_phase) for z in rows]


def test_the_chord_asks_each_piece_once(monkeypatch):
    # the chord's 32 nodes go to each piece's exit, at the worst phase, as
    # one stack; only a graph piece under a tilted direction (v' != 0) reads
    # them one by one
    calls = Counter()
    for piece_class in (convex_geometry.HalfspaceConstraint, convex_geometry.GraphConstraint):
        def counted(self, z, v, *, worst_phase, rule=piece_class.exit, name=piece_class.__name__):
            assert worst_phase
            calls[name] += 1
            return rule(self, z, v, worst_phase=worst_phase)
        monkeypatch.setattr(piece_class, "exit", counted)
    rng = np.random.default_rng(34)
    halfspaces = HalfspaceIntersection(box_and_two_normals(rng, 2))
    halfspaces.kobayashi(in_ball(rng, 2, 0.45), in_ball(rng, 2, 0.45))
    assert calls == {"HalfspaceConstraint": 10}
    flat = pipeline_domain()
    for tilted, graph_calls in ((False, 1), (True, 1 + 32)):
        calls.clear()
        z = flat_point(rng, 2)
        w = flat_point(rng, 2, None if tilted else z[:-1])
        flat.kobayashi(z, w)
        assert calls == {"HalfspaceConstraint": 3, "GraphConstraint": graph_calls}


_SCALE = dict(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-150.0, 150.0),
              angle=st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=60, deadline=None)
@given(**_SCALE)
def test_chord_ends_do_not_depend_on_scale(seed, log_scale, angle):
    # z -> lambda e^{i theta} z maps {Re<a, z> <= b} onto {Re<e^{i theta} a,
    # z> <= lambda b}, and z_n -> lambda z_n maps the flat model of (C, s0)
    # onto that of (lambda C, lambda s0), taking each slice disc to a slice
    # disc; the chord is the same.  A power of two with theta = 0 scales
    # every step exactly
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    rows = box_and_two_normals(rng, dim)
    z, w = in_ball(rng, dim, 0.45), in_ball(rng, dim, 0.45)
    support = pipeline_domain().support
    z_prime = in_ball(rng, dim - 1, 0.01)
    p, q = flat_point(rng, dim, z_prime), flat_point(rng, dim, z_prime)
    ends = HalfspaceIntersection(rows).kobayashi(z, w)
    flat_ends = FlatModelDomain(support, dim).kobayashi(p, q)

    def scaled(scale, turn):
        domain = HalfspaceIntersection([(turn * a, scale * b) for a, b in rows])
        flat = FlatModelDomain(FlatSupport(scale * support.C, support.alpha, support.R0,
                                           scale * support.s0), dim)
        on_slice = np.append(np.ones(dim - 1), scale)
        return (domain.kobayashi(scale * turn * z, scale * turn * w),
                flat.kobayashi(on_slice * p, on_slice * q))

    general, flat_general = scaled(10.0**log_scale, cmath.exp(1j * angle))
    assert general == pytest.approx(ends, rel=1e-12)
    assert flat_general == pytest.approx(flat_ends, rel=1e-12)
    assert scaled(2.0 ** round(log_scale * math.log2(10.0)), 1.0) == (ends, flat_ends)


def test_defect_of_a_constant_flat_map_is_p():
    candidate = flat_slice_candidate(pipeline_domain(), 0.03j, 0.0)
    assert geodesic_defect(candidate, 0.1, 0.5) == poincare_distance(0.1, 0.5)


def test_defect_exact_route_on_the_disc_as_ball():
    # an affine map of the disc onto a ball of C^1 is an isometry, and the
    # ball's own distance gives its defect
    for center, radius in ((0.0, 1.0), (0.3 - 0.1j, 2.0)):
        ball = Ball(np.array([center]), radius)
        candidate = GeodesicCandidate(scalar_function(lambda z: center + radius * z), ball)
        assert geodesic_defect(candidate, 0.0, 0.5) <= 1e-15
        assert geodesic_defect(candidate, 0.2j, -0.4) <= 1e-15


@pytest.mark.parametrize("r, angle", [(0.9, 0.5), (0.99, 0.05), (0.999, 0.01)])
def test_defect_vanishes_for_the_disc_as_ball_near_the_circle(r, angle):
    # the identity into the unit ball of C^1 is an isometry, and zeta ->
    # (zeta, 0) a complex geodesic of the unit ball of C^2, so their true
    # defect is 0; the chord-integrated interval reported 0.396, 2.269 and
    # 6.672 at these pairs for both
    zeta1, zeta2 = r * cmath.exp(1j * angle), r * cmath.exp(-1j * angle)
    for candidate in (
        GeodesicCandidate(identity_map(), Ball(np.zeros(1), 1.0)),
        GeodesicCandidate(vector_function([lambda z: z, lambda z: 0.0 * z]),
                          Ball(np.zeros(2), 1.0)),
    ):
        assert geodesic_defect(candidate, zeta1, zeta2) <= 1e-12


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


# --- the probe on maps whose answer is known (ROADMAP item 18) ------------------
#
# The probe reads the map alone; each candidate's domain only fixes its
# dimension.

def _scaled_nonextending(lam: float) -> GeodesicCandidate:
    """zeta -> (zeta, lam (1/2) e^{(1+zeta)/(zeta-1)}): a bidisc geodesic for
    every lam in (0, 1], with no continuous extension at 1."""
    return GeodesicCandidate(UnitDiscFunction(
        lambda z: stack_components(z, z, lam * 0.5 * np.exp((1.0 + z) / (z - 1.0))), 2),
        Polydisc((1.0, 1.0)))


def _small_log() -> GeodesicCandidate:
    """1e-4 log(2e/(1 - zeta)), unbounded near 1."""
    return GeodesicCandidate(UnitDiscFunction(
        lambda z: stack_components(z, 1e-4 * np.log(2.0 * math.e / (1.0 - z))), 1),
        Polydisc((2.0,)))


def _log_power(p: float) -> GeodesicCandidate:
    """The lemma's extremal map f_p = (log(K/(1 - zeta)))^{1-p}, K = 2e^p: for
    p > 1 it extends with f_p(1) = 0; for p <= 1 it is unbounded at 1."""
    K = 2.0 * math.exp(p)
    return GeodesicCandidate(UnitDiscFunction(
        lambda z: stack_components(z, np.log(K / (1.0 - z)) ** (1.0 - p)), 1),
        Polydisc((2.0,)))


@pytest.mark.xfail(strict=True, reason="tol_ext is absolute: a map that moves little across "
                   "the grid reads 'extends' whatever its continuity (ROADMAP item 18)")
@pytest.mark.parametrize("make, n", [
    (lambda: _scaled_nonextending(1e-4), 8192),
    (_small_log, 8192),
    (lambda: _log_power(0.9999), 4096),
    (lambda: _log_power(0.9999), 8192),
], ids=["scaled_geodesic-8192", "small_log-8192", "log_power_0.9999-4096",
        "log_power_0.9999-8192"])
def test_probe_never_reads_extends_for_a_map_with_no_extension(make, n):
    # each read "extends (numerically)": omega_min 7.7e-4, 9.6e-4, 8.1e-5 and 7.3e-5
    assert boundary_extension_probe(make(), n_theta=n).verdict != "extends (numerically)"


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_probe_never_fails_a_scaled_identity_pair(lam, n):
    # (lam zeta, 0) is a geodesic of the polydisc of radii (lam, 1) that extends
    candidate = GeodesicCandidate(
        UnitDiscFunction(lambda z: stack_components(z, lam * z, 0.0), 2), Polydisc((lam, 1.0)))
    assert boundary_extension_probe(candidate, n_theta=n).verdict != "fails"


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("p", [1.02, 1.5, 3.0])
def test_probe_never_fails_a_log_power_that_extends(p, n):
    assert boundary_extension_probe(_log_power(p), n_theta=n).verdict != "fails"


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


def test_mercer_fit_reads_its_images_as_one_stack_and_rejects_one_outside():
    # the 25 images are one boundary_distance stack, each row its own
    # distance; a map that leaves the disc near the boundary has rows
    # outside, and the fit names them as one image did
    candidate = nonextending_geodesic()
    rows = candidate.map.values(1j * kobayashi._MERCER_RADII)
    ds = kobayashi._image_distances(candidate.domain, rows)
    assert ds.tolist() == [boundary_distance(candidate.domain, z) for z in rows]
    leaving = GeodesicCandidate(scalar_function(lambda z: 1.01 * z), Polydisc((1.0,)))
    with pytest.raises(ValueError, match="^image point outside domain$"):
        mercer_fit(leaving)


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
    zeta = 0.999 * np.exp(2j * math.pi * np.arange(64) / 64)
    assert all(domain.membership(z) != "outside" for z in candidate.map.values(zeta))
    report = theorem_pipeline(candidate)
    stages = {stage.name: stage for stage in report.stages}
    assert list(stages) == ["properness", "rest_bound", "majorant_fit",
                            "majorant_integrable", "extension_probe"]
    assert all(stage.status == "pass" for stage in stages.values())
    assert report.ok

    fit = stages["majorant_fit"].details
    assert fit["alpha"] == 0.5
    assert fit["K1"] >= 4.0
    assert fit["K2"] > fit["r0"]

    # the fitted family majorizes the candidate derivative near the boundary
    from geodisc.hardy_littlewood import verify_majorant

    family = Majorant.family(
        K1=fit["K1"], K2=fit["K2"], alpha=fit["alpha"], r0=fit["r0"]
    )
    assert verify_majorant(candidate.map, family).verified()


def test_pipeline_reads_each_zone_depth_once(monkeypatch):
    # stage (ii) filtered the images by their zone depth, and then
    # rest_bound_check computed the depth of each checked image again
    depths = Counter()
    zone_depth = FlatModelDomain.zone_depth

    def counted(self, z):
        depths[tuple(z)] += 1
        return zone_depth(self, z)

    monkeypatch.setattr(FlatModelDomain, "zone_depth", counted)
    domain = pipeline_domain()
    report = theorem_pipeline(flat_slice_candidate(domain, 0.04j, 0.04))
    rest = report.stages[1]
    assert (rest.name, rest.status, rest.details["points"]) == ("rest_bound", "pass", 4)
    assert depths and max(depths.values()) == 1


def test_pipeline_rest_rows_are_rest_bound_check():
    # stage (ii) and rest_bound_check read one rule, RestBoundReport.of: on
    # the README pipeline each row is rest_bound_check at its image, along
    # the map's derivative there
    domain = FlatModelDomain(FlatSupport(1.0, 0.5, 0.111, 0.08))
    candidate = flat_slice_candidate(domain, 0.04j, 0.04)
    n = kobayashi._PROPERNESS_N_THETA
    ring = kobayashi._PROPERNESS_RADIUS * np.exp(2j * math.pi * np.arange(n) / n)
    images = candidate.map.values(ring)
    order = np.argsort([boundary_distance(domain, z) for z in images])
    zoned = [i for i in order if domain.zone_depth(images[i]) is not None]
    expected = [rest_bound_check(domain, images[i], derivative_at(candidate.map, ring[i]))
                for i in zoned[:kobayashi._REST_POINTS]]
    rows = theorem_pipeline(candidate).stages[1].details["rows"]
    assert len(rows) == 4
    assert rows == [{"d": c.d, "radius": c.radius, "bound": c.bound} for c in expected]


@pytest.mark.parametrize("factor, verified", [(10.0, True), (100.0, False)])
def test_pipeline_majorant_fit_verifies_the_fitted_majorant(factor, verified):
    # the flat-slice map with its supplied derivative scaled: the fit reads
    # only the map's values, so the same majorant is fitted, and stage (iii)
    # alone sees |f'| exceed it (max violation -0.355 and +3.245); it read
    # "pass" whatever the derivative
    domain = pipeline_domain()
    flat = flat_slice_candidate(domain, 0.04j, 0.04).map
    scaled = UnitDiscFunction(flat.evaluate, flat.dimension,
                              lambda z: factor * flat.derivative(z))
    report = theorem_pipeline(GeodesicCandidate(scaled, domain))
    statuses = {stage.name: stage.status for stage in report.stages}
    fit = report.stages[2].details
    assert (fit["max_violation"] <= 0.0) is verified
    assert statuses.pop("majorant_fit") == ("pass" if verified else "fail")
    assert set(statuses.values()) == {"pass"}
    assert report.ok is verified


def test_pipeline_flags_noninteg_majorant_at_alpha_one(monkeypatch):
    # FlatSupport admits alpha < 1 only, where the majorant is integrable;
    # an unconverged integral stands in for the majorant at alpha = 1
    diverged = QuadratureResult(math.inf, False, 400, math.inf)
    monkeypatch.setattr(kobayashi, "phi_log_l1", lambda family, n: diverged)
    domain = pipeline_domain()
    candidate = flat_slice_candidate(domain, 0.04j, 0.04)
    report = theorem_pipeline(candidate)
    stages = {stage.name: stage for stage in report.stages}
    assert stages["majorant_integrable"].status == "fail"
    assert stages["majorant_integrable"].details["note"] == "majorant not integrable"
    assert stages["extension_probe"].status == "pass"  # probe still runs
    assert not report.ok


@pytest.mark.xfail(strict=True, reason="stage (i)'s threshold 0.05 is absolute, so a disc "
                   "that stays 0.03 from the boundary reads proper (ROADMAP item 5)")
def test_pipeline_properness_fails_a_disc_that_stays_inside():
    # on the README model the affine disc of radius 0.01 at 0.04i stays at
    # least 0.03 from the boundary, so it is not proper; it passes all five
    # stages, stage (i) with max_distance 0.04
    domain = FlatModelDomain(FlatSupport(1.0, 0.5, 0.111, 0.08))
    report = theorem_pipeline(flat_slice_candidate(domain, 0.04j, 0.01))
    assert report.stages[0].name == "properness"
    assert report.stages[0].status == "fail"


def test_pipeline_rejects_a_candidate_outside_a_flat_model():
    # it raised AttributeError: 'Polydisc' object has no attribute 'support'
    with pytest.raises(ValueError, match="needs a candidate in a flat model domain"):
        theorem_pipeline(GeodesicCandidate(identity_map(), Polydisc((1.0,))))


def test_pipeline_aborts_for_constant_map():
    # a roomier model: the constant image sits 0.15 > 0.05 from the boundary
    domain = FlatModelDomain(FlatSupport(1.0, 0.5, 1.0 / 9.0, 0.3))
    candidate = flat_slice_candidate(domain, 0.15j, 0.0)
    report = theorem_pipeline(candidate)
    stages = {stage.name: stage for stage in report.stages}
    assert stages["properness"].status == "fail"
    assert stages["rest_bound"].status == "skipped"
    assert not report.ok
