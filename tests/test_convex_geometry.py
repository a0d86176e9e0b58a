"""Domain geometry: flatness functions, root equations, distances, radii."""

from __future__ import annotations

import math

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
    exit_time,
    inscribed_disc_radius,
    phi_alpha,
    phi_alpha_inv,
    rest_bound_check,
    rho_triangle,
    x0_cap,
)


def flat_domain(C=1.0, alpha=0.5, s0=0.1) -> FlatModelDomain:
    return FlatModelDomain(FlatSupport(C, alpha, FlatSupport.convexity_cap(alpha), s0))


def interior_anchor(domain) -> np.ndarray:
    """A point well inside each test domain: the ball's center, the
    halfspace intersection's checked interior point, the middle of the flat
    model's box, the origin of the polydisc."""
    if isinstance(domain, Ball):
        return domain.center.copy()
    if isinstance(domain, HalfspaceIntersection):
        return domain.interior_point.copy()
    z = np.zeros(domain.dimension, dtype=complex)
    if isinstance(domain, FlatModelDomain):
        z[-1] = 0.5j * domain.support.s0
    return z


# --- flatness functions ------------------------------------------------------

def test_phi_alpha_values():
    assert phi_alpha(0.0, 1.0) == 0.0
    assert abs(phi_alpha(1.0, 1.0) - math.exp(-1.0)) < 1e-15
    assert abs(phi_alpha(0.5, 2.0) - math.exp(-4.0)) < 1e-15
    with pytest.raises(ValueError):
        phi_alpha(-0.1, 1.0)


def test_phi_alpha_inv_values_and_round_trip():
    assert abs(phi_alpha_inv(math.exp(-2.0), 1.0, 1.0) - 0.5) < 1e-15
    for d, C, alpha in ((0.3, 1.0, 1.0), (0.05, 2.0, 0.4), (1e-8, 1.0, 0.7)):
        assert abs(C * phi_alpha(phi_alpha_inv(d, C, alpha), alpha) - d) < 1e-12 * d

    # [log 20]^{-2}, cross-checked by root solving C phi_alpha(x) = d
    value = phi_alpha_inv(0.1, 2.0, 0.5)
    assert abs(value - math.log(20.0) ** -2.0) < 1e-15
    lo, hi = 1e-6, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * phi_alpha(mid, 0.5) < 0.1:
            lo = mid
        else:
            hi = mid
    assert abs(value - 0.5 * (lo + hi)) < 1e-10
    with pytest.raises(ValueError, match="outside inverse domain"):
        phi_alpha_inv(2.5, 2.0, 0.5)


def test_x0_cap_no_crossing_case():
    # x log(1/x) <= 1/e < 1 on (0, 1), so x = [log(1/x)]^{-1} has no solution
    # and the min falls back to C/2.  Dense-scan oracle confirms no crossing.
    assert x0_cap(1.0, 1.0) == 0.5
    xs = np.geomspace(1e-12, 1.0 - 1e-9, 200001)
    assert np.all(xs * np.log(1.0 / xs) < 1.0)


def test_x0_cap_small_alpha_tiny_root():
    # with t = log(1/x) the crossings solve t = 5 log t; the larger root
    # t2 ~ 12.713 gives x0 = e^{-t2} ~ 3.0e-6
    lo, hi = 5.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 5.0 * math.log(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = math.exp(-0.5 * (lo + hi))
    value = x0_cap(1.0, 0.2)
    assert abs(value - oracle) / oracle < 0.05
    assert abs(value - 3.0e-6) < 0.15e-6


def test_x0_cap_never_exceeds_half_C():
    rng = np.random.default_rng(11)
    for _ in range(25):
        C = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(0.1, 1.5))
        assert x0_cap(C, alpha) <= C / 2.0 + 1e-15


def test_x0_cap_finds_roots_far_below_C():
    # with t = log(1/x) the crossings solve t = 10 log t; the larger root
    # t2 ~ 35.77 gives x0 = e^{-t2} ~ 2.915e-16, below any scan floor of
    # 1e-12 C (the crossing near x ~ 0.78 is the other root)
    lo, hi = 20.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 10.0 * math.log(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = math.exp(-0.5 * (lo + hi))
    assert abs(oracle - 2.915e-16) < 1e-19
    assert x0_cap(1.0, 0.1) == pytest.approx(oracle, rel=1e-12)


def test_rho_triangle_reduces_to_inverse_at_zero_slope():
    assert rho_triangle(math.exp(-2.0), 0.0, 1.0, 1.0) == phi_alpha_inv(
        math.exp(-2.0), 1.0, 1.0
    )


def test_rho_triangle_bisection_oracle():
    lhs = lambda rho: phi_alpha(rho, 1.0) + rho
    lo, hi = 0.0, 0.2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < 0.1:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    value = rho_triangle(0.1, 1.0, 1.0, 1.0)
    assert abs(value - oracle) < 1e-10
    assert abs(value - 0.09995) < 1e-4
    assert abs(phi_alpha(value, 1.0) - 4.5e-5) < 1e-6  # flatness term size


def test_rho_triangle_below_inverse_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(100):
        C = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.15, 0.95))
        d = float(rng.uniform(1e-6, 0.4 * C))
        slope = float(rng.uniform(0.0, 5.0))
        rho = rho_triangle(d, slope, C, alpha)
        assert rho <= phi_alpha_inv(d, C, alpha) + 1e-12


def test_rho_triangle_no_solution():
    with pytest.raises(ValueError, match="no solution"):
        rho_triangle(1.5, 0.0, 1.0, 1.0)


# --- exit times --------------------------------------------------------------

def test_exit_time_polydisc_axis():
    square = Polydisc((1.0, 1.0))
    assert abs(exit_time(square, [0.0, 0.0], [1.0, 0.0]) - 1.0) < 1e-14


def test_exit_time_ball_shifted():
    ball = Ball(np.zeros(2), 2.0)
    assert abs(exit_time(ball, [1.0, 0.0], [1.0, 0.0]) - 1.0) < 1e-14


def halfspace_box(extra=()) -> HalfspaceIntersection:
    # |Re z_k| <= 1, |Im z_k| <= 1 in C^2 via eight halfspaces
    cons = []
    for k in range(2):
        for a0 in (1.0, -1.0, 1.0j, -1.0j):
            a = np.zeros(2, dtype=complex)
            a[k] = a0
            cons.append((a, 1.0))
    return HalfspaceIntersection(tuple(cons) + tuple(extra))


def membership_bisection(domain, z, u) -> float:
    """Exit time by bisecting membership along the ray: the reference for
    the per-constraint exits."""
    lo, hi = 0.0, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain.membership(z + mid * u) != "outside":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "domain",
    [
        Polydisc((1.0, 0.7)),
        Ball(np.array([0.1, -0.2j]), 1.3),
        halfspace_box([(np.array([0.6 - 0.3j, 0.5j]), 0.4)]),
        flat_domain(),
    ],
    ids=["polydisc", "ball", "halfspace", "flat_model"],
)
def test_exit_time_matches_membership_bisection(domain):
    rng = np.random.default_rng(2)
    anchor = interior_anchor(domain)
    for _ in range(20):
        raw = rng.standard_normal(4)
        u = raw[:2] + 1j * raw[2:]
        u /= np.linalg.norm(u)
        z = anchor + 0.9 * rng.random() * membership_bisection(domain, anchor, u) * u
        raw = rng.standard_normal(4)
        u = raw[:2] + 1j * raw[2:]
        u /= np.linalg.norm(u)
        assert abs(exit_time(domain, z, u) - membership_bisection(domain, z, u)) < 1e-9


@pytest.mark.parametrize(
    "u",
    [[-0.99, 0.1j], [1.0, -0.5j]],
    ids=["inward", "outward"],
)
def test_exit_time_from_graph_point_matches_membership_bisection(u):
    # a base point exactly on the graph (real z' makes the gap exactly 0);
    # the inward ray crosses the axis and leaves through the graph again,
    # the outward one leaves at once
    domain = flat_domain()
    s = domain.support
    rho = s.R0 / 2.0
    z = np.array([rho, 1j * s.C * phi_alpha(rho, s.alpha)])
    assert domain.membership(z) == "boundary"
    u = np.array(u) / np.linalg.norm(u)
    t = exit_time(domain, z, u)
    assert abs(t - membership_bisection(domain, z, u)) < 1e-9
    assert (t > 0.1) == (u[0].real < 0.0)


def test_exit_time_flat_model_graph_intersection():
    domain = flat_domain()
    z = np.array([0.0, 0.02j])
    u = np.array([0.6, -0.8j])  # slides outward while descending onto the graph
    t = exit_time(domain, z, u)
    g = lambda t: 0.02 - 0.8 * t - phi_alpha(0.6 * t, 0.5)
    lo, hi = 0.0, 0.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(t - 0.5 * (lo + hi)) < 1e-9


def test_exit_time_falling_ray_that_barely_moves_off_axis():
    # ||z'|| grows by 1e-150 per unit length, so the cylinder alone puts the
    # exit bracket near 1e149, and 200 halvings of it never reach the graph
    # crossing at Im z_n = 0; a falling ray is below the graph by then
    domain = flat_domain()
    assert abs(exit_time(domain, [0.0, 0.01j], [1e-150, -1.0j]) - 0.01) < 1e-15
    assert abs(inscribed_disc_radius(domain, [0.0, 0.01j], [1e-150, 1.0]) - 0.01) < 1e-15


def test_exit_time_rejects_outside_base():
    with pytest.raises(ValueError, match="base point outside domain"):
        exit_time(Polydisc((1.0,)), [2.0], [1.0])


# --- boundary distance -------------------------------------------------------

def test_boundary_distance_ball():
    ball = Ball(np.zeros(3), 1.0)
    z = np.array([0.3, 0.0, 0.0])
    assert abs(boundary_distance(ball, z) - 0.7) < 1e-14


def test_boundary_distance_polydisc():
    square = Polydisc((1.0, 1.0))
    assert abs(boundary_distance(square, [0.3, 0.5j]) - 0.5) < 1e-14


def test_boundary_distance_halfspace_box():
    box = halfspace_box()
    z = np.array([0.2 + 0.1j, -0.4j])
    assert abs(boundary_distance(box, z) - 0.6) < 1e-12


def test_halfspace_intersection_rejects_unbounded_sets():
    # the strip |Re z + Im z| <= 1 in C^1 exits every coordinate ray, but
    # it is unbounded along 1 - i
    strip = ((np.array([1.0 + 1.0j]), 1.0), (np.array([-1.0 - 1.0j]), 1.0))
    with pytest.raises(ValueError, match="unbounded"):
        HalfspaceIntersection(strip)
    # three normals that positively span the plane bound a triangle; two of
    # them leave a wedge
    normals = [np.array([complex(math.cos(a), math.sin(a))]) for a in (0.0, 2.0, 4.0)]
    triangle = HalfspaceIntersection(tuple((a, 1.0) for a in normals))
    assert abs(boundary_distance(triangle, [0.0]) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="unbounded"):
        HalfspaceIntersection(tuple((a, 1.0) for a in normals[:2]))


def test_halfspace_boundedness_matches_linear_programming():
    # the set {Re<a_j, z> <= 1} is bounded iff every coordinate of R^{2n}
    # has a finite max and min over it
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4)
    for trial in range(50):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 9))
        normals = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if trial % 2:  # normals in a half-plane of the first coordinate
            normals[:, 0] = abs(normals[:, 0].real) + 1j * normals[:, 0].imag
        A = np.hstack([normals.real, normals.imag])
        bounded = all(
            optimize.linprog(sign * np.eye(2 * n)[k], A_ub=A, b_ub=np.ones(m),
                             bounds=(None, None)).status != 3
            for k in range(2 * n) for sign in (1.0, -1.0)
        )
        cons = tuple((a, 1.0) for a in normals)
        if bounded:
            HalfspaceIntersection(cons)
        else:
            with pytest.raises(ValueError, match="unbounded"):
                HalfspaceIntersection(cons)


def test_boundary_distance_flat_model_against_dense_sampling():
    domain = flat_domain()
    z = np.array([0.02, 0.05j])
    d = boundary_distance(domain, z)

    # independent dense sampling of all four boundary pieces
    s = domain.support
    ts = np.linspace(0.0, s.R0, 200001)[1:]
    graph = np.sqrt((ts - 0.02) ** 2 + (0.05 - np.exp(-1.0 / np.sqrt(ts))) ** 2)
    dense = min(
        float(np.min(graph)),
        math.hypot(0.02, 0.05),  # the t = 0 graph point
        s.R0 - 0.02,
        s.s0 - 0.0,  # |Re z_n| face: distance s0 - |Re| = s0
        s.s0 - 0.05,
    )
    assert abs(d - dense) < 1e-6
    assert d <= exit_time(domain, z, np.array([0.0, -1.0j])) + 1e-12


def test_boundary_distance_below_exit_times():
    domain = flat_domain()
    z = interior_anchor(domain)
    rng = np.random.default_rng(7)
    d = boundary_distance(domain, z)
    for _ in range(50):
        raw = rng.standard_normal(4)
        u = raw[:2] + 1j * raw[2:]
        assert d <= exit_time(domain, z, u / np.linalg.norm(u)) + 1e-10


# --- inscribed disc radius ---------------------------------------------------

def test_inscribed_radius_ball_center():
    ball = Ball(np.zeros(2), 1.0)
    for v in ([1.0, 0.0], [0.3, 0.4j], [1.0j, 1.0]):
        assert abs(inscribed_disc_radius(ball, [0.0, 0.0], v) - 1.0) < 1e-10


def test_inscribed_radius_bidisc_diagonal():
    square = Polydisc((1.0, 1.0))
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    r = inscribed_disc_radius(square, [0.0, 0.0], v)

    # brute-force theta scan oracle: exit time is sqrt(2) for every theta
    thetas = np.linspace(0.0, 2.0 * math.pi, 721)
    oracle = min(
        exit_time(square, [0.0, 0.0], v * complex(math.cos(t), math.sin(t)))
        for t in thetas
    )
    assert abs(r - oracle) < 1e-10
    assert abs(r - math.sqrt(2.0)) < 1e-10


def test_inscribed_radius_bidisc_offset_axis():
    square = Polydisc((1.0, 1.0))
    assert abs(inscribed_disc_radius(square, [0.5, 0.0], [1.0, 0.0]) - 0.5) < 1e-10


def test_inscribed_radius_dominates_boundary_distance_and_phase_invariant():
    domain = flat_domain()
    rng = np.random.default_rng(13)
    z = np.array([0.01, 0.03j])
    d = boundary_distance(domain, z)
    for _ in range(10):
        raw = rng.standard_normal(4)
        v = raw[:2] + 1j * raw[2:]
        r = inscribed_disc_radius(domain, z, v)
        assert r >= d - 1e-9
        phase = complex(math.cos(1.1), math.sin(1.1))
        assert abs(inscribed_disc_radius(domain, z, phase * v) - r) < 1e-9


def grid_radius(domain, z, v, n=64) -> float:
    """The smallest membership-bisection exit over n circle angles, then
    over n + 1 angles across the best one's two neighbouring cells: an upper
    bound on the inscribed radius, within about 1e-6 of it here."""
    v = v / np.linalg.norm(v)
    exit_at = lambda t: membership_bisection(domain, z, complex(math.cos(t), math.sin(t)) * v)
    step = 2.0 * math.pi / n
    best = min(step * np.arange(n), key=exit_at)
    return min(exit_at(t) for t in best + step * np.linspace(-1.0, 1.0, n + 1))


@pytest.mark.parametrize("tangential", [None, 1e-12, 1e-150, 1e-200],
                         ids=["tilted", "v'=1e-12", "v'=1e-150", "v'=1e-200"])
def test_flat_inscribed_radius_matches_membership_grid(tangential):
    # off-axis points at heights across the lower part of the box; the
    # nearly normal directions keep ||z'|| (almost) fixed around the circle,
    # and 1e-200 squares to 0
    domain = flat_domain()
    s = domain.support
    rng = np.random.default_rng(17)
    for _ in range(2):
        rho = rng.uniform(0.1, 0.4) * s.R0
        height = s.C * phi_alpha(rho, s.alpha)
        z = np.array([rho * np.exp(2j * math.pi * rng.random()),
                      complex(rng.uniform(-0.3, 0.3) * s.s0,
                              height + rng.uniform(0.05, 0.3) * (s.s0 - height))])
        phases = np.exp(2j * math.pi * rng.random(2))
        if tangential is None:
            v = rng.uniform(0.2, 1.0, 2) * phases
        else:
            v = np.array([tangential, 1.0]) * phases
        r = inscribed_disc_radius(domain, z, v)
        oracle = grid_radius(domain, z, v)
        assert r <= oracle + 1e-10
        assert oracle - r <= 1e-5 * oracle


def test_inscribed_radius_rejects_zero_direction():
    with pytest.raises(ValueError, match="direction must be nonzero"):
        inscribed_disc_radius(Polydisc((1.0,)), [0.0], [0.0])


def test_inscribed_radius_halfspace_global_minimum():
    # exit times over the circle have several basins here; the 64-point
    # scan of the circle settled in a non-global one (radius 1.0606845)
    cons = [
        ([1.0, 0.0], 1.0761741505738809),
        ([-1.0, 0.0], 1.297764831964868),
        ([1.0j, 0.0], 0.8738057691178961),
        ([-1.0j, 0.0], 1.2832987701614358),
        ([0.0, 1.0], 0.616836074989609),
        ([0.0, -1.0], 0.8420158055347601),
        ([0.0, 1.0j], 0.6579872703383238),
        ([0.0, -1.0j], 0.8856698339232816),
        ([0.5437776069049303 + 0.757069298406832j,
          -0.30316602126033243 - 0.19809683286643917j], 0.6374434556365712),
        ([-0.0047217455235123475 - 0.2561925619005207j,
          0.0817214504767356 - 0.963153508469983j], 1.0508665661443708),
    ]
    cons = [(np.array(a, dtype=complex), b) for a, b in cons]
    z = np.array([0.03288561723482896 - 0.00029674189969169034j,
                  -0.03311015778239491 - 0.053622263913944215j])
    v = np.array([0.18728226753965213 + 0.8025300129391199j,
                  0.3707055309014534 + 0.4283086970354603j])
    # Re<a, z + rho e^{i theta} v> peaks at Re<a, z> + rho |<a, v>|
    closed_form = min(
        (b - np.vdot(a, z).real) / abs(np.vdot(a, v)) for a, b in cons
    )
    assert abs(closed_form - 1.0606631109242757) < 1e-12
    r = inscribed_disc_radius(HalfspaceIntersection(tuple(cons)), z, v)
    assert abs(r - closed_form) < 1e-12


# --- symmetry properties -----------------------------------------------------
#
# A linear map that carries a domain onto itself preserves exit times,
# boundary distances and inscribed radii: unitary maps of a centred ball,
# coordinate phases of a polydisc, and coordinate permutations of a polydisc
# with equal radii.

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIMENSIONS = st.integers(min_value=1, max_value=4)


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _point_in_disc(rng, radius: float) -> complex:
    return radius * math.sqrt(rng.uniform(0.0, 0.8)) * complex(np.exp(2j * math.pi * rng.random()))


def assert_same_geometry(domain, z, u, v, image):
    """exit_time, boundary_distance and inscribed_disc_radius agree at
    (z, u, v) and at their images to 1e-12 relative."""
    pairs = [
        (exit_time(domain, z, u), exit_time(domain, image(z), image(u))),
        (boundary_distance(domain, z), boundary_distance(domain, image(z))),
        (inscribed_disc_radius(domain, z, v), inscribed_disc_radius(domain, image(z), image(v))),
    ]
    for before, after in pairs:
        assert after == pytest.approx(before, rel=1e-12, abs=0.0)


@given(SEEDS, DIMENSIONS)
@settings(max_examples=40, deadline=None)
def test_centred_ball_unitary_invariance(seed, n):
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.5, 2.0)
    ball = Ball(np.zeros(n), radius)
    z = _complex_gaussian(rng, n)
    z *= abs(_point_in_disc(rng, radius)) / np.linalg.norm(z)
    u, v = _complex_gaussian(rng, n), _complex_gaussian(rng, n)
    unitary, _ = np.linalg.qr(_complex_gaussian(rng, n, n))
    assert_same_geometry(ball, z, u, v, lambda w: unitary @ w)


@given(SEEDS, DIMENSIONS)
@settings(max_examples=40, deadline=None)
def test_polydisc_coordinate_phase_invariance(seed, n):
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.5, 2.0, n)
    z = np.array([_point_in_disc(rng, r) for r in radii])
    u, v = _complex_gaussian(rng, n), _complex_gaussian(rng, n)
    phases = np.exp(2j * math.pi * rng.random(n))
    assert_same_geometry(Polydisc(tuple(radii)), z, u, v, lambda w: phases * w)


@given(SEEDS, DIMENSIONS)
@settings(max_examples=40, deadline=None)
def test_equal_radius_polydisc_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.5, 2.0)
    z = np.array([_point_in_disc(rng, radius) for _ in range(n)])
    u, v = _complex_gaussian(rng, n), _complex_gaussian(rng, n)
    order = rng.permutation(n)
    assert_same_geometry(Polydisc((radius,) * n), z, u, v, lambda w: w[order])


# --- convexity spot checks ---------------------------------------------------

@pytest.mark.parametrize(
    "domain",
    [
        Polydisc((1.0, 0.5)),
        Ball(np.array([0.1, -0.2j]), 1.3),
        halfspace_box([(np.array([0.6 - 0.3j, 0.5j]), 0.4)]),
        flat_domain(),
    ],
    ids=["polydisc", "ball", "halfspace", "flat_model"],
)
def test_midpoint_convexity(domain):
    # membership of the midpoint of two seeded points inside, each drawn on
    # a random real ray from the anchor short of its exit time
    rng = np.random.default_rng(0)
    anchor = interior_anchor(domain)
    n = domain.dimension

    def random_inside() -> np.ndarray:
        raw = rng.standard_normal(2 * n)
        u = raw[:n] + 1j * raw[n:]
        u /= np.linalg.norm(u)
        return anchor + 0.999 * rng.random() * exit_time(domain, anchor, u) * u

    for _ in range(1000):
        z1, z2 = random_inside(), random_inside()
        assert domain.membership(z1) != "outside"
        assert domain.membership(0.5 * (z1 + z2), 1e-9) != "outside"


# --- flatness bound checks ---------------------------------------------------

def test_rest_bound_tangential_direction():
    domain = flat_domain()
    d = 0.01
    z = np.array([0.0, d * 1j])
    report = rest_bound_check(domain, z, [1.0, 0.0])
    assert report.satisfied
    assert abs(report.d - d) < 1e-12
    # the tangential disc radius is exactly the slope-0 root of the
    # tilted-disc equation
    assert abs(report.radius - rho_triangle(d, 0.0, 1.0, 0.5)) < 1e-7
    assert report.radius <= report.bound


def test_rest_bound_normal_direction_matches_distance():
    domain = flat_domain()
    d = 0.01
    z = np.array([0.0, d * 1j])
    report = rest_bound_check(domain, z, [0.0, 1.0])
    assert report.satisfied
    assert abs(report.radius - d) < 1e-6


def test_rest_bound_phase_invariance():
    domain = flat_domain()
    z = np.array([0.0, 0.005j])
    v = np.array([0.3 + 0.1j, 0.4j])
    r1 = rest_bound_check(domain, z, v)
    r2 = rest_bound_check(domain, z, v * complex(math.cos(2.2), math.sin(2.2)))
    assert abs(r1.radius - r2.radius) < 1e-9
    assert r1.d == r2.d


def test_rest_bound_rejects_point_outside_zone():
    # alpha = 0.2 has x0_cap ~ 3e-6, so a point at distance 5e-5 sits outside
    # the compact-set zone even though it is close to the boundary
    domain = FlatModelDomain(
        FlatSupport(1.0, 0.2, FlatSupport.convexity_cap(0.2), 0.01)
    )
    with pytest.raises(ValueError, match="point not in the boundary zone"):
        rest_bound_check(domain, [0.0, 5e-5j], [1.0, 0.0])
