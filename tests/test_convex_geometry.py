"""Domain geometry: flatness functions, root equations, distances, radii."""

from __future__ import annotations

import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import convex_geometry
from geodisc.convex_geometry import (
    MEMBERSHIP_TOL,
    Ball,
    FlatModelDomain,
    FlatSupport,
    GraphConstraint,
    HalfspaceIntersection,
    Polydisc,
    ball_distance,
    boundary_distance,
    exit_time,
    inscribed_disc_radius,
    phi_alpha,
    phi_alpha_inv,
    rest_bound_check,
    rho_triangle,
    x0_cap,
)
from geodisc.numerics import minimize_on_circle


def flat_domain(C=1.0, alpha=0.5, s0=0.1, dimension=2) -> FlatModelDomain:
    return FlatModelDomain(
        FlatSupport(C, alpha, FlatSupport.convexity_cap(alpha), s0), dimension
    )


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
    with pytest.raises(ValueError, match="alpha must be positive"):
        phi_alpha(0.5, 0.0)


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
    for C, alpha in ((0.0, 0.5), (2.0, -0.5)):
        with pytest.raises(ValueError, match="C and alpha must be positive"):
            phi_alpha_inv(0.1, C, alpha)


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


def test_rho_triangle_steep_root_to_relative_precision():
    # a root of 4.2e-9 where the left side climbs ~4e4 per unit of rho: a
    # stop at an absolute tolerance of 1e-14 came back 1.5e-14 off, where
    # closing the bracket at floating-point resolution is within rounding
    rho = rho_triangle(
        0.00040177438830700166, 2.3027151609485634, 1.1655324051827958, 0.10768541579207838
    )
    assert abs(rho / 4.2398652366628161e-9 - 1.0) < 1e-15  # mpmath, 40 digits


def test_rho_triangle_matches_mpmath_on_random_draws():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    with mp.workdps(50):
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 0.95))
            C = float(rng.uniform(0.5, 2.0))
            d = float(rng.uniform(1e-4, C / 2.0))
            slope = float(rng.uniform(0.1, 5.0))
            lhs = lambda r: C * mp.exp(-(r ** -alpha)) + r * slope - d
            # lhs < 0 at 2^-1000 and > 0 at d / slope bracket the root
            exact = mp.findroot(lhs, (mp.mpf(2) ** -1000, mp.mpf(d) / slope), solver="anderson")
            rho = rho_triangle(d, slope, C, alpha)
            assert abs(rho / exact - 1) < 2e-15, (d, slope, C, alpha)


def test_rho_triangle_overflowing_root_raises():
    # d >= C leaves d / slope as the only upper bound, and it overflows
    with pytest.raises(OverflowError):
        rho_triangle(1e3, 1e-306, 1.0, 0.5)


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


@pytest.mark.parametrize("k", [-1000, -600, -100, 100, 600, 1000])
def test_disc_pieces_scale_exactly_with_their_radius(k):
    # each disc piece squared its offsets unscaled: an exit from the centre
    # of a disc of radius 1e200 read inf and one of radius 1e-200 read 0
    c, point, u = 2.0**k, np.array([0.3, -0.1j]), np.array([0.6, 0.8j])
    for domain, scaled in ((Ball([0.1, 0.2j], 0.75), Ball([0.1 * c, 0.2j * c], 0.75 * c)),
                           (Polydisc((0.75, 0.5)), Polydisc((0.75 * c, 0.5 * c)))):
        z = point * c
        assert exit_time(scaled, z, u) == math.ldexp(exit_time(domain, point, u), k)
        assert boundary_distance(scaled, z) == math.ldexp(boundary_distance(domain, point), k)
        assert (inscribed_disc_radius(scaled, z, u)
                == math.ldexp(inscribed_disc_radius(domain, point, u), k))


@pytest.mark.xfail(strict=True, reason="MEMBERSHIP_TOL = 1e-12 is absolute, so every point "
                   "within 1e-12 of a tiny polydisc's boundary reads 'boundary' (ROADMAP item 7)")
def test_membership_of_a_tiny_polydisc_is_that_of_the_unit_one():
    # both read "boundary": (0.5e-13, 0) lies inside, (1.3e-13, 0) outside
    tiny = Polydisc((1e-13, 1e-13))
    assert tiny.membership([0.5e-13, 0.0]) == "inside"
    assert tiny.membership([1.3e-13, 0.0]) == "outside"


def halfspace_box(extra=(), scale: float = 1.0) -> HalfspaceIntersection:
    # |Re z_k| <= 1/scale, |Im z_k| <= 1/scale in C^2 via eight halfspaces
    # with normals of length scale
    cons = []
    for k in range(2):
        for a0 in (1.0, -1.0, 1.0j, -1.0j):
            a = np.zeros(2, dtype=complex)
            a[k] = scale * a0
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


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_halfspace_normals_that_under_or_overflow(scale):
    # the squares of the normals' entries under- or overflow; the pieces
    # still get unit normals and the offsets 1/scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = halfspace_box(scale=scale)
        assert boundary_distance(box, [0.0, 0.0]) == pytest.approx(1.0 / scale, rel=1e-15)
        radius = inscribed_disc_radius(box, [0.0, 0.0], [1.0, 0.0])
        assert radius == pytest.approx(1.0 / scale, rel=1e-15)
    for piece in box.pieces:
        assert np.linalg.norm(piece.normal) == pytest.approx(1.0, rel=1e-15)


def test_halfspace_ordinary_normals_keep_their_bits():
    a = np.array([0.6 - 0.3j, 0.5j])
    piece = halfspace_box([(a, 0.4)]).pieces[-1]
    norm = float(np.linalg.norm(a))
    assert np.array_equal(piece.normal, a / norm)
    assert piece.offset == 0.4 / norm


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
    for trial in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        normals = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if trial % 2:  # normals in a half-plane of the first coordinate
            normals[:, 0] = abs(normals[:, 0].real) + 1j * normals[:, 0].imag
        A = np.hstack([normals.real, normals.imag])
        bounded = all(
            optimize.linprog(sign * np.eye(2 * n)[k], A_ub=A, b_ub=np.ones(m),
                             bounds=(None, None)).status != 3
            for k in range(2 * n) for sign in (1.0, -1.0)
        )
        assert builds(normals) == bounded


def builds(normals) -> bool:
    """Whether {Re<a_j, z> <= 1} passes the boundedness check; it holds 0."""
    try:
        HalfspaceIntersection(tuple((a, 1.0) for a in normals))
    except ValueError as exc:
        assert "unbounded" in str(exc)
        return False
    return True


def eta_family(rng, eta: float, n: int, extra: int) -> np.ndarray:
    """Normals in C^n whose rows in R^{2n} are e_1, -e_1 + eta e_2, -e_2 and
    +-e_k (k > 2), then ``extra`` random nonnegative combinations of them,
    each scaled to unit length and all turned by one random rotation.  The
    recession cone {d : A d <= 0} is the ray of e_2 for eta = 0, a wedge for
    eta < 0 and {0} for eta > 0, where its margin is eta: the set is bounded
    iff eta > 0."""
    eye = np.eye(2 * n)
    rows = [eye[0], eta * eye[1] - eye[0], -eye[1], *eye[2:], *-eye[2:]]
    rows += list(rng.random((extra, len(rows))) @ rows)
    rows = np.array(rows) / np.linalg.norm(rows, axis=1)[:, None]
    rotation, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    rows = rows[rng.permutation(len(rows))] @ rotation.T
    return rows[:, :n] + 1j * rows[:, n:]


@pytest.mark.parametrize("eta, bounded", [(1e-6, True), (1e-9, True), (0.0, False),
                                          (-1e-9, False)])
def test_halfspace_boundedness_near_the_recession_edge(eta, bounded):
    rng = np.random.default_rng(8)
    for _ in range(60):
        normals = eta_family(rng, eta, int(rng.integers(1, 4)), int(rng.integers(0, 6)))
        assert builds(normals) == bounded


@pytest.mark.parametrize("eta, draw, solves", [(-1e-9, 25, 7), (1e-9, 616, 9)])
def test_halfspace_boundedness_stops_when_a_passive_set_comes_back(monkeypatch, eta, draw,
                                                                  solves):
    # draws of the loop above (m = 7 in C^2) on which the active set went
    # round the same passive sets until its cap of 3m = 21 solves
    rng = np.random.default_rng(8)
    for _ in range(draw + 1):
        normals = eta_family(rng, eta, int(rng.integers(1, 4)), int(rng.integers(0, 6)))
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args: calls.append(1) or lstsq(*args))
    assert builds(normals) == (eta > 0)
    assert len(calls) == solves


def test_many_halfspaces_build():
    # the box of C^4 and 24 random normals: the 40 constraints once took
    # minutes, when every set of 7 rows was tried
    rng = np.random.default_rng(40)
    extra = rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))
    box = [*np.eye(4), *-np.eye(4), *1j * np.eye(4), *-1j * np.eye(4)]
    assert builds(box + list(extra))
    # without -Re z_1 <= 1, and with Re a_1 >= 0 in every other normal, the
    # set recedes along -e_1
    extra[:, 0] = abs(extra[:, 0].real) + 1j * extra[:, 0].imag
    assert not builds(box[:4] + box[5:] + list(extra))


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


def test_flat_distance_on_a_tiny_model_matches_mpmath():
    # at alpha = 0.1 the convexity cap is 3.9e-11, so the whole model fits
    # in a 1e-11 cylinder; an absolute 1e-14 search bracket returned the
    # cylinder wall, 5e-12, for a graph 3.7e-14 away
    domain = FlatModelDomain(FlatSupport(1.0, 0.1, 1e-11, 0.05))
    d = boundary_distance(domain, np.array([5e-12, 1.3946e-06j]))
    assert abs(d / 3.6930102455107835e-14 - 1.0) < 1e-9  # mpmath, 40 digits


def flat_axis_draw(rng: np.random.Generator):
    """A flat model and a depth d on its axis at which the vertex is the
    nearest graph point: t^2 + (d - C phi(t))^2 >= d^2 for every radius t
    once d <= min_t t^2 / (2 C phi(t)).  alpha in [0.3, 0.95), R0 from 0.5
    to 1 times the cap and d log-uniform from 1e-6 up to 0.9 times the
    least of s0 / 2, R0, x0_cap and half that bound."""
    alpha = rng.uniform(0.3, 0.95)
    C = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    R0 = FlatSupport.convexity_cap(alpha) * rng.uniform(0.5, 1.0)
    s0 = rng.uniform(0.05, 0.1)
    top = 0.9 * min(0.5 * s0, R0, x0_cap(C, alpha), 0.5 * grid_vertex_nearest(C, alpha, R0))
    d = math.exp(rng.uniform(math.log(1e-6), math.log(top)))
    return FlatModelDomain(FlatSupport(C, alpha, R0, s0)), d


def grid_vertex_nearest(C: float, alpha: float, R0: float) -> float:
    """t^2 / (2 C phi_alpha(t)) at its least on 512 geometric radii from
    1e-3 R0 to R0."""
    ts = np.geomspace(1e-3 * R0, R0, 512)
    with np.errstate(over="ignore"):
        return float(np.min(ts**2 * np.exp(ts**-alpha) / (2.0 * C)))


def test_flat_axis_distance_is_the_depth_where_the_vertex_is_nearest():
    # psi = 0 puts the vertex on the search's grid and the least value read
    # is returned, so the distance is sqrt(d * d) = d exactly
    rng = np.random.default_rng(21)
    for _ in range(60):
        domain, d = flat_axis_draw(rng)
        assert boundary_distance(domain, np.array([0.0, 1j * d])) == d


def axis_search_distance(support: FlatSupport, y: float) -> float:
    """The graph distance at (0', i y) by the off-axis route: the circle
    search over the distance's own dist2 at rho = 0, against the wall."""
    R0, height, rho = support.R0, GraphConstraint(support).height, 0.0

    def dist2(psi: float) -> float:
        t = rho + (R0 - rho) * math.sin(0.5 * psi) ** 2
        return (t - rho) ** 2 + (y - height(t)) ** 2

    return min(R0 - rho, math.sqrt(minimize_on_circle(dist2)))


def random_support(rng: np.random.Generator) -> FlatSupport:
    """alpha in [0.05, 0.95], C log-uniform in [0.1, 10], R0 from 1% to all
    of the convexity cap."""
    alpha = rng.uniform(0.05, 0.95)
    C = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    R0 = FlatSupport.convexity_cap(alpha) * 10.0 ** rng.uniform(-2.0, 0.0)
    return FlatSupport(C, alpha, R0, 0.05)


def test_flat_axis_distance_below_the_reach_is_the_search_value():
    # the closed form min(R0, y) is bitwise what the search returns, as the
    # search reads y^2 at the vertex and every other value it reads is larger
    rng = np.random.default_rng(25)
    for _ in range(400):
        support = random_support(rng)
        top = min(support.vertex_reach, 10.0)
        for y in top * 10.0 ** -rng.uniform(0.0, 12.0, size=5):
            z = np.array([0.0, 1j * y])
            assert GraphConstraint(support).distance(z) == axis_search_distance(support, y)


def test_vertex_reach_is_at_most_the_grid_value():
    # the infimum over (0, R0] is below the minimum over any grid in it, up
    # to the rounding of the two formulas
    rng = np.random.default_rng(26)
    for _ in range(300):
        support = random_support(rng)
        grid = grid_vertex_nearest(support.C, support.alpha, support.R0)
        assert support.vertex_reach <= grid * (1.0 + 1e-13)


def test_vertex_reach_overflows_to_infinity():
    # at alpha = 0.05 and R0 = 1e-40 the exponent R0^-alpha is 1e2, so the
    # reach is finite; at R0 = 1e-300 it is e^{1e15}
    assert math.isfinite(FlatSupport(1.0, 0.05, 1e-40, 0.05).vertex_reach)
    assert FlatSupport(1.0, 0.05, 1e-300, 0.05).vertex_reach == math.inf


def test_flat_distance_searches_above_the_reach_and_off_the_axis(monkeypatch):
    calls = []
    search = convex_geometry.minimize_on_circle

    def counted(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(convex_geometry, "minimize_on_circle", counted)
    support = FlatSupport(1.0, 0.5, FlatSupport.convexity_cap(0.5), 0.1)
    graph = GraphConstraint(support)
    reach = support.vertex_reach
    graph.distance(np.array([0.0, 1j * reach * (1.0 - 1e-9)]))
    assert len(calls) == 0
    graph.distance(np.array([0.0, 1j * reach * (1.0 + 1e-9)]))
    assert len(calls) == 1
    graph.distance(np.array([1e-9, 0.5j * reach]))
    assert len(calls) == 2
    graph.distance(np.array([0.0, 0.0]))  # the vertex itself
    assert len(calls) == 3


def test_flat_support_solves_x0_cap_once(monkeypatch):
    calls = []
    solve = convex_geometry.x0_cap
    monkeypatch.setattr(convex_geometry, "x0_cap",
                        lambda C, alpha: calls.append((C, alpha)) or solve(C, alpha))
    domain = flat_domain(C=1.0, alpha=0.5, s0=0.1)
    for _ in range(3):
        assert domain.support.zone == min(0.1, solve(1.0, 0.5))
        domain.zone_depth(np.array([0.0, 0.01j]))
    assert len(calls) == 1
    flat_domain(C=2.0).support.zone
    assert len(calls) == 2


def dense_graph_distance(support, rho, y) -> float:
    """The least distance from (rho, y) to the profile over [0, R0], or to
    the wall: a 200001-point scan, polished by golden-section search in a
    float bracket on the best scan interval."""
    C, alpha, R0 = support.C, support.alpha, support.R0
    ts = np.linspace(0.0, R0, 200001)
    with np.errstate(divide="ignore"):
        d2 = (ts - rho) ** 2 + (y - C * np.exp(-ts**-alpha)) ** 2
    dist2 = lambda t: (t - rho) ** 2 + (y - C * phi_alpha(t, alpha)) ** 2
    k = int(np.argmin(d2))
    lo, hi = float(ts[max(k - 1, 0)]), float(ts[min(k + 1, ts.size - 1)])
    best = float(d2[k])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-15 * R0:
        c, e = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        fc, fe = dist2(c), dist2(e)
        best = min(best, fc, fe)
        lo, hi = (lo, e) if fc < fe else (c, hi)
    return min(R0 - rho, math.sqrt(best))


def test_flat_distance_at_small_alpha_against_dense_reference():
    # below alpha = 0.3 the convexity cap falls under 1e-2 (3.9e-11 at
    # alpha = 0.1), where a search bracket absolute in t stopped short
    rng = np.random.default_rng(19)
    for _ in range(40):
        alpha = rng.uniform(0.1, 0.3)
        C = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
        support = FlatSupport(C, alpha, FlatSupport.convexity_cap(alpha) * rng.uniform(0.3, 1.0),
                              0.05)
        rho = support.R0 * rng.random()
        y = C * phi_alpha(rho, alpha) + support.R0 * 10.0 ** rng.uniform(-3.0, 0.0)
        d = FlatModelDomain(support).graph_distance(np.array([rho, 1j * y]))
        assert d == pytest.approx(dense_graph_distance(support, rho, y), rel=1e-6, abs=0.0)


def test_flat_distance_two_basins_against_mpmath():
    # near the axis the squared distance has a local minimum by the flat
    # vertex, 2.8695e-10 at t = 1.58e-11, and the global one, 2.8498e-10 at
    # t = 2.17e-10; a 65-point scan of [0, R0] picked the vertex basin
    domain = FlatModelDomain(FlatSupport(0.03, 0.134, 4.6e-8, 0.05))
    d = domain.graph_distance(np.array([1.44e-11, 2.85e-10j]))
    assert abs(d / 2.8498298982521769e-10 - 1.0) < 1e-12  # mpmath, 40 digits


@pytest.mark.xfail(strict=True, reason="the circle grid picks the basin; "
                   "a certified search would not")
def test_flat_distance_two_near_tied_basins_against_mpmath():
    # the same geometry at C = 0.0315: the vertex basin at 2.8798e-10 is
    # 0.7% farther than the global minimum, 2.8599e-10 at t = 2.29e-10,
    # yet wins on the grid
    domain = FlatModelDomain(FlatSupport(0.0315, 0.134, 4.6e-8, 0.05))
    d = domain.graph_distance(np.array([1.44e-11, 2.88e-10j]))
    assert abs(d / 2.8599338417889738e-10 - 1.0) < 1e-12  # mpmath, 40 digits


def test_flat_support_rejects_R0_past_the_convexity_cap_at_any_scale():
    # an absolute 1e-12 allowance let R0 = 1e-12 through at alpha = 0.05,
    # 2.8e14 times the cap 3.6e-27, and 1.026 times the cap at alpha = 0.1
    with pytest.raises(ValueError, match="R0 exceeds the convexity cap"):
        FlatSupport(1.0, 0.05, 1e-12, 0.05)
    cap = FlatSupport.convexity_cap(0.1)
    with pytest.raises(ValueError, match="R0 exceeds the convexity cap"):
        FlatSupport(1.0, 0.1, 1.02 * cap, 0.05)
    assert FlatSupport(1.0, 0.1, cap, 0.05).R0 == cap


def boundary_points_outside():
    """Points at most the membership tolerance outside one constraint, which
    membership calls "boundary", each with a direction that leaves at once:
    the outward one, or the tangent a whole tolerance below the graph's
    lowest point."""
    flat = flat_domain()
    s = flat.support
    rho = 0.5 * s.R0
    below_graph = 1j * (s.C * phi_alpha(rho, s.alpha) - 0.5 * MEMBERSHIP_TOL)
    return {
        "polydisc": (Polydisc((1.0, 0.7)), [1.0 + 0.5 * MEMBERSHIP_TOL, 0.0], [1.0, 0.0]),
        "flat cap": (flat, [0.0, 1j * (s.s0 + 0.5 * MEMBERSHIP_TOL)], [0.0, 1.0j]),
        "flat graph": (flat, [rho, below_graph], [0.0, -1.0j]),
        "flat cylinder": (flat, [s.R0 + 0.5 * MEMBERSHIP_TOL, 0.05j], [1.0, 0.0]),
        "flat axis tangent": (flat, [0.0, -1j * MEMBERSHIP_TOL], [1.0, 0.0]),
    }


@pytest.mark.parametrize("case", sorted(boundary_points_outside()))
def test_queries_at_a_boundary_point_outside_are_zero(case):
    # the constraint's own answer there is minus its gap, about -5e-13, or
    # no room at all a whole tolerance out
    domain, z, u = boundary_points_outside()[case]
    assert domain.membership(z) == "boundary"
    assert exit_time(domain, z, u) == 0.0
    assert inscribed_disc_radius(domain, z, u) == 0.0
    assert 0.0 <= boundary_distance(domain, z) <= MEMBERSHIP_TOL


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


def test_off_centre_disc_radii_take_the_worst_phase():
    # off the centre, with <p, v> not real, the disc leaves first along the
    # phase that makes Re<p, e^{i theta} v> = |<p, v>|: for unit v the ball
    # gives -b + sqrt(b^2 + R^2 - ||p||^2) with b = |<z - c, v>|, and each
    # coordinate disc of the polydisc (r_k - |z_k|) / |v_k|
    rng = np.random.default_rng(41)
    for _ in range(10):
        center, v = unit_vector(rng, 2), unit_vector(rng, 2)
        p = rng.uniform(0.1, 0.8) * unit_vector(rng, 2)
        b = abs(np.vdot(p, v))
        expected = -b + math.sqrt(b * b + 1.0 - float(np.vdot(p, p).real))
        r = inscribed_disc_radius(Ball(center, 1.0), center + p, v)
        assert r == pytest.approx(expected, rel=1e-12)
        radii = rng.uniform(0.5, 2.0, 2)
        z = rng.uniform(0.1, 0.8) * radii * np.exp(2j * math.pi * rng.random(2))
        expected = min((radii - abs(z)) / abs(v))
        assert inscribed_disc_radius(Polydisc(tuple(radii)), z, v) == pytest.approx(expected, rel=1e-12)


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


def flat_gaps(domain, points: np.ndarray) -> np.ndarray:
    """The flat model's signed gap at each row of ``points``, the array form
    of ``domain.signed_gap``: the largest of the three caps' gaps and the
    graph's ||z'|| - R0 and C phi_alpha(||z'||) - Im z_n."""
    s = domain.support
    p, zn = points[:, :-1], points[:, -1]
    rho = np.sqrt((p.real**2).sum(axis=1) + (p.imag**2).sum(axis=1))
    with np.errstate(divide="ignore"):  # rho = 0 gives 0^-alpha = inf, height 0
        height = s.C * np.exp(-(rho**-s.alpha))
    return np.max([zn.real - s.s0, -zn.real - s.s0, zn.imag - s.s0,
                   rho - s.R0, height - zn.imag], axis=0)


def flat_bisection(domain, z, directions: np.ndarray) -> np.ndarray:
    """:func:`membership_bisection` along every row of ``directions`` at
    once, with membership read from :func:`flat_gaps`."""
    lo, hi = np.zeros(len(directions)), np.full(len(directions), 8.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        kept = flat_gaps(domain, z + mid[:, None] * directions) <= MEMBERSHIP_TOL  # not outside
        lo, hi = np.where(kept, mid, lo), np.where(kept, hi, mid)
    return 0.5 * (lo + hi)


def grid_radius(domain, z, v, n=64) -> float:
    """The smallest membership-bisection exit on the flat model over n
    circle angles, then over n + 1 angles across the best one's two
    neighbouring cells, each pass bisecting all its angles at once: an upper
    bound on the inscribed radius, within about 1e-6 of it here."""
    v = v / np.linalg.norm(v)
    turns = lambda ts: np.array([complex(math.cos(t), math.sin(t)) for t in ts])
    exits = lambda ts: flat_bisection(domain, z, turns(ts)[:, None] * v)
    step = 2.0 * math.pi / n
    angles = step * np.arange(n)
    best = angles[np.argmin(exits(angles))]
    return float(np.min(exits(best + step * np.linspace(-1.0, 1.0, n + 1))))


@pytest.mark.parametrize("dimension", [2, 3])
def test_flat_gaps_match_membership(dimension):
    # the grid oracle's array membership against the domain's own, on seeded
    # points in and around the model, a quarter of them on the axis z' = 0
    rng = np.random.default_rng(43 + dimension)
    for alpha in (0.3, 0.5, 0.8):
        domain = flat_domain(alpha=alpha, dimension=dimension)
        s = domain.support
        shape = (400, dimension - 1)
        prime = 1.2 * s.R0 * (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))
        prime[:100] = 0.0
        last = s.s0 * (rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-0.2, 1.2, 400))
        points = np.column_stack([prime, last])
        gaps = flat_gaps(domain, points)
        assert np.all(np.abs(gaps - [domain.signed_gap(z) for z in points]) <= 1e-15)
        kept = [g <= MEMBERSHIP_TOL for g in gaps]
        assert kept == [domain.membership(z) != "outside" for z in points]
        assert 0 < sum(kept) < len(kept)


def unit_vector(rng, n: int) -> np.ndarray:
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return raw / np.linalg.norm(raw)


@pytest.mark.parametrize(
    "v_prime, v_n, dimension, on_graph",
    [
        (None, None, 2, False),
        (1e-12, 1.0, 2, False),
        (1e-150, 1.0, 2, False),
        (1e-200, 1.0, 2, False),
        (1.0, 0.0, 2, False),
        (1.0, 0.0, 3, False),
        (1.0, 0.0, 3, True),
    ],
    ids=["tilted", "v'=1e-12", "v'=1e-150", "v'=1e-200", "v_n=0", "v_n=0 in C^3",
         "v_n=0 on the graph"],
)
def test_flat_inscribed_radius_matches_membership_grid(v_prime, v_n, dimension, on_graph):
    # off-axis points at heights across the lower part of the box, or just
    # below the graph within the membership tolerance; the nearly normal
    # directions keep ||z'|| (almost) fixed around the circle, 1e-200
    # squares to 0, and tangential ones (v_n = 0) keep Im z_n fixed
    domain = flat_domain(dimension=dimension)
    s = domain.support
    rng = np.random.default_rng(17)
    for _ in range(2):
        rho = rng.uniform(0.1, 0.4) * s.R0
        height = s.C * phi_alpha(rho, s.alpha)
        lift = -0.5 * MEMBERSHIP_TOL if on_graph else rng.uniform(0.05, 0.3) * (s.s0 - height)
        z = np.append(rho * unit_vector(rng, dimension - 1),
                      complex(rng.uniform(-0.3, 0.3) * s.s0, height + lift))
        phase = np.exp(2j * math.pi * rng.random())
        if v_prime is None:
            v = np.append(rng.uniform(0.2, 1.0) * unit_vector(rng, dimension - 1),
                          rng.uniform(0.2, 1.0) * phase)
        else:
            v = np.append(v_prime * unit_vector(rng, dimension - 1), v_n * phase)
        assert domain.membership(z) == ("boundary" if on_graph else "inside")
        r = inscribed_disc_radius(domain, z, v)
        oracle = grid_radius(domain, z, v)
        assert r <= oracle + 1e-10
        assert oracle - r <= 1e-5 * oracle


@pytest.mark.parametrize("dimension", [2, 3])
def test_off_axis_tilted_radii_match_membership_grid(dimension):
    # the circle search's own inputs: off-axis bases with <z', v'> != 0, 48
    # seeded draws per dimension over three flatness exponents, bases from
    # near the axis to near the cylinder wall and from just above the graph
    # to halfway up the box
    rng = np.random.default_rng(29 + dimension)
    for alpha in (0.3, 0.5, 0.8):
        domain = flat_domain(alpha=alpha, dimension=dimension)
        s = domain.support
        for _ in range(16):
            rho = rng.uniform(0.02, 0.9) * s.R0
            height = s.C * phi_alpha(rho, s.alpha)
            z = np.append(rho * unit_vector(rng, dimension - 1),
                          complex(rng.uniform(-0.3, 0.3) * s.s0,
                                  height + rng.uniform(0.01, 0.5) * (s.s0 - height)))
            v = np.append(rng.uniform(0.1, 1.0) * unit_vector(rng, dimension - 1),
                          rng.uniform(0.1, 1.0) * np.exp(2j * math.pi * rng.random()))
            assert np.vdot(z[:-1], v[:-1]) != 0.0
            r = inscribed_disc_radius(domain, z, v)
            oracle = grid_radius(domain, z, v)
            assert r <= oracle + 1e-10
            assert oracle - r <= 1e-5 * oracle


def mp_level_radius(support, d):
    """min(R0, phi_alpha^{-1}(d)), the radius where C phi_alpha reaches d
    inside the cylinder, from mpmath at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        C, alpha, R0 = (mp.mpf(t) for t in (support.C, support.alpha, support.R0))
        return min(R0, mp.log(C / mp.mpf(d)) ** (-1 / alpha))


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("d", [1e-6, 1e-3, 0.01, 0.07])
@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["axis", "off-axis"])
def test_flat_tangential_radius_is_the_level_cylinder_exit(dimension, d, offset):
    # a tangential disc at (z', i d) stays at height d, so its radius is
    # the exit from the cylinder ||z'|| <= R where C phi_alpha reaches d, or
    # R = R0 (d = 0.07 is above C phi_alpha(R0)); the circle leaves it first
    # where Re<z', e^{i theta} v'> = |<z', v'>| = b, at -b + sqrt(b^2 + R^2 -
    # ||z'||^2).  The off-axis bases sit at R / 2.
    mp = pytest.importorskip("mpmath")
    domain = flat_domain(dimension=dimension)
    rng = np.random.default_rng(3)
    level = mp_level_radius(domain.support, d)
    z = np.append(offset * float(level) * unit_vector(rng, dimension - 1), 1j * d)
    v = np.append(unit_vector(rng, dimension - 1), 0.0)
    with mp.workdps(50):
        b = abs(mp.fsum(mp.conj(mp.mpc(x)) * mp.mpc(y) for x, y in zip(z[:-1], v[:-1])))
        pp = mp.fsum(abs(mp.mpc(x)) ** 2 for x in z[:-1])
        expected = float(-b + mp.sqrt(b**2 + level**2 - pp))
    assert inscribed_disc_radius(domain, z, v) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("d", [1e-6, 1e-3, 0.01, 0.07])
def test_flat_level_ray_exit_is_the_tangential_radius(dimension, d, monkeypatch):
    # along u = (1, 0') from (0', i d) Im z_n stays at d, so the exit is the
    # level cylinder's radius in closed form, with no root solve, and the
    # same float as the radius of the tangential disc with v = u
    def no_root_solve(*args):
        raise AssertionError("root solve called")

    monkeypatch.setattr(convex_geometry, "solve_monotone", no_root_solve)
    domain = flat_domain(dimension=dimension)
    z = np.append(np.zeros(dimension - 1), 1j * d)
    u = np.eye(dimension)[0]
    t = exit_time(domain, z, u)
    assert t == inscribed_disc_radius(domain, z, u)
    assert t == pytest.approx(float(mp_level_radius(domain.support, d)), rel=2e-16, abs=0.0)


def mp_orthogonal_flat_radius(support, z, v) -> float:
    """The flat model's inscribed radius when <z', v'> = 0, from mpmath at 50
    digits.  On the circle |t| = rho, ||z' + t v'||^2 = ||z'||^2 + rho^2
    ||v'||^2 at every angle while Im z_n dips to Im z_n - rho |v_n|, so the
    graph caps rho at the root of C phi_alpha(||z' + t v'||) + rho |v_n| =
    Im z_n (by bisection), the cylinder where ||z' + t v'|| = R0, and the box
    at (s0 - |Re z_n|) / |v_n| and (s0 - Im z_n) / |v_n|."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        norm = mp.sqrt(sum(abs(mp.mpc(x)) ** 2 for x in v))
        pp = sum(abs(mp.mpc(x)) ** 2 for x in z[:-1])
        ww = sum(abs(mp.mpc(x)) ** 2 for x in v[:-1]) / norm**2
        b = abs(mp.mpc(v[-1])) / norm
        x, y = mp.mpf(z[-1].real), mp.mpf(z[-1].imag)
        C, alpha, R0, s0 = (mp.mpf(t) for t in (support.C, support.alpha, support.R0, support.s0))
        height = lambda r2: C * mp.exp(-r2 ** (-alpha / 2)) if r2 > 0 else 0
        lhs = lambda rho: height(pp + rho**2 * ww) + rho * b
        lo, hi = mp.mpf(0), y / b
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if lhs(mid) < y else (lo, mid)
        caps = [lo, (s0 - abs(x)) / b, (s0 - y) / b]
        if ww > 0:
            caps.append(mp.sqrt((R0**2 - pp) / ww))
        return float(min(caps))


ORTHOGONAL_DISCS = {
    # axis points (0', i d), tilted and normal directions
    "axis C^2": (np.array([0.0, 0.01j]), np.array([0.6, 0.8j])),
    "deep axis C^2": (np.array([0.0, 1e-4j]), np.array([0.3 - 0.2j, -0.5 + 0.4j])),
    "normal axis C^2": (np.array([0.0, 0.01j]), np.array([0.0, 1.0])),
    "axis C^3": (np.array([0.0, 0.0, 0.02j]), np.array([0.2j, -0.3, 0.5 + 0.1j])),
    "shallow v_n axis C^3": (np.array([0.0, 0.0, 0.005j]), np.array([0.7, 0.5j, 0.05j])),
    # off-axis: in C^2 only v' = 0 gives <z', v'> = 0; in C^3 v' can lie
    # in the other coordinate
    "normal off-axis C^2": (np.array([0.04 * np.exp(0.7j), 0.003 + 0.02j]), np.array([0.0, 1.0j])),
    "off-axis C^3": (np.array([0.03 * np.exp(2.1j), 0.0, -0.01 + 0.015j]),
                     np.array([0.0, 0.4 - 0.3j, 0.6j])),
    "near the wall C^3": (np.array([0.0, 0.1, 0.05j]), np.array([0.5j, 0.0, -0.2 + 0.1j])),
    "normal off-axis C^3": (np.array([0.02, 0.05j, 0.04j]), np.array([0.0, 0.0, 1.0])),
}


@pytest.mark.parametrize("case", sorted(ORTHOGONAL_DISCS))
def test_flat_radius_with_orthogonal_directions_is_the_closed_form(case, monkeypatch):
    # with <z', v'> = 0 the exit depends on the angle only through
    # Im(v_n e^{i theta}); the disc leaves where that is -|v_n|, with no
    # circle search
    def no_circle_search(h):
        raise AssertionError("circle search called")

    monkeypatch.setattr(convex_geometry, "minimize_on_circle", no_circle_search)
    z, v = ORTHOGONAL_DISCS[case]
    domain = flat_domain(dimension=len(z))
    assert domain.membership(z) == "inside"
    assert np.vdot(z[:-1], v[:-1]) == 0.0
    r = inscribed_disc_radius(domain, z, v)
    assert r == pytest.approx(mp_orthogonal_flat_radius(domain.support, z, v), rel=1e-12, abs=0.0)
    for theta in (0.4, 2.0, -2.9):
        turned = complex(math.cos(theta), math.sin(theta)) * v
        assert inscribed_disc_radius(domain, z, turned) == pytest.approx(r, rel=1e-14, abs=0.0)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]),
       st.sampled_from([0.3, 0.5, 0.8]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_flat_one_exit_radius_is_the_worst_phase_exit(seed, dimension, alpha, tangential):
    # tangential discs (v_n = 0) and discs with <z', v'> = 0 (z' = 0, v' =
    # 0, or in C^3 the two in different coordinates): the radius is at most
    # the exit along e^{i theta} v at every theta, and it is the exit at the
    # worst phase.  That is the graph's, where Re<z', e^{i theta} v'> =
    # |<z', v'>| and Im(e^{i theta} v_n) = -|v_n|, or one of the box caps',
    # where Re(e^{i theta} v_n) = +-|v_n| or Im(e^{i theta} v_n) = |v_n|.
    rng = np.random.default_rng(seed)
    domain = flat_domain(alpha=alpha, dimension=dimension)
    s = domain.support
    rho = rng.choice([0.0, rng.uniform(0.02, 0.9) * s.R0])
    height = s.C * phi_alpha(rho, s.alpha)
    z = np.append(rho * unit_vector(rng, dimension - 1),
                  complex(rng.uniform(-0.3, 0.3) * s.s0,
                          height + rng.uniform(0.01, 0.5) * (s.s0 - height)))
    v = np.append(rng.uniform(0.1, 1.0) * unit_vector(rng, dimension - 1),
                  rng.uniform(0.1, 1.0) * np.exp(2j * math.pi * rng.random()))
    if tangential:
        v[-1] = 0.0
    elif rho > 0.0 and (dimension == 2 or rng.random() < 0.3):
        v[:-1] = 0.0
    elif rho > 0.0:
        k = rng.integers(2)
        z[k], v[1 - k] = 0.0, 0.0
    pv, vn = complex(np.vdot(z[:-1], v[:-1])), complex(v[-1])
    assert pv == 0.0 or vn == 0.0
    r = inscribed_disc_radius(domain, z, v)
    for theta in 2.0 * math.pi * np.arange(64) / 64:
        # up to rounding, where theta hits the worst phase
        assert r <= exit_time(domain, z, np.exp(1j * theta) * v) * (1.0 + 1e-12)
    if vn == 0.0:
        phases = [pv.conjugate() / abs(pv) if pv != 0.0 else 1.0]
    else:
        phases = [vn.conjugate() / abs(vn) * turn for turn in (1.0, 1j, -1.0, -1j)]
    worst = min(exit_time(domain, z, phase * v) for phase in phases)
    assert r == pytest.approx(worst, rel=1e-12, abs=0.0)


def analytic_worst_phase(piece, z: np.ndarray, u: np.ndarray) -> complex:
    """The e^{i theta} whose ray u leaves the piece first: conj<p, w> /
    |<p, w>| for a disc (p the offset, w its block of u), conj<a, u> /
    |<a, u>| for a half-space."""
    if isinstance(piece, convex_geometry.DiscConstraint):
        inner = complex(np.vdot(z[piece.coords] - piece.center, u[piece.coords]))
    else:
        inner = complex(np.vdot(piece.normal, u))
    return inner.conjugate() / abs(inner)


@pytest.mark.parametrize("seed", range(8))
def test_each_pieces_worst_phase_exit_is_its_ray_exit_at_the_worst_phase(seed):
    # the inscribed disc radius is no second question: each piece's exit at
    # the worst phase is its ray exit along the analytic worst phase, and no
    # phase of a 64-point grid leaves sooner
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    radii = rng.uniform(0.5, 2.0, n)
    center = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    box = [(a, b) for k in range(n) for a, b in
           ((np.eye(n)[k], 1.0), (-np.eye(n)[k], 0.5), (1j * np.eye(n)[k], 2.0),
            (-1j * np.eye(n)[k], 1.5))]
    turns = np.exp(2j * math.pi * rng.random(n))
    cases = [
        (Polydisc(tuple(radii)), radii * rng.uniform(0.0, 0.9, n) * turns),
        (Ball(center, 1.5), center + 1.5 * rng.uniform(0.0, 0.9) * unit_vector(rng, n)),
        (HalfspaceIntersection(box), rng.uniform(-0.4, 0.9, n) + 1j * rng.uniform(-1.4, 1.9, n)),
    ]
    grid = np.exp(2j * math.pi * np.arange(64) / 64)
    for domain, z in cases:
        assert domain.membership(z) == "inside"
        u = unit_vector(rng, n)
        for piece in domain.pieces:
            worst = piece.exit(z, u, worst_phase=True)
            phase = analytic_worst_phase(piece, z, u)
            assert worst == pytest.approx(piece.exit(z, phase * u, worst_phase=False),
                                          rel=1e-15, abs=0.0)
            assert worst <= min(piece.exit(z, turn * u, worst_phase=False)
                                for turn in grid) * (1.0 + 1e-12)


def test_no_piece_asks_for_the_disc_radius_apart_from_its_exit():
    # the inscribed disc radius is each piece's exit at the worst phase
    tree = ast.parse(Path(convex_geometry.__file__).read_text())
    defines = [(node.name, item.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)]
    assert [pair for pair in defines if pair[1] == "disc_radius"] == []
    assert ("DiscConstraint", "exit") in defines
    assert not hasattr(convex_geometry, "_disc_radius")


def test_inscribed_radius_rejects_zero_direction():
    with pytest.raises(ValueError, match="direction must be nonzero"):
        inscribed_disc_radius(Polydisc((1.0,)), [0.0], [0.0])


@pytest.mark.parametrize("u, unit", [
    ([1e-160, 1e-160], [1.0, 1.0]),
    ([1e-200, 0.0], [1.0, 0.0]),
    ([1e200, 0.0], [1.0, 0.0]),
    ([5e-324, 0.0], [1.0, 0.0]),
])
def test_ray_queries_read_only_the_direction_of_extreme_lengths(u, unit):
    # the squares of these entries underflow or overflow: the radius along
    # 1e-160 (1, 1) came back 5.6e-6 short of sqrt 2, a length of 1e-200
    # read as a zero direction and one of 1e200 gave an infinite radius
    square = Polydisc((1.0, 1.0))
    expected = math.hypot(*unit)
    assert inscribed_disc_radius(square, [0.0, 0.0], u) == pytest.approx(expected, rel=1e-15)
    assert exit_time(square, [0.0, 0.0], u) == pytest.approx(expected, rel=1e-15)


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


# --- the ball's Kobayashi distance -------------------------------------------

def mp_ball_distance(mp, a, b):
    """artanh sqrt(1 - (1 - |a|^2)(1 - |b|^2) / |1 - <a, b>|^2), in mpmath."""
    a, b = [mp.mpc(complex(x)) for x in a], [mp.mpc(complex(x)) for x in b]
    norm2 = lambda z: mp.fsum(abs(x) ** 2 for x in z)
    inner = mp.fsum(x * mp.conj(y) for x, y in zip(a, b))
    return mp.atanh(mp.sqrt(1 - (1 - norm2(a)) * (1 - norm2(b)) / abs(1 - inner) ** 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_distance_matches_mpmath(n):
    # a third of the pairs 1e-9 apart, and 1 - |a| log-uniform down to
    # 2.5e-4, so many points lie within 3e-4 of the sphere
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(40 + n)

    def direction():
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        return u / np.linalg.norm(u)

    def point():
        return direction() * (1.0 - 10.0 ** rng.uniform(math.log10(2.5e-4), 0.0))

    with mp.workdps(50):
        for k in range(400):
            a = point()
            b = a + 1e-9 * direction() if k % 3 == 0 else point()
            exact = mp_ball_distance(mp, a, b)
            assert abs(ball_distance(a, b) / exact - 1) < 1e-12, (a, b)


def test_ball_distance_basics():
    assert ball_distance(0.3j, 0.3j) == 0.0
    a, b = np.array([0.3, 0.2j]), np.array([-0.1j, 0.6])
    assert ball_distance(a, b) == pytest.approx(ball_distance(b, a), rel=1e-15)
    # unitary invariance: swapping coordinates and turning phases
    turn = np.exp(1j * np.array([0.4, -1.1]))
    assert ball_distance(turn * a[::-1], turn * b[::-1]) == pytest.approx(
        ball_distance(a, b), rel=1e-14)


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


@given(SEEDS, st.sampled_from([1, 2, 3]),
       st.just(0.0) | st.floats(-6.0, 0.0).map(lambda k: 10.0**k)
       | st.floats(-6.0, 0.0).map(lambda k: -(10.0**k)),
       st.floats(-150.0, 150.0))
@settings(max_examples=60, deadline=None)
def test_boundedness_does_not_depend_on_scale_or_unitary_maps(seed, n, eta, k):
    # a_j -> lambda U a_j maps the set by a biholomorphism, so its verdict
    # stays; the squares of the scaled normals' entries under- or overflow
    rng = np.random.default_rng(seed)
    normals = eta_family(rng, eta, n, int(rng.integers(0, 6)))
    unitary, _ = np.linalg.qr(_complex_gaussian(rng, n, n))
    assert builds(normals) == (eta > 0.0)
    assert builds(10.0**k * normals @ unitary.T) == (eta > 0.0)


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
    # the midpoint of two seeded points inside, each drawn on a random real
    # ray from the anchor short of its exit time, is inside up to 1e-9
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
        assert domain.signed_gap(0.5 * (z1 + z2)) <= 1e-9


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


def test_halfspace_radius_is_a_python_float():
    # the half-space radius was a numpy float, so rest-check's `satisfied`
    # was a numpy bool wherever a box cap binds
    radius = inscribed_disc_radius(halfspace_box(), [0.5, 0.0], [1.0, 0.0])
    assert type(radius) is float and radius == 0.5
    # the surface, 0.029 away, is nearer than the cap Re z_n <= s0 (0.03)
    # and the cylinder wall (0.061), so the point is in the zone, and that
    # cap binds the radius
    domain, z, v = flat_domain(), np.array([0.05, 0.07 + 0.045j]), np.array([0.0, 1.0])
    report = rest_bound_check(domain, z, v)
    assert report.d == domain.pieces[-1].surface_distance(z) < 0.03
    cap, graph = (domain.pieces[k].exit(z, v, worst_phase=True) for k in (0, -1))
    assert report.radius == cap < graph
    assert type(report.radius) is float and type(report.satisfied) is bool


def test_flat_model_construction_memory_does_not_grow_with_the_square_of_dimension():
    # an n x n identity built for its last row peaked at 137 MB at this
    # dimension
    support = FlatSupport(1.0, 0.5, FlatSupport.convexity_cap(0.5), 0.1)
    tracemalloc.start()
    try:
        FlatModelDomain(support, dimension=3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zone_depth_counts_the_cylinder_wall_as_a_cap():
    # the wall ||z'|| <= R0 is 0.011 away and the surface 0.023: the wall is
    # an edge of the local model, not the flat boundary, so the point is not
    # in the zone; the graph piece's distance is still the nearer of the two
    domain, z = flat_domain(), np.array([0.1, 0.085 + 0.07j])
    graph = domain.pieces[-1]
    wall = graph.support.R0 - 0.1
    assert graph.distance(z) == min(wall, graph.surface_distance(z)) == wall
    assert domain.zone_depth(z) is None
    with pytest.raises(ValueError, match="not in the boundary zone"):
        rest_bound_check(domain, z, [0.0, 1.0])


def test_rest_bound_rejects_point_outside_zone():
    # alpha = 0.2 has x0_cap ~ 3e-6, so a point at distance 5e-5 sits outside
    # the compact-set zone even though it is close to the boundary
    domain = FlatModelDomain(
        FlatSupport(1.0, 0.2, FlatSupport.convexity_cap(0.2), 0.01)
    )
    with pytest.raises(ValueError, match="point not in the boundary zone"):
        rest_bound_check(domain, [0.0, 5e-5j], [1.0, 0.0])


def test_rest_bound_rejects_a_point_nearest_a_box_cap():
    # 0.005 from the cap Re z_n <= s0 and 0.04 from the graph: the flatness
    # lemma speaks of the graph alone, yet the check ran here and found the
    # radius 0.0965 over the bound 0.0712 for d = 0.005
    domain = FlatModelDomain(FlatSupport(1.0, 0.5, 0.111, 0.08))
    with pytest.raises(ValueError, match="boundary zone of the flat graph"):
        rest_bound_check(domain, [0.0, 0.075 + 0.04j], [1.0, 0.0])


@pytest.mark.parametrize("domain", [
    Polydisc((1.0, 1.0)),
    Ball(np.zeros(2), 1.0),
    halfspace_box(),
], ids=lambda domain: domain.kind)
def test_rest_bound_rejects_a_domain_that_is_not_a_flat_model(domain):
    # the zone is the flat graph's alone; a polydisc raised AttributeError
    # on its missing zone_depth
    with pytest.raises(ValueError, match="needs a flat model domain"):
        rest_bound_check(domain, [0, 0], [1, 0])


# --- stacks of points ------------------------------------------------------------

README_FLAT = FlatModelDomain(FlatSupport(1.0, 0.5, 0.111, 0.08))


def bits(values) -> list[int]:
    """The IEEE bits of each value, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def disc_rows(rng, radii, m: int) -> np.ndarray:
    """m rows, each coordinate inside the disc of its radius."""
    radii = np.asarray(radii)
    size = (m, len(radii))
    return radii * np.sqrt(rng.random(size)) * np.exp(2j * math.pi * rng.random(size))


def flat_rows(rng, domain: FlatModelDomain, m: int) -> np.ndarray:
    """Rows of the flat model: m / 2 on the axis z' = 0, the rest off it,
    each with Im z_n between the graph and s0 and |Re z_n| below s0."""
    s = domain.support
    prime = disc_rows(rng, [0.9 * s.R0] * (domain.dimension - 1), m)
    prime[: m // 2] = 0.0
    floor = np.array([s.C * phi_alpha(r, s.alpha) for r in np.linalg.norm(prime, axis=1)])
    y = floor + (s.s0 - floor) * rng.random(m)
    x = s.s0 * (2.0 * rng.random(m) - 1.0)
    return np.column_stack([prime, x + 1j * y])


def stacked_cases():
    """Each kind of domain with seeded rows inside it and one row on its
    boundary."""
    rng = np.random.default_rng(44)
    ball = Ball([0.1, 0.2j, -0.3], 0.75)
    box = halfspace_box(extra=[(np.array([0.6, 0.8j]), 0.8),
                               (np.array([-0.48 + 0.6j, 0.64]), 1.2)])
    box_rows = 0.9 * (2.0 * rng.random((40, 2)) - 1.0 + 2j * rng.random((40, 2)) - 1j)
    box_rows = box_rows[[box.membership(z) == "inside" for z in box_rows]]
    ball_rows = ball.center + disc_rows(rng, [0.75 / math.sqrt(3.0)] * 3, 40)
    # a disc of radius 2^-600 is all within the membership tolerance of
    # its boundary, so every row of that polydisc reads "boundary"
    polydiscs = {f"polydisc 2^{k}": (Polydisc((1.0, 2.0**k)),
                                     np.vstack([disc_rows(rng, (1.0, 2.0**k), 40), [[1.0, 0.0]]]))
                 for k in (600, -600)}
    return {
        **polydiscs,
        "ball": (ball, np.vstack([ball_rows, [ball.center + [0.75, 0.0, 0.0]]])),
        "box": (box, np.vstack([box_rows, [[1.0, 0.0]]])),
        "flat": (README_FLAT, np.vstack([flat_rows(rng, README_FLAT, 40), [[0.0, 0.0]]])),
    }


@pytest.mark.parametrize("case", sorted(stacked_cases()))
def test_a_stack_reads_as_its_points_to_the_bit(case):
    domain, rows = stacked_cases()[case]
    assert rows.ndim == 2 and len(rows) > 30
    one = [domain.membership(z) for z in rows]
    assert one[-1] == "boundary" and "outside" not in one
    assert domain.membership(rows) == one
    assert bits(domain.signed_gap(rows)) == bits([domain.signed_gap(z) for z in rows])
    distances = boundary_distance(domain, rows)
    assert bits(distances) == bits([boundary_distance(domain, z) for z in rows])
    assert distances[-1] == 0.0 and (distances[:-1] > 0.0).all()
    for piece in domain.pieces:
        assert bits(piece.gap(rows)) == bits([piece.gap(z) for z in rows])
        assert bits(piece.distance(rows)) == bits([piece.distance(z) for z in rows])


def test_a_graph_stack_searches_the_surface_row_by_row(monkeypatch):
    # rows on the axis below the vertex reach read their height; rows above
    # it (inside the graph piece, above the README model's caps) and rows
    # off the axis take one circle search each, as one point does
    calls = []
    search = convex_geometry.minimize_on_circle
    monkeypatch.setattr(convex_geometry, "minimize_on_circle",
                        lambda h: calls.append(h) or search(h))
    graph = README_FLAT.pieces[-1]
    reach = README_FLAT.support.vertex_reach
    axis = np.array([[0.0, 1j * y] for y in (0.1 * reach, 0.9 * reach, 1.1 * reach, 2.0 * reach)])
    rows = np.vstack([axis, flat_rows(np.random.default_rng(45), README_FLAT, 12)[6:]])
    distances = graph.distance(rows)
    assert len(calls) == 2 + 6
    assert bits(distances) == bits([graph.distance(z) for z in rows])
    assert bits(graph.gap(rows)) == bits([graph.gap(z) for z in rows])
    assert distances[:2].tolist() == [0.1 * reach, 0.9 * reach]


@pytest.mark.parametrize("case", sorted(stacked_cases()))
def test_a_stack_with_a_row_outside_is_rejected_as_the_row_is(case):
    domain, rows = stacked_cases()[case]
    outside = rows[-1] * 1.5 - 0.5 * interior_anchor(domain)  # past the boundary row
    assert domain.membership(outside) == "outside"
    stack = np.vstack([rows[:5], [outside], rows[5:]])
    assert domain.membership(stack)[5] == "outside"
    for z in (outside, stack):
        with pytest.raises(ValueError, match="^base point outside domain$"):
            boundary_distance(domain, z)
