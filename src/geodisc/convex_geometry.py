"""Convex domain models in C^n and their boundary geometry.

Domains are immutable intersections of convex constraints (discs over
coordinate blocks, real half-spaces and the flatness graph).  Exit times
along real rays, the Euclidean boundary distance and the radius of the
largest complex-affine disc through a point are minima over the
constraints.  Alongside sit the flatness functions e^{-1/x^alpha} with
their inverses and root equations, and the inscribed-radius bound of the
flatness lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .numerics import golden_section, minimize_on_circle, solve_monotone

MEMBERSHIP_TOL = 1e-12


# --- flatness functions and root equations ----------------------------------

def phi_alpha(x: float, alpha: float) -> float:
    """e^{-1/x^alpha} for x > 0, extended by 0 at x = 0 (flat to all orders)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    return math.exp(-(x**-alpha))


def phi_alpha_inv(d: float, C: float, alpha: float) -> float:
    """Inverse of x -> C phi_alpha(x): [log(C/d)]^{-1/alpha} for 0 < d < C."""
    if alpha <= 0.0 or C <= 0.0:
        raise ValueError("C and alpha must be positive")
    if not 0.0 < d < C:
        raise ValueError("outside inverse domain")
    return math.log(C / d) ** (-1.0 / alpha)


def x0_cap(C: float, alpha: float, scan_n: int | None = None) -> float:
    """min of {C/2} and the solutions of x = [log(C/x)]^{-1/alpha} in (0, C).

    In s = log x the solutions are the zeros of h(s) = e^{-alpha s} + s -
    log C, which falls and then rises with its minimum at s* = log(alpha) /
    alpha.  So there are none when s* >= log C or h(s*) > 0, and otherwise
    the smaller one lies left of s*, where it is bisected on the log scale:
    it can sit hundreds of decades below C.  ``scan_n`` is accepted and
    ignored; it sized the log-spaced sign scan this bracket replaced, and
    existing callers still pass it.
    """
    if C <= 0.0 or alpha <= 0.0:
        raise ValueError("C and alpha must be positive")
    log_C = math.log(C)
    h = lambda s: math.exp(-alpha * s) + s - log_C
    s_star = math.log(alpha) / alpha
    h_star = h(s_star)
    if s_star >= log_C or h_star > 0.0:
        return C / 2.0
    # e^{alpha w} > 1 + alpha w + (alpha w)^2 / 2 gives h(s* - w) > 0 once
    # alpha w^2 / 2 >= -h(s*)
    lo = s_star - math.sqrt(-2.0 * h_star / alpha) - 1.0
    root = solve_monotone(h, lo, s_star, 0.0, 0.0).root
    return min(C / 2.0, math.exp(root))


def rho_triangle(d: float, slope: float, C: float, alpha: float) -> float:
    """The unique rho > 0 with C phi_alpha(rho) + rho * slope = d.

    The left side is strictly increasing, so this is a bracketed monotone
    solve; slope is the ratio V_n / ||V'|| of the tilted disc direction.
    """
    if d <= 0.0:
        raise ValueError("d must be positive")
    if slope < 0.0:
        raise ValueError("slope must be nonnegative")
    if C <= 0.0 or alpha <= 0.0:
        raise ValueError("C and alpha must be positive")
    if slope == 0.0:
        if d >= C:
            raise ValueError("no solution: flatness term never reaches d")
        return phi_alpha_inv(d, C, alpha)
    lhs = lambda rho: C * phi_alpha(rho, alpha) + rho * slope
    hi = d / slope
    if d < C:
        hi = min(hi, phi_alpha_inv(d, C, alpha))
    res = solve_monotone(lhs, 0.0, hi * (1.0 + 1e-12), d, 1e-14)
    return res.root


# --- convex constraints --------------------------------------------------------
#
# Each constraint is a closed convex set and answers: gap(z), negative
# inside; exit(z, u), the last t >= 0 with z + t u in it (unit u), or inf
# when the ray never leaves; distance(z) to its boundary from inside; and
# disc_radius(z, v), the largest rho with z + rho e^{i theta} v in it for
# every theta.

@dataclass(frozen=True)
class DiscConstraint:
    """|z[coords] - center| <= radius over a block of coordinates."""

    coords: slice
    radius: float
    center: np.ndarray | complex = 0.0

    def gap(self, z: np.ndarray) -> float:
        return float(np.linalg.norm(z[self.coords] - self.center)) - self.radius

    def exit(self, z: np.ndarray, u: np.ndarray) -> float:
        p = z[self.coords] - self.center
        w = u[self.coords]
        ww = float(np.vdot(w, w).real)
        if ww == 0.0:
            return math.inf
        dot = float(np.vdot(p, w).real)
        norm = float(np.linalg.norm(p))
        slack = (self.radius - norm) * (self.radius + norm)
        root = math.sqrt(max(dot * dot + ww * slack, 0.0))
        # the positive root of ww t^2 + 2 dot t - slack, without cancellation
        return slack / (dot + root) if dot > 0.0 else (root - dot) / ww

    def distance(self, z: np.ndarray) -> float:
        return -self.gap(z)

    def disc_radius(self, z: np.ndarray, v: np.ndarray) -> float:
        # the circle first leaves along the phase that makes Re<p, w> = |<p, w>|
        inner = np.vdot(z[self.coords] - self.center, v[self.coords])
        phase = inner.conjugate() / abs(inner) if inner != 0.0 else 1.0
        return self.exit(z, phase * v)


@dataclass(frozen=True)
class HalfspaceConstraint:
    """Re<a, z> <= b, stored with a unit normal a so the gap is a distance."""

    normal: np.ndarray
    offset: float

    def gap(self, z: np.ndarray) -> float:
        return float(np.vdot(self.normal, z).real) - self.offset

    def exit(self, z: np.ndarray, u: np.ndarray) -> float:
        rate = float(np.vdot(self.normal, u).real)
        return -self.gap(z) / rate if rate > 0.0 else math.inf

    def distance(self, z: np.ndarray) -> float:
        return -self.gap(z)

    def disc_radius(self, z: np.ndarray, v: np.ndarray) -> float:
        # Re<a, e^{i theta} v> peaks at |<a, v>|
        rate = abs(np.vdot(self.normal, v))
        return -self.gap(z) / rate if rate > 0.0 else math.inf


@dataclass(frozen=True)
class GraphConstraint:
    """The flatness graph C phi_alpha(||z'||) <= Im z_n over the cylinder
    ||z'|| <= R0, z' = z[:-1], where the graph's profile is convex."""

    support: FlatSupport
    cylinder: DiscConstraint = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cylinder", DiscConstraint(slice(0, -1), self.support.R0))

    def height(self, rho: float) -> float:
        return self.support.C * phi_alpha(rho, self.support.alpha)

    def gap(self, z: np.ndarray) -> float:
        rho = float(np.linalg.norm(z[:-1]))
        return max(rho - self.support.R0, self.height(rho) - float(z[-1].imag))

    def exit(self, z: np.ndarray, u: np.ndarray) -> float:
        p, w = z[:-1], u[:-1]
        pp = float(np.vdot(p, p).real)
        pw = float(np.vdot(p, w).real)
        ww = float(np.vdot(w, w).real)
        y, dy = float(z[-1].imag), float(u[-1].imag)
        if ww == 0.0:
            # ||z'|| stays fixed, so the gap is affine in t
            slack = y - self.height(math.sqrt(pp))
            return slack / -dy if dy < 0.0 else math.inf

        def gap(t: float) -> float:
            rho = math.sqrt(max(pp + t * (2.0 * pw + t * ww), 0.0))
            return self.height(rho) - (y + t * dy)

        within = self.cylinder.exit(z, u)
        if dy < 0.0:
            # the graph is >= 0, so a falling ray is below it once Im z_n < 0
            within = min(within, max(y, 0.0) / -dy)
        # A base point on the graph counts as inside up to the membership
        # tolerance, as it does for the base check; the gap is convex inside
        # the cylinder, so it changes sign once on [0, within].
        level = 0.0 if gap(0.0) < 0.0 else MEMBERSHIP_TOL
        if gap(within) <= level:
            return within
        return solve_monotone(gap, 0.0, within, level, 1e-15).root

    def distance(self, z: np.ndarray) -> float:
        """Distance to the cylinder wall or to the surface {Im z_n = C
        phi_alpha(||z'||), ||z'|| <= R0}, whichever is nearer.

        By rotation invariance the surface distance is a 1-d problem in the
        radial profile; the profile is convex on [0, R0], so the squared
        distance along it is unimodal and golden-section is safe after a
        coarse scan.
        """
        R0 = self.support.R0
        rho = float(np.linalg.norm(z[:-1]))
        y = float(z[-1].imag)
        dist2 = lambda t: (t - rho) ** 2 + (y - self.height(t)) ** 2
        ts = np.linspace(0.0, R0, 65)
        best = min(range(65), key=lambda i: dist2(float(ts[i])))
        lo = float(ts[max(0, best - 1)])
        hi = float(ts[min(64, best + 1)])
        _, value = golden_section(dist2, lo, hi, 1e-14 * max(1.0, R0))
        return min(self.cylinder.distance(z), math.sqrt(value))

    def disc_radius(self, z: np.ndarray, v: np.ndarray) -> float:
        w = v[:-1]
        if float(np.vdot(w, w).real) == 0.0:
            # ||z'|| stays fixed and Im z_n falls by at most |v_n| per unit
            return (float(z[-1].imag) - self.height(float(np.linalg.norm(z[:-1])))) / abs(v[-1])
        # a closed disc lies in a convex set iff its boundary circle does
        objective = lambda theta: self.exit(z, v * complex(math.cos(theta), math.sin(theta)))
        _, radius = minimize_on_circle(objective, coarse_n=64, refine_tol=1e-12)
        return radius


# --- domain models -----------------------------------------------------------

def _as_point(z) -> np.ndarray:
    return np.atleast_1d(np.asarray(z, dtype=complex))


class ConvexDomainModel:
    """A closed convex set in C^n: the intersection of the convex constraints
    in ``pieces``, which subclasses set in ``__post_init__``."""

    kind: str = "abstract"
    dimension: int
    pieces: tuple

    def signed_gap(self, z: np.ndarray) -> float:
        """Negative inside, positive outside; magnitude is a gap proxy."""
        if len(z) != self.dimension:
            raise ValueError("point has wrong dimension")
        return max(piece.gap(z) for piece in self.pieces)

    def membership(self, z, tol: float = MEMBERSHIP_TOL) -> str:
        gap = self.signed_gap(_as_point(z))
        if gap < -tol:
            return "inside"
        if gap > tol:
            return "outside"
        return "boundary"


@dataclass(frozen=True)
class Polydisc(ConvexDomainModel):
    radii: tuple[float, ...]
    kind: str = field(default="polydisc", init=False)

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii or any(r <= 0.0 for r in self.radii):
            raise ValueError("polydisc radii must be positive")
        object.__setattr__(self, "pieces", tuple(
            DiscConstraint(slice(k, k + 1), r)
            for k, r in enumerate(self.radii)
        ))

    @property
    def dimension(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class Ball(ConvexDomainModel):
    center: np.ndarray
    radius: float
    kind: str = field(default="ball", init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if self.center.size == 0:
            raise ValueError("ball center must have at least one coordinate")
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")
        pieces = (DiscConstraint(slice(None), self.radius, self.center),)
        object.__setattr__(self, "pieces", pieces)

    @property
    def dimension(self) -> int:
        return len(self.center)


# For unit normals: rows are dependent below this volume, and a ray recedes
# while it breaks no constraint by more than this rate.
_RANK_TOL = _RAY_TOL = 1e-12


def _is_bounded(normals: np.ndarray) -> bool:
    """Whether {z : Re<a_j, z> <= b_j} is bounded, for unit normals a_j: iff
    no real d != 0 has A d <= 0, the rows of A being (Re a_j, Im a_j).  A
    rank deficit gives such a d; at full rank the cone {A d <= 0} is pointed
    and nonzero iff it has an extreme ray, the null line of 2n - 1
    independent rows on a side where A d <= 0.  Every such row set is tried."""
    A = np.hstack([normals.real, normals.imag])
    m, dim = A.shape
    if np.linalg.matrix_rank(A, tol=_RANK_TOL) < dim:
        return False
    minor_cols = np.array([[c for c in range(dim) if c != j] for j in range(dim)])
    row_sets = combinations(range(m), dim - 1)
    while batch := list(islice(row_sets, 4096)):
        rows = A[np.array(batch)]
        # the generalized cross product of the rows spans their null line;
        # its norm is the volume they span
        minors = np.linalg.det(np.moveaxis(rows[:, :, minor_cols], 2, 1))
        rays = minors * (-1.0) ** np.arange(dim)
        volumes = np.linalg.norm(rays, axis=1)
        keep = volumes > _RANK_TOL
        rates = rays[keep] @ A.T / volumes[keep, None]
        if np.any(np.all(rates <= _RAY_TOL, axis=1) | np.all(rates >= -_RAY_TOL, axis=1)):
            return False
    return True


@dataclass(frozen=True)
class HalfspaceIntersection(ConvexDomainModel):
    """Intersection of Re<a_j, z> <= b_j; must contain the interior point and
    be bounded (checked exactly on the recession cone)."""

    constraints: tuple[tuple[np.ndarray, float], ...]
    interior_point: np.ndarray = None
    kind: str = field(default="halfspace_intersection", init=False)

    def __post_init__(self):
        cons = tuple((_as_point(a), float(b)) for a, b in self.constraints)
        if not cons:
            raise ValueError("need at least one halfspace")
        dim = len(cons[0][0])
        if any(len(a) != dim for a, _ in cons):
            raise ValueError("inconsistent constraint dimensions")
        object.__setattr__(self, "constraints", cons)
        norms = [float(np.linalg.norm(a)) for a, _ in cons]
        if 0.0 in norms:
            raise ValueError("halfspace normal must be nonzero")
        pieces = tuple(HalfspaceConstraint(a / r, b / r) for (a, b), r in zip(cons, norms))
        object.__setattr__(self, "pieces", pieces)
        anchor = (
            np.zeros(dim, dtype=complex)
            if self.interior_point is None
            else _as_point(self.interior_point)
        )
        object.__setattr__(self, "interior_point", anchor)
        if self.signed_gap(anchor) >= 0.0:
            raise ValueError("interior point is not inside")
        if not _is_bounded(np.array([piece.normal for piece in pieces])):
            raise ValueError("halfspace intersection is unbounded")

    @property
    def dimension(self) -> int:
        return len(self.constraints[0][0])


@dataclass(frozen=True)
class FlatSupport:
    """Constants of the outside-supporting flatness graph C phi_alpha(||z'||).

    R0 is capped at (alpha/(alpha+1))^{1/alpha}: the profile is convex up to
    exactly that point, and the flat model needs a convex graph.
    """

    C: float
    alpha: float
    R0: float
    s0: float

    def __post_init__(self):
        if self.C <= 0.0 or self.s0 <= 0.0 or self.R0 <= 0.0:
            raise ValueError("C, R0, s0 must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.R0 > self.convexity_cap(self.alpha) + 1e-12:
            raise ValueError("R0 exceeds the convexity cap of the graph")

    @staticmethod
    def convexity_cap(alpha: float) -> float:
        return (alpha / (alpha + 1.0)) ** (1.0 / alpha)


@dataclass(frozen=True)
class FlatModelDomain(ConvexDomainModel):
    """Local model above an infinitely flat boundary point:

        { z : ||z'|| < R0, |Re z_n| < s0, C phi_alpha(||z'||) < Im z_n < s0 }.

    The boundary is the flatness graph near the origin with box caps added
    for boundedness; it is not C^1 where the caps meet.  The pieces are the
    three caps and, last, the graph over its cylinder; each is a closed
    convex set by itself, so their order changes no minimum.
    """

    support: FlatSupport
    dimension: int = 2
    kind: str = field(default="flat_model", init=False)

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("flat model needs dimension at least 2")
        s = self.support
        last = np.eye(self.dimension, dtype=complex)[-1]
        object.__setattr__(self, "pieces", (
            HalfspaceConstraint(last, s.s0),  # Re z_n <= s0
            HalfspaceConstraint(-last, s.s0),  # -Re z_n <= s0
            HalfspaceConstraint(1j * last, s.s0),  # Im z_n <= s0
            GraphConstraint(s),
        ))

    def graph_distance(self, z: np.ndarray) -> float:
        """Distance to the boundary of the graph piece over its cylinder."""
        return self.pieces[-1].distance(z)


# --- geometric queries -------------------------------------------------------

def _check_base(domain: ConvexDomainModel, z) -> np.ndarray:
    z = _as_point(z)
    if domain.membership(z) == "outside":
        raise ValueError("base point outside domain")
    return z


def _check_ray(domain: ConvexDomainModel, z, u) -> tuple[np.ndarray, np.ndarray]:
    u = _as_point(u)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return _check_base(domain, z), u / norm


def exit_time(domain: ConvexDomainModel, z, u) -> float:
    """sup{ t >= 0 : z + t u in closure of the domain } for a unit real ray:
    the smallest exit over the constraints."""
    z, u = _check_ray(domain, z, u)
    return min(piece.exit(z, u) for piece in domain.pieces)


def boundary_distance(domain: ConvexDomainModel, z) -> float:
    """Euclidean distance to the boundary: for an intersection of convex
    constraints, the smallest distance to a constraint boundary."""
    z = _check_base(domain, z)
    return min(piece.distance(z) for piece in domain.pieces)


def inscribed_disc_radius(domain: ConvexDomainModel, z, v) -> float:
    """Radius of the largest complex-affine closed disc centered at z,
    tangent to v, inside the closure.

    A closed disc lies in an intersection of closed convex sets iff it lies
    in each, so the radius is the smallest constraint radius.
    """
    z, v = _check_ray(domain, z, v)
    return min(piece.disc_radius(z, v) for piece in domain.pieces)


# --- the inscribed-radius bound of the flatness lemma ------------------------

@dataclass(frozen=True)
class RestBoundReport:
    d: float
    radius: float
    bound: float
    satisfied: bool
    margin: float


def rest_bound_check(
    domain: FlatModelDomain, z, v, tol: float = 1e-6
) -> RestBoundReport:
    """Check r_Omega(z; v) <= 2 [log(C/d)]^{-1/alpha} in the boundary zone.

    The zone is d < min(s0, x0_cap), exactly the compact-set condition under
    which the flatness estimate applies.
    """
    s = domain.support
    d = boundary_distance(domain, z)
    zone = min(s.s0, x0_cap(s.C, s.alpha))
    if not 0.0 < d < zone:
        raise ValueError("point not in the boundary zone")
    radius = inscribed_disc_radius(domain, z, v)
    bound = 2.0 * phi_alpha_inv(d, s.C, s.alpha)
    return RestBoundReport(
        d=d,
        radius=radius,
        bound=bound,
        satisfied=radius <= bound + tol,
        margin=bound + tol - radius,
    )
