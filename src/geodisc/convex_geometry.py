"""Convex domain models in C^n and their boundary geometry.

Domains are immutable intersections of convex constraints (discs over
coordinate blocks, real half-spaces and the flatness graph).  Exit times
along real rays, the Euclidean boundary distance and the radius of the
largest complex-affine disc through a point are minima over the
constraints.  Graham's two ends of the Kobayashi metric come from that
radius, and the domains' chord bounds of the Kobayashi distance integrate
them.  Alongside sit the flatness functions e^{-1/x^alpha} with their
inverses and root equations, and the inscribed-radius bound of the
flatness lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .numerics import gauss_panel, minimize_on_circle, power_of_two_scaled, solve_monotone

MEMBERSHIP_TOL = 1e-12
# the chord's lower metric is integrated with 4 panels of GL-8
_CHORD_PANELS = 4
_CHORD_ORDER = 8


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
    the smaller one lies left of s*, where it is solved for on the log scale:
    it can sit hundreds of decades below C.  ``scan_n`` is accepted and
    ignored; it sized the log-spaced sign scan this bracket replaced, and
    the acceptance gate still passes it.
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
    return min(C / 2.0, math.exp(solve_monotone(h, lo, s_star, 0.0)))


def rho_triangle(d: float, slope: float, C: float, alpha: float) -> float:
    """The unique rho > 0 with C phi_alpha(rho) + rho * slope = d.

    The left side is strictly increasing, so this is a bracketed monotone
    solve; slope is the ratio V_n / ||V'|| of the tilted disc direction.
    A root past the largest double, when d >= C and d / slope overflows,
    raises ``OverflowError``.
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
    hi *= 1.0 + 1e-12
    if hi == math.inf:
        raise OverflowError("the root d / slope exceeds the largest double")
    return solve_monotone(lhs, 0.0, hi, d)


# --- convex constraints --------------------------------------------------------
#
# Each constraint is a closed convex set and answers four questions:
# gap(z), negative inside; exit(z, u, worst_phase=...), the last t >= 0
# with z + t u in it (unit u), or inf when the ray never leaves, where at
# the worst phase u is turned to the e^{i theta} u that leaves first, so
# the exit is the largest rho with z + rho e^{i theta} u in it for every
# theta, the radius of the inscribed disc; distance(z) to its boundary from
# inside; and kobayashi(z, w), its exact Kobayashi distance, or None (a
# piece that answers constrains only its block of coordinates, coords, and
# the domain combines the answers in ConvexDomainModel.kobayashi).  gap,
# distance and the half-space and graph exits also take a stack of points
# (rows); the disc exit takes one point only (np.vdot would flatten a
# stack), which no domain sends it, since product domains answer K exactly.

def ball_distance(a, b) -> float:
    """Kobayashi distance of the unit ball, artanh rho = log1p(2 rho (1 + rho)
    / s) / 2, from |1 - <a, b>|^2 rho^2 = (1 - |a|^2) ||d||^2 + |<d, a>|^2
    (d = b - a) and s = 1 - rho^2 = (1 - |a|^2)(1 - |b|^2) / |1 - <a, b>|^2."""
    a, b = _as_point(a), _as_point(b)
    d = b - a
    ka, kb = ((1.0 - n) * (1.0 + n) for n in map(_norms, (a, b)))  # 1 - |.|^2
    den = abs(1.0 - complex(np.vdot(b, a)))
    rho = math.sqrt(ka * float(np.vdot(d, d).real) + abs(complex(np.vdot(d, a))) ** 2) / den
    return 0.5 * math.log1p(2.0 * rho * (1.0 + rho) * den**2 / (ka * kb))


def _norms(p: np.ndarray) -> float | np.ndarray:
    """sqrt(<Re p, Re p> + <Im p, Im p>) over the last axis, ``np.linalg.norm``'s
    bits: by ``dot`` at one vector, quicker there, and by ``vecdot`` at a stack."""
    re, im = p.real, p.imag
    if p.ndim == 1:
        return math.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


# Python's max(a, b) and min(a, b) row by row, to the bit: np.maximum and
# np.minimum differ at -0.0 against 0.0 and at nan.
def _larger(a, b) -> np.ndarray:
    return np.where(b > a, b, a)


def _smaller(a, b) -> np.ndarray:
    return np.where(b < a, b, a)


def _disc_exit(norm: float, dot: float, ww: float, radius: float) -> float:
    """The last t >= 0 with ||p + t w|| <= radius, for ||p|| = norm,
    Re<p, w> = dot and ||w||^2 = ww > 0: the positive root of
    ww t^2 + 2 dot t - slack, taken without cancellation."""
    slack = (radius - norm) * (radius + norm)
    root = math.sqrt(max(dot * dot + ww * slack, 0.0))
    return slack / (dot + root) if dot > 0.0 else (root - dot) / ww


@dataclass(frozen=True)
class DiscConstraint:
    """|z[coords] - center| <= radius over a block of coordinates.  Offsets
    from the center are measured in units of 2^scale, the power of two
    :func:`numerics.power_of_two_scaled` takes out of the radius (0 for radii
    in [2^-480, 2^480]), so their squares neither under- nor overflow; the
    scaling is exact."""

    coords: slice
    radius: float
    center: np.ndarray | complex
    scale: int = field(init=False)

    def __post_init__(self):
        _, e = power_of_two_scaled(np.array([self.radius], dtype=complex))
        object.__setattr__(self, "scale", int(e))

    def gap(self, z: np.ndarray) -> float | np.ndarray:
        """||z[coords] - center|| - radius, at one point or a stack (rows)."""
        offset, radius = self._scaled(z)
        return (math.ldexp if z.ndim == 1 else np.ldexp)(_norms(offset) - radius, self.scale)

    def exit(self, z: np.ndarray, u: np.ndarray, *, worst_phase: bool) -> float:
        """The exit along u, or along the e^{i theta} u that leaves first."""
        p, radius = self._scaled(z)
        w = u[self.coords]
        ww = float(np.vdot(w, w).real)
        if ww == 0.0:
            return math.inf
        inner = complex(np.vdot(p, w))
        dot = abs(inner) if worst_phase else inner.real  # max of Re e^{i theta} inner
        return math.ldexp(_disc_exit(_norms(p), dot, ww, radius), self.scale)

    def distance(self, z: np.ndarray) -> float | np.ndarray:
        """-gap, at one point or a stack (rows)."""
        return -self.gap(z)

    def kobayashi(self, z: np.ndarray, w: np.ndarray) -> float:
        return ball_distance((z[self.coords] - self.center) / self.radius,
                             (w[self.coords] - self.center) / self.radius)

    def _scaled(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        """The offset z[coords] - center (rows at a stack) and the radius, in 2^scale units."""
        p = z[..., self.coords] - self.center
        if not self.scale:
            return p, self.radius
        p = np.ascontiguousarray(p, dtype=complex).view(float)
        return np.ldexp(p, -self.scale).view(complex), math.ldexp(self.radius, -self.scale)


@dataclass(frozen=True)
class HalfspaceConstraint:
    """Re<a, z> <= b, stored with a unit normal a so the gap is a distance."""

    normal: np.ndarray
    offset: float

    def gap(self, z: np.ndarray) -> float | np.ndarray:
        """Re<a, z> - b; an array at a stack of points (rows), where ``vecdot``
        reads each row to the bit as ``vdot`` does, and ``@`` does not."""
        if z.ndim == 1:
            return float(np.vdot(self.normal, z).real) - self.offset
        return np.vecdot(self.normal, z).real - self.offset

    def exit(self, z: np.ndarray, u: np.ndarray, *, worst_phase: bool) -> float | np.ndarray:
        """-gap / Re<a, u>, or -gap / |<a, u>| at the worst phase, since
        Re<a, e^{i theta} u> peaks there; inf when the rate is not positive.
        A float at one point; at a stack of points (rows), an array, or inf
        for every row."""
        inner = complex(np.vdot(self.normal, u))
        rate = abs(inner) if worst_phase else inner.real
        return -self.gap(z) / rate if rate > 0.0 else math.inf

    def distance(self, z: np.ndarray) -> float | np.ndarray:
        """-gap, at one point or a stack (rows)."""
        return -self.gap(z)

    def kobayashi(self, z: np.ndarray, w: np.ndarray) -> None:
        return None


@dataclass(frozen=True)
class GraphConstraint:
    """The flatness graph C phi_alpha(||z'||) <= Im z_n over the cylinder
    ||z'|| <= R0, z' = z[:-1], where the graph's profile is convex."""

    support: FlatSupport

    def height(self, rho: float) -> float:
        return self.support.C * phi_alpha(rho, self.support.alpha)

    def gap(self, z: np.ndarray) -> float | np.ndarray:
        """max(||z'|| - R0, C phi_alpha(||z'||) - Im z_n), at one point or a
        stack (rows), whose heights are taken row by row."""
        rho = _norms(z[..., :-1])
        if z.ndim > 1:
            heights = [self.height(r) for r in rho.tolist()]
            return _larger(rho - self.support.R0, heights - z[:, -1].imag)
        return max(rho - self.support.R0, self.height(rho) - float(z[-1].imag))

    def exit(self, z: np.ndarray, u: np.ndarray, *, worst_phase: bool) -> float | np.ndarray:
        """The exit along u, from ||z'||^2, <z', u'>, ||u'||^2, Im z_n and
        u_n, each read once.  At the worst phase it is the smallest exit over
        the directions e^{i theta} u.  Around that circle only Re<z', u'>
        e^{i theta} and Im u_n e^{i theta} change, and the exit falls as the
        first grows and as the second falls.  If <z', u'> = 0 (every disc
        centred on the axis z' = 0), u_n = 0 (tangential discs) or ||u'||^2
        = 0 (the exit then reads only Im u_n e^{i theta}), the exit at
        |<z', u'>| and -|u_n| is the radius.  The rest take
        ``minimize_on_circle`` over the exits.

        A stack of points (rows) gets an array: at the worst phase with u' =
        0 each row's affine exit (Im z_n - C phi_alpha(||z'||)) / |u_n|, else
        the rows one by one."""
        if z.ndim > 1:
            if not worst_phase or u[:-1].any():
                return np.array([self.exit(row, u, worst_phase=worst_phase) for row in z])
            heights = [self.height(math.sqrt(pp))
                       for pp in np.vecdot(z[:, :-1], z[:, :-1]).real.tolist()]
            return (z[:, -1].imag - heights) / abs(complex(u[-1]))
        p, w = z[:-1], u[:-1]
        pp, ww = float(np.vdot(p, p).real), float(np.vdot(w, w).real)
        pw, un = complex(np.vdot(p, w)), complex(u[-1])
        y = float(z[-1].imag)
        if not worst_phase:
            return self._exit(pp, pw.real, ww, y, un.imag)
        if pw == 0.0 or un == 0.0 or ww == 0.0:
            return self._exit(pp, abs(pw), ww, y, -abs(un))

        def objective(theta: float) -> float:
            turn = complex(math.cos(theta), math.sin(theta))
            return self._exit(pp, (pw * turn).real, ww, y, (un * turn).imag)

        return minimize_on_circle(objective)

    def _exit(self, pp: float, pw: float, ww: float, y: float, dy: float) -> float:
        """The exit along z + t u from ||z'||^2 = pp, Re<z', u'> = pw,
        ||u'||^2 = ww, Im z_n = y and Im u_n = dy: all the ray's data the
        graph piece reads.  It comes no later as pw grows or as dy falls."""
        if ww == 0.0:
            # ||z'|| stays fixed, so the gap is affine in t
            slack = y - self.height(math.sqrt(pp))
            return slack / -dy if dy < 0.0 else math.inf

        def gap(t: float) -> float:
            rho = math.sqrt(max(pp + t * (2.0 * pw + t * ww), 0.0))
            return self.height(rho) - (y + t * dy)

        # A base point on the graph counts as inside up to the membership
        # tolerance, as it does for the base check.
        level = 0.0 if gap(0.0) < 0.0 else MEMBERSHIP_TOL
        s = self.support
        if dy == 0.0:
            # Im z_n stays at y, so the ray leaves the cylinder where
            # C phi_alpha(||z'||) <= y + level
            top = y + level
            if top <= 0.0:
                return 0.0
            radius = s.R0 if top >= s.C else min(s.R0, phi_alpha_inv(top, s.C, s.alpha))
            return _disc_exit(math.sqrt(pp), pw, ww, radius)
        within = _disc_exit(math.sqrt(pp), pw, ww, s.R0)
        if dy < 0.0:
            # the graph is >= 0, so a falling ray is below it once Im z_n < 0
            within = min(within, max(y, 0.0) / -dy)
        # the gap is convex in the cylinder: one sign change on [0, within]
        if gap(within) <= level:
            return within
        return solve_monotone(gap, 0.0, within, level)

    def distance(self, z: np.ndarray) -> float | np.ndarray:
        """Distance to the cylinder wall or to the surface, whichever is
        nearer, at one point or a stack (rows), whose surfaces go row by row."""
        if z.ndim == 1:
            return min(self.wall_distance(z), self.surface_distance(z))
        return _smaller(self.wall_distance(z), [self.surface_distance(row) for row in z])

    def wall_distance(self, z: np.ndarray) -> float | np.ndarray:
        """R0 - ||z'||, at one point or a stack (rows)."""
        return self.support.R0 - _norms(z[..., :-1])

    def surface_distance(self, z: np.ndarray) -> float:
        """Distance to the surface {Im z_n = C phi_alpha(||z'||), ||z'|| <= R0}.

        On the axis z' = 0 at 0 < y < ``vertex_reach`` it is y: t^2 +
        (y - h)^2 - y^2 = h (t^2 / h - 2 y) + h^2 > 0 for h = C phi_alpha(t),
        so the vertex is the nearest surface point.  Elsewhere, by rotation
        invariance, it is a 1-d problem in the radial profile t.  Searching t
        in [rho, R0], rho = ||z'||, is exact: the profile rises and Im z_n >=
        C phi_alpha(rho) inside, so t < rho is farther than t = rho in both
        terms.  ``minimize_on_circle`` takes t = rho + (R0 - rho)
        sin^2(psi/2).  The squared distance is not unimodal (the flat vertex
        makes a second basin), so the grid picks the basin; it picked the
        farther one at 4 of 5511 seeded points, alpha >= 0.3, by up to 4.3%.
        """
        R0 = self.support.R0
        rho = _norms(z[:-1])
        y = float(z[-1].imag)
        if rho == 0.0 and 0.0 < y < self.support.vertex_reach:
            return y

        def dist2(psi: float) -> float:
            t = rho + (R0 - rho) * math.sin(0.5 * psi) ** 2
            return (t - rho) ** 2 + (y - self.height(t)) ** 2

        return math.sqrt(minimize_on_circle(dist2))

    def kobayashi(self, z: np.ndarray, w: np.ndarray) -> None:
        return None


# --- domain models -----------------------------------------------------------

def _as_point(z) -> np.ndarray:
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _where(gap: float) -> str:
    """The membership that a signed gap reads."""
    return "inside" if gap < -MEMBERSHIP_TOL else "outside" if gap > MEMBERSHIP_TOL else "boundary"


class ConvexDomainModel:
    """A closed convex set in C^n: the intersection of the convex constraints
    in ``pieces``, which subclasses set in ``__post_init__``."""

    kind: str = "abstract"
    dimension: int
    pieces: tuple

    def signed_gap(self, z: np.ndarray) -> float | np.ndarray:
        """Negative inside, positive outside; magnitude is a gap proxy.  At
        one point or a stack (rows), one gap call per piece either way."""
        if z.shape[-1] != self.dimension:
            raise ValueError("point has wrong dimension")
        gaps = (piece.gap(z) for piece in self.pieces)
        return max(gaps) if z.ndim == 1 else reduce(_larger, gaps)

    def membership(self, z) -> str | list[str]:
        """Where z lies: "inside", "outside" or on the "boundary", up to
        ``MEMBERSHIP_TOL``, or a list of them at a stack (rows), from one
        ``signed_gap`` call.  A gap that overflows is that of a point outside
        by more than the double range (no piece's gap overflows inside it),
        so it reads as inf."""
        z = _as_point(z)
        with np.errstate(over="ignore"):
            gap = self.signed_gap(z)
        return _where(gap) if z.ndim == 1 else [_where(g) for g in gap.tolist()]

    def kobayashi(self, z: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """The ends (lower, upper) the domain knows of the Kobayashi distance
        K(z, w) between two points inside.

        When every piece answers over disjoint blocks of coordinates, the
        domain is the product of the pieces, the distance of a product is
        the largest of its factors' (Jarnicki & Pflug, Invariant Distances
        and Metrics in Complex Analysis, 2nd ed., 2013), and the ends are
        (K, K).  Elsewhere they are the chord's (L, 2L): L integrates
        Graham's lower end ||v|| / (2 r) along the segment from z to w with 4
        panels of GL-8, and 2L the upper end ||v|| / r.  The 32 nodes go to
        ``_graham_ends`` as one stack, one worst-phase exit call per piece.
        Only 2L, the upper metric integrated along a curve, bounds K.  L
        does not: K is an infimum over curves, and near the boundary the
        chord is much longer than the geodesic.  The nodes lie inside with
        the ends, so they skip the base check; w = z gives (0, 0).
        """
        answers = [piece.kobayashi(z, w) for piece in self.pieces]
        if None not in answers:
            blocks = [range(self.dimension)[piece.coords] for piece in self.pieces]
            if sum(map(len, blocks)) == len(set().union(*blocks)):
                K = max(answers)
                return K, K
        direction = w - z
        v, norm, e = _scaled_norm(direction)
        if norm == 0.0:
            return 0.0, 0.0
        unit, length = v / norm, math.ldexp(norm, e)

        def lower_metric(t: np.ndarray) -> np.ndarray:
            return _graham_ends(self, z + t[:, None] * direction, unit, length)[0]

        panels = np.arange(_CHORD_PANELS)
        lower = sum(gauss_panel(
            lower_metric, panels / _CHORD_PANELS, (panels + 1) / _CHORD_PANELS, _CHORD_ORDER
        ).tolist())
        return lower, 2.0 * lower  # each upper metric is exactly twice its lower


@dataclass(frozen=True)
class Polydisc(ConvexDomainModel):
    radii: tuple[float, ...]
    kind: str = field(default="polydisc", init=False)

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii:
            raise ValueError("polydisc needs at least one radius")
        if any(r <= 0.0 for r in self.radii):
            raise ValueError("polydisc radii must be positive")
        object.__setattr__(self, "pieces", tuple(
            DiscConstraint(slice(k, k + 1), r, 0.0)
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


# rank cut for unit normals, and the largest ||A^T y|| / sum(y) of a balancing y
_RANK_TOL = 1e-12


def _is_bounded(normals: np.ndarray) -> bool:
    """Whether {z : Re<a_j, z> <= b_j} is bounded, for unit normals a_j: iff
    no real d != 0 has A d <= 0, rows (Re a_j, Im a_j), iff A has full rank
    and A^T y = 0 for some y > 0 (Stiemke).  Here y = 1 + x, x >= 0 solving
    A^T x = -A^T 1 in least squares by Lawson & Hanson's active set (Solving
    Least Squares Problems, 1974, ch. 23) in at most 3m steps, stopped when
    the index it last freed solves to <= 0, or when a passive set it has
    solved comes back: the steps from it then repeat, and the residual
    ||A^T (1 + x)|| can fall no further.  Only rounding allows either."""
    A = np.hstack([normals.real, normals.imag])
    m, dim = A.shape
    if np.linalg.matrix_rank(A, tol=_RANK_TOL) < dim:
        return False
    f, x, free = -A.sum(axis=0), np.zeros(m), np.zeros(m, bool)
    solved = set()
    for _ in range(3 * m):
        z = np.zeros(m)
        z[free] = np.linalg.lstsq(A[free].T, f)[0]
        drop = free & (z <= 0.0)
        if (drop & (x == 0.0)).any():  # the index last freed: its step is 0 / 0
            break
        if drop.any():  # step toward z until the first weight reaches 0
            steps = x[drop] / (x[drop] - z[drop])
            x += steps.min() * (z - x)
            x[np.flatnonzero(drop)[steps.argmin()]] = 0.0
            free &= x > 0.0
            continue
        x, key = z, free.tobytes()
        if key in solved:
            break
        solved.add(key)
        gain = np.where(free, -np.inf, A @ (f - x @ A))
        if gain.max() <= 0.0:
            break
        free[gain.argmax()] = True
    return bool(np.linalg.norm((1.0 + x) @ A) <= _RANK_TOL * (m + x.sum()))


@dataclass(frozen=True)
class HalfspaceIntersection(ConvexDomainModel):
    """Intersection of Re<a_j, z> <= b_j; must contain the interior point and
    be bounded (:func:`_is_bounded`).  The normals are made unit in one
    :func:`numerics.power_of_two_scaled` call and one pass of row norms, each
    ``np.linalg.norm``'s to the bit."""

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
        w, e = power_of_two_scaled(np.array([a for a, _ in cons]))
        norms = _norms(w)
        if not norms.all():
            raise ValueError("halfspace normal must be nonzero")
        normals = w / norms[:, None]
        object.__setattr__(self, "pieces", tuple(
            HalfspaceConstraint(a, math.ldexp(b / norm, -k))
            for a, (_, b), norm, k in zip(normals, cons, norms.tolist(), e.tolist())
        ))
        anchor = (
            np.zeros(dim, dtype=complex)
            if self.interior_point is None
            else _as_point(self.interior_point)
        )
        object.__setattr__(self, "interior_point", anchor)
        if self.signed_gap(anchor) >= 0.0:
            raise ValueError("interior point is not inside")
        if not _is_bounded(normals):
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
        if self.R0 > self.convexity_cap(self.alpha) * (1.0 + 1e-12):
            raise ValueError("R0 exceeds the convexity cap of the graph")

    @staticmethod
    def convexity_cap(alpha: float) -> float:
        return (alpha / (alpha + 1.0)) ** (1.0 / alpha)

    @cached_property
    def zone(self) -> float:
        """Depth of the boundary zone, min(s0, x0_cap(C, alpha)): the
        compact-set condition under which the flatness estimate applies."""
        return min(self.s0, x0_cap(self.C, self.alpha))

    @cached_property
    def vertex_reach(self) -> float:
        """inf of t^2 / (2 h(t)) over (0, R0], h = C phi_alpha, in log space at
        t = min(R0, (alpha/2)^{1/alpha}), where 2 log t + t^-alpha is least;
        +inf on overflow.  Below it t^2 + (y - h)^2 > y^2: see ``distance``."""
        t = min(self.R0, (0.5 * self.alpha) ** (1.0 / self.alpha))
        try:
            return math.exp(2.0 * math.log(t) + t**-self.alpha - math.log(2.0 * self.C))
        except OverflowError:
            return math.inf


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
        last = np.zeros(self.dimension, dtype=complex)
        last[-1] = 1.0
        object.__setattr__(self, "pieces", (
            HalfspaceConstraint(last, s.s0),  # Re z_n <= s0
            HalfspaceConstraint(-last, s.s0),  # -Re z_n <= s0
            HalfspaceConstraint(1j * last, s.s0),  # Im z_n <= s0
            GraphConstraint(s),
        ))

    def zone_depth(self, z: np.ndarray) -> float | None:
        """The distance d to the graph's surface if z is in its boundary zone,
        where the flatness lemma speaks: no cap is nearer, nor the cylinder
        wall ||z'|| <= R0, an edge of the local model rather than the flat
        boundary, and 0 < d < zone."""
        *caps, graph = self.pieces
        d = graph.surface_distance(z)
        nearest = min(graph.wall_distance(z), *(cap.distance(z) for cap in caps))
        return d if d <= nearest and 0.0 < d < self.support.zone else None

    def graph_distance(self, z: np.ndarray) -> float:
        """Distance to the boundary of the graph piece over its cylinder."""
        return self.pieces[-1].distance(z)


# --- geometric queries -------------------------------------------------------

def _check_base(domain: ConvexDomainModel, z) -> np.ndarray:
    """z as an array, one point or a stack of points (rows), none outside."""
    z = _as_point(z)
    where = domain.membership(z)
    if "outside" in (where if z.ndim > 1 else (where,)):
        raise ValueError("base point outside domain")
    return z


def _check_vector(domain: ConvexDomainModel, z, u) -> tuple[np.ndarray, np.ndarray]:
    """One base point and a direction of its dimension, which may be 0."""
    z = _check_base(domain, z)
    u = _as_point(u)
    if z.ndim > 1:
        raise ValueError("point has wrong dimension")
    if len(u) != domain.dimension:
        raise ValueError("direction has wrong dimension")
    return z, u


def _scaled_norm(u: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(w, ||w||, e) with u = w 2^e, w by :func:`numerics.power_of_two_scaled`."""
    w, e = power_of_two_scaled(u)
    return w, _norms(w), int(e)


def _check_ray(domain: ConvexDomainModel, z, u) -> tuple[np.ndarray, np.ndarray]:
    z, u = _check_vector(domain, z, u)
    w, norm, _ = _scaled_norm(u)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return z, w / norm


def exit_time(domain: ConvexDomainModel, z, u) -> float:
    """sup{ t >= 0 : z + t u in closure of the domain } for a unit real ray:
    :func:`_exit` at the ray phase, the smallest exit over the constraints,
    or 0 from a boundary point up to the membership tolerance outside."""
    return _exit(domain, *_check_ray(domain, z, u), worst_phase=False)


def boundary_distance(domain: ConvexDomainModel, point) -> float | np.ndarray:
    """Euclidean distance to the boundary: for an intersection of convex
    constraints, the smallest distance to a constraint boundary (0 at a
    boundary point outside by up to the membership tolerance), at one point
    or a stack (rows): one membership and one distance call per piece."""
    z = _check_base(domain, point)
    return _least(z, (piece.distance(z) for piece in domain.pieces))


def inscribed_disc_radius(domain: ConvexDomainModel, point, direction) -> float:
    """Radius of the largest complex-affine closed disc centered at
    ``point``, tangent to ``direction``, inside the closure.

    The disc leaves a closed convex set first along the e^{i theta}
    direction that leaves first, so its radius is the exit at the worst
    phase, and a closed disc lies in an intersection of closed convex sets
    iff it lies in each: :func:`_exit` at the worst phase, the smallest
    constraint radius.  It is 0 at a boundary point outside by up to the
    membership tolerance.
    """
    return _exit(domain, *_check_ray(domain, point, direction), worst_phase=True)


def _exit(domain: ConvexDomainModel, z: np.ndarray, u: np.ndarray,
          worst_phase: bool) -> float | np.ndarray:
    """The smallest exit over the pieces at z along the unit u, at the ray
    phase or the worst phase, floored at 0; z is one point or a stack (rows)."""
    return _least(z, (piece.exit(z, u, worst_phase=worst_phase) for piece in domain.pieces))


def _least(z: np.ndarray, values) -> float | np.ndarray:
    """The least of the pieces' ``values`` at z, a point or a stack (rows), floored at 0."""
    if z.ndim == 1:
        return max(min(values), 0.0)
    return _larger(reduce(_smaller, values), 0.0)


def _graham_ends(domain: ConvexDomainModel, z: np.ndarray, unit: np.ndarray,
                 length: float) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Graham's ends (length / (2 r), length / r) of the Kobayashi metric at
    z for a vector of that length along the unit direction, r its inscribed
    disc radius; z is not checked.  z is one point, or a stack of points
    (rows) whose ends are arrays, read inf past the largest double as a
    float's are.  A boundary point (r = 0) is rejected, and a length / r past
    the largest double raises ``OverflowError``; at a stack both are judged
    at the least r, whose quotient is the largest."""
    if z.ndim > 1:
        with np.errstate(over="ignore", divide="ignore"):
            radii = _exit(domain, z, unit, worst_phase=True)
            ends = length / (2.0 * radii), length / radii
        r = float(radii.min())
    else:
        r, ends = _exit(domain, z, unit, worst_phase=True), None
    if r == 0.0:
        raise ValueError("point on the boundary: the inscribed disc radius is 0")
    upper = length / r
    if not math.isfinite(upper):
        raise OverflowError("||v|| / r exceeds the largest double")
    return ends or (length / (2.0 * r), upper)


@dataclass(frozen=True)
class MetricBounds:
    """Graham's two ends of the Kobayashi metric; upper is twice lower."""

    lower: float
    upper: float


def graham_bounds(domain: ConvexDomainModel, point, direction) -> MetricBounds:
    """||v|| / (2 r) <= kappa(z; v) <= ||v|| / r at z = ``point``, v =
    ``direction``, r the inscribed disc radius: :func:`_graham_ends` after
    one check of z and one norm of v; degenerate (0, 0) for v = 0.  A
    boundary point (r = 0) is rejected; a v longer than the largest double,
    or an ||v|| / r past it, raises ``OverflowError``."""
    z, v = _check_vector(domain, point, direction)
    w, norm, e = _scaled_norm(v)
    if norm == 0.0:
        return MetricBounds(0.0, 0.0)
    return MetricBounds(*_graham_ends(domain, z, w / norm, math.ldexp(norm, e)))


# --- the inscribed-radius bound of the flatness lemma ------------------------

# how far the radius may exceed the flatness bound, absolutely
_REST_TOL = 1e-6


@dataclass(frozen=True)
class RestBoundReport:
    d: float
    radius: float
    bound: float
    satisfied: bool
    margin: float

    @classmethod
    def of(cls, support: FlatSupport, d: float, radius: float) -> "RestBoundReport":
        """The flatness lemma's check radius <= 2 [log(C/d)]^{-1/alpha} + 1e-6
        at zone depth d; the 1e-6 is fixed, ``margin`` the inequality's slack."""
        bound = 2.0 * phi_alpha_inv(d, support.C, support.alpha)
        return cls(d=d, radius=radius, bound=bound, satisfied=radius <= bound + _REST_TOL,
                   margin=bound + _REST_TOL - radius)


def rest_bound_check(domain: FlatModelDomain, point, direction) -> RestBoundReport:
    """:meth:`RestBoundReport.of` the inscribed radius at z = ``point`` along
    v = ``direction`` (checked once, before the zone), with d =
    ``domain.zone_depth(z)`` (the graph's zone only).  Any other domain
    kind is rejected first."""
    if domain.kind != "flat_model":
        raise ValueError("the rest bound needs a flat model domain")
    z, u = _check_ray(domain, point, direction)
    d = domain.zone_depth(z)
    if d is None:
        raise ValueError("point not in the boundary zone of the flat graph")
    return RestBoundReport.of(domain.support, d, _exit(domain, z, u, worst_phase=True))
