"""Independent references for the benchmark's output checks.

Nothing here imports geodisc.  Each reference comes from the mathematics of
the operation (a closed form, a two-root structure, a residual), so a check
fails when the package's answer moves, not when its code path changes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def close(value, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    if value is None or not math.isfinite(value):
        return False
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


# --- unit disc -----------------------------------------------------------------

def poincare(z1: complex, z2: complex) -> float:
    return math.atanh(abs((z1 - z2) / (1.0 - z2.conjugate() * z1)))


def monomial_modulus(c: complex, k: int, n: int, lags) -> list[float]:
    """Modulus of c e^{ik theta} on the n-point grid at the given lags.

    A separation of l grid steps moves the value by 2|c| |sin(pi k l / n)|;
    the modulus at lag l is the largest such move over lags up to l, which is
    2|c| sin(min(k delta, pi) / 2) whenever k delta stays below pi.
    """
    moves = 2.0 * abs(c) * np.abs(np.sin(math.pi * k * np.arange(1, max(lags) + 1) / n))
    running = np.maximum.accumulate(moves)
    return [float(running[lag - 1]) for lag in lags]


def monomial_conjugate(c: complex, k: int, n: int) -> np.ndarray:
    """Conjugate of Re(c e^{ik theta}) on the n-point grid: Im(c e^{ik theta})."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    return (c * np.exp(1j * k * thetas)).imag


# --- majorant integrals ----------------------------------------------------------

def family_log_integral(K1: float, K2: float, alpha: float, u0: float, n: int) -> float:
    """int_{u0}^inf u^n K1 (log K2 + u)^(-1/alpha) du for n in {0, 1}; inf when
    divergent (1/alpha <= n + 1)."""
    p = 1.0 / alpha
    if p <= n + 1:
        return math.inf
    L = math.log(K2)
    w0 = L + u0
    if n == 0:
        return K1 * w0 ** (1.0 - p) / (p - 1.0)
    if n == 1:
        return K1 * (w0 ** (2.0 - p) / (p - 2.0) - L * w0 ** (1.0 - p) / (p - 1.0))
    raise ValueError("closed form only for n in {0, 1}")


def power_omega_bound(coeff: float, exponent: float, delta: float) -> float:
    """3 int_0^delta c x^p dx."""
    if exponent <= -1.0:
        return math.inf
    return 3.0 * coeff * delta ** (exponent + 1.0) / (exponent + 1.0)


def holder_log_dini(a: float, n: int) -> float:
    """int_0^1 (log 1/x)^n x^a / x dx = n! / a^(n+1)."""
    return math.factorial(n) / a ** (n + 1)


def stretched_log_dini(coeff: float, eps: float, n: int) -> float:
    """int_0^inf u^n exp(-c u^(1-eps)) du."""
    s = 1.0 - eps
    return math.gamma((n + 1) / s) / (s * coeff ** ((n + 1) / s))


def holder_pz_bound(a: float, delta: float, K: float) -> float:
    """K [int_0^delta x^(a-1) dx + delta int_delta^pi x^(a-2) dx]."""
    if a == 1.0:
        return K * delta * (1.0 + math.log(math.pi / delta))
    far = (math.pi ** (a - 1.0) - delta ** (a - 1.0)) / (a - 1.0)
    return K * (delta**a / a + delta * far)


# --- flatness root equations -------------------------------------------------------

def x0_reference(C: float, alpha: float) -> float:
    """min of C/2 and the roots of x = (log(C/x))^(-1/alpha) in (0, C).

    On (0, C) the roots are the zeros of h(x) = x^-alpha + log(x/C), which
    decreases and then increases with its minimum at x* = alpha^(1/alpha):
    there are at most two roots, and the smaller one lies left of x*.  Work
    in s = log x so roots far below the double-precision floor of x - C
    stay resolvable.
    """
    log_C = math.log(C)
    h = lambda s: math.exp(-alpha * s) + s - log_C
    s_star = math.log(alpha) / alpha
    if s_star >= log_C or h(s_star) > 0.0:
        return C / 2.0
    step = 1.0
    lo = s_star - step
    while h(lo) <= 0.0:
        step *= 2.0
        lo = s_star - step
    hi = s_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return min(C / 2.0, math.exp(0.5 * (lo + hi)))


def flatness_inverse(d: float, C: float, alpha: float) -> float:
    """[log(C/d)]^(-1/alpha): the radius at which C e^{-1/x^alpha} reaches d."""
    return math.log(C / d) ** (-1.0 / alpha)


RHO_REL = 1e-7


def rho_brackets(rho: float, d: float, slope: float, C: float, alpha: float) -> bool:
    """Whether rho is within RHO_REL of the root of C e^{-1/rho^alpha} +
    rho slope = d: the increasing left side crosses d between
    rho (1 -+ RHO_REL).  A residual test would not do, since the side is as
    steep as 1e7 near roots of 1e-9 at small alpha, where the solver's
    absolute tolerance of 1e-14 leaves relative errors of a few 1e-9."""
    lhs = lambda x: C * math.exp(-(x**-alpha)) + x * slope
    return rho > 0.0 and lhs(rho * (1.0 - RHO_REL)) <= d <= lhs(rho * (1.0 + RHO_REL))


def flat_axis_radius(C: float, alpha: float, R0: float, s0: float, d: float, v) -> float:
    """Inscribed disc radius at (0', i d) of the flat model along a unit
    v = (v', v_n).

    On the circle |t| = rho the point z' = t v' has norm rho |v'| everywhere,
    while Im z_n = d + Im(t v_n) dips to d - rho |v_n|; so the graph caps
    rho at the root of C phi(rho |v'|) + rho |v_n| = d, and the box caps it
    at s0 / |v_n|, (s0 - d) / |v_n| and R0 / |v'|.
    """
    a, b = float(np.linalg.norm(v[:-1])), abs(v[-1])
    caps = []
    if b > 0.0:
        caps += [s0 / b, (s0 - d) / b]
    if a > 0.0:
        caps.append(R0 / a)
        if b == 0.0:
            caps.append(flatness_inverse(d, C, alpha))
        else:
            g = lambda rho: C * math.exp(-((rho * a) ** -alpha)) + rho * b - d
            lo, hi = 0.0, d / b
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
            caps.append(0.5 * (lo + hi))
    return min(caps)


def convexity_cap(alpha: float) -> float:
    return (alpha / (alpha + 1.0)) ** (1.0 / alpha)


# --- closed-form convex geometry ------------------------------------------------

def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def polydisc_radius(radii, z, v) -> float:
    """Largest rho with |z_j| + rho |v_j| <= R_j for every coordinate."""
    v = _unit(v)
    return min(
        (R - abs(zj)) / abs(vj) for R, zj, vj in zip(radii, z, v) if abs(vj) > 0.0
    )


def ball_radius(center, R: float, z, v) -> float:
    """Largest rho with |p|^2 + 2 rho |<p, v>| + rho^2 <= R^2, p = z - center."""
    v = _unit(v)
    p = np.asarray(z, dtype=complex) - np.asarray(center, dtype=complex)
    dot = abs(np.vdot(v, p))
    pp = float(np.vdot(p, p).real)
    return -dot + math.sqrt(dot * dot + R * R - pp)


def halfspace_radius(constraints, z, v) -> float:
    """Largest rho with Re<a_j, z> + rho |<a_j, v>| <= b_j for every j."""
    v = _unit(v)
    out = math.inf
    for a, b in constraints:
        rate = abs(np.vdot(a, v))
        if rate > 0.0:
            out = min(out, (b - float(np.vdot(a, z).real)) / rate)
    return out


# Exit times along unit directions, one per row of w (shape (m, n)): the
# largest t with z + t w in the closure.  They are what the inscribed disc
# radius minimises over the circle w = e^{i theta} v.

def polydisc_exit(radii, z, w: np.ndarray) -> np.ndarray:
    """Smallest positive root over j of |z_j + t w_j| = R_j."""
    out = np.full(len(w), np.inf)
    for R, zj, wj in zip(radii, z, w.T):
        a = np.abs(wj) ** 2
        b = (np.conj(zj) * wj).real
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (-b + np.sqrt(b * b + a * (R * R - abs(zj) ** 2))) / a
        out = np.minimum(out, np.where(a > 0.0, t, np.inf))
    return out


def ball_exit(center, R: float, z, w: np.ndarray) -> np.ndarray:
    """Positive root of |p + t w|^2 = R^2, p = z - center."""
    p = np.asarray(z, dtype=complex) - np.asarray(center, dtype=complex)
    b = (w @ np.conj(p)).real
    return -b + np.sqrt(b * b + R * R - float(np.vdot(p, p).real))


def halfspace_exit(constraints, z, w: np.ndarray) -> np.ndarray:
    """Smallest (b_j - Re<a_j, z>) / Re<a_j, w> over the j with Re<a_j, w> > 0."""
    out = np.full(len(w), np.inf)
    for a, b in constraints:
        rate = (w @ np.conj(a)).real
        with np.errstate(divide="ignore"):
            t = (b - float(np.vdot(a, z).real)) / rate
        out = np.minimum(out, np.where(rate > 0.0, t, np.inf))
    return out


CIRCLE_SCAN = 20001


def circle_local_minima(exit_of, v) -> np.ndarray:
    """The local minima of theta -> exit_of(e^{i theta} v / |v|) on a
    CIRCLE_SCAN-point periodic grid."""
    thetas = 2.0 * math.pi * np.arange(CIRCLE_SCAN) / CIRCLE_SCAN
    values = exit_of(np.exp(1j * thetas)[:, None] * _unit(v)[None, :])
    is_min = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    return values[is_min]


def polydisc_distance(radii, z) -> float:
    return min(R - abs(zj) for R, zj in zip(radii, z))


def ball_distance(center, R: float, z) -> float:
    return R - float(np.linalg.norm(np.asarray(z) - np.asarray(center)))


def halfspace_distance(constraints, z) -> float:
    return min(
        (b - float(np.vdot(a, z).real)) / float(np.linalg.norm(a))
        for a, b in constraints
    )


def axis_graph_distance(C: float, alpha: float, R0: float, y: float) -> float:
    """Distance from (0', x + i y) to the graph Im w = C e^{-1/|z'|^alpha},
    |z'| <= R0: the minimum over t in [0, R0] of t^2 + (y - C phi(t))^2,
    by a dense scan and a golden-section polish of the best cell."""
    def dist2(t: float) -> float:
        height = C * math.exp(-(t**-alpha)) if t > 0.0 else 0.0
        return t * t + (y - height) ** 2

    ts = np.linspace(0.0, R0, 4097)
    with np.errstate(divide="ignore", over="ignore"):
        heights = np.where(ts > 0.0, C * np.exp(-(np.maximum(ts, 1e-300) ** -alpha)), 0.0)
    k = int(np.argmin(ts**2 + (y - heights) ** 2))
    lo, hi = float(ts[max(k - 1, 0)]), float(ts[min(k + 1, len(ts) - 1)])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (lo, b) if dist2(a) < dist2(b) else (a, hi)
    return math.sqrt(min(dist2(0.5 * (lo + hi)), dist2(float(ts[k]))))


# The properness grid of the pipeline's default parameters: 64 angles on
# the circle of radius 0.999.
PROPERNESS_R = 0.999
PROPERNESS_N_THETA = 64


def flat_slice_properness(C: float, alpha: float, R0: float, s0: float, center: complex,
                          radius: float) -> float:
    """Largest boundary distance of (0', center + r radius e^{i theta}) over
    the properness grid.  In the slice z' = 0 the flat model is the box
    |Re w| < s0, Im w < s0 cut by the flat graph, so the distance is
    min(R0, s0 - |Re w|, s0 - Im w, distance to the graph)."""
    worst = 0.0
    for k in range(PROPERNESS_N_THETA):
        w = center + PROPERNESS_R * radius * cmath.exp(2j * math.pi * k / PROPERNESS_N_THETA)
        worst = max(worst, min(R0, s0 - abs(w.real), s0 - w.imag,
                               axis_graph_distance(C, alpha, R0, w.imag)))
    return worst


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
DEFECT_PANELS = 4


def flat_slice_defect(s0: float, center: complex, radius: float,
                      zeta1: complex, zeta2: complex) -> float:
    """geodesic-defect of zeta -> (0', center + radius zeta) in a flat model.

    The image segment from w1 to w2 lies in the slice z' = 0, where the
    flat graph is Im w = 0, so the slice is the box |Re w| < s0,
    0 < Im w < s0 and the inscribed disc at w along (0', u) has the radius
    min(s0 - |Re w|, s0 - Im w, Im w).  The Graham bounds |u| / (2 r) and
    |u| / r are integrated over the segment by Gauss-Legendre (8 nodes on
    each of 4 panels), and the defect is the distance from the Poincare
    distance of zeta1, zeta2 to [lower, upper].
    """
    w1, w2 = center + radius * zeta1, center + radius * zeta2
    length = abs(w2 - w1)
    p = poincare(zeta1, zeta2)
    if length == 0.0:
        return p
    lower = 0.0
    for k in range(DEFECT_PANELS):
        lo, hi = k / DEFECT_PANELS, (k + 1) / DEFECT_PANELS
        for node, weight in zip(_GL8_NODES, _GL8_WEIGHTS):
            w = w1 + (0.5 * (lo + hi) + 0.5 * (hi - lo) * node) * (w2 - w1)
            r = min(s0 - abs(w.real), s0 - w.imag, w.imag)
            lower += weight * 0.5 * (hi - lo) * length / (2.0 * r)
    upper = 2.0 * lower
    if lower <= p <= upper:
        return 0.0
    return min(abs(p - lower), abs(p - upper))


def automorphism(a: complex, phi: float):
    rot = cmath.exp(1j * phi)
    return lambda z: rot * (z - a) / (1.0 - a.conjugate() * z)
