"""Shared numeric kernels.

The primitives used everywhere else in the package: composite quadrature
with divergence detection near an endpoint singularity, the same on the
log scale u = log(1/x) for radial integrals near 0, bisection for
monotone root problems, golden-section search for unimodal minima, and
minimization of a periodic objective over the circle parameter.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# integrate_endpoint's panel rule
_GAUSS_ORDER = 16

# A limit is accepted once this many consecutive halvings look Cauchy;
# anything that never manages that within the level budget is reported as
# not converged (the divergence verdict).
_CONVERGENCE_RUN = 3

# No quantity in this package legitimately integrates to anything near this;
# refining past it only risks overflow, so the verdict is settled already.
_VALUE_CAP = 1e50

# Past this u, e^-u leaves the normal double range: x^-1 overflows there
# and f(x) loses its precision, so a callable is not read beyond it.
_U_MAX = -math.log(sys.float_info.min)

# Iteration cap shared by bisection and golden-section search.
_MAX_ITER = 200

# Halvings of the lower cutoff before an endpoint integral is called
# divergent; barely integrable power tails (exponents just below -1) need
# hundreds to reach their limits.
_MAX_LEVELS = 400


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an endpoint-refined quadrature.

    When ``converged`` is false, ``value`` is the last partial sum and must
    not be used as a limit.
    """

    value: float
    converged: bool
    refinement_levels: int
    estimated_error: float


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket_width: float


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_panel(
    f: Callable[[float], float], lo: float, hi: float, order: int = _GAUSS_ORDER
) -> float:
    """Gauss-Legendre of the given order on one panel; nodes are strictly
    interior."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = 0.0
    for node, weight in zip(*_gauss_legendre(order)):
        y = f(mid + half * node)
        if not math.isfinite(y):
            raise ValueError("integrand not finite")
        total += weight * y
    return half * total


def integrate_endpoint(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> QuadratureResult:
    """Integrate f over (a, b] where f may blow up as x -> a+.

    Panels shrink geometrically toward ``a``; each new panel halves the lower
    cutoff.  The result converges once the last few halvings each changed the
    running value by less than ``tol`` (relative to max(1, |value|)).  An
    integrand whose halvings keep growing the value past the whole budget
    of 400 halvings, or until the cutoff reaches floating-point resolution
    above a positive ``a``, is reported with ``converged=False``: the
    divergence verdict.
    """
    if not (b > a):
        raise ValueError("empty interval")
    if a < 0:
        raise ValueError("lower endpoint must be nonnegative")

    span = b - a
    total = 0.0
    hi = b
    small_run = 0
    last_inc = math.inf
    levels = 0
    for level in range(_MAX_LEVELS):
        lo = a + span * 0.5 ** (level + 1)
        if not a < lo < hi:
            break  # the cutoff is at floating-point resolution without a limit
        inc = gauss_panel(f, lo, hi)
        total += inc
        hi = lo
        levels = level + 1

        scale = max(1.0, abs(total))
        if abs(inc) < tol * scale:
            small_run += 1
            if small_run >= _CONVERGENCE_RUN:
                return QuadratureResult(total, True, levels, _tail_estimate(inc, last_inc))
        else:
            small_run = 0
        last_inc = inc
        if abs(total) > _VALUE_CAP:
            break  # divergence settled; stop before overflow

    return QuadratureResult(total, False, levels, abs(last_inc))


def _tail_estimate(inc: float, prev_inc: float) -> float:
    """Geometric model of the dropped tail from the last two increments."""
    inc = abs(inc)
    prev = abs(prev_inc)
    if prev > 0 and inc < prev:
        ratio = min(inc / prev, 0.9)
        return inc * ratio / (1.0 - ratio) + inc
    return 2.0 * inc


def integrate_log_moment(
    log_f: Callable[[float], float],
    n: int,
    lower: float,
    tol: float,
) -> QuadratureResult:
    """int_lower^inf u^n e^{log_f(u)} du for a log density ``log_f``.

    The head piece handles a possible blow-up at ``lower``; the tail is
    mapped onto a lower-endpoint singularity by u -> 1/t, so each cutoff
    halving doubles the reach toward infinity.  Both integrands are built in
    log space, so a tiny density cannot underflow against a huge u^n.
    Verdicts combine as in :func:`integrate_endpoint`.
    """
    if lower < 0:
        raise ValueError("lower endpoint must be nonnegative")
    split = max(2.0 * lower, lower + 1.0)
    head = integrate_endpoint(
        lambda u: math.exp(n * math.log(u) + log_f(u)), lower, split, tol
    )
    tail = integrate_endpoint(
        lambda t: math.exp(log_f(1.0 / t) - (n + 2) * math.log(t)), 0.0, 1.0 / split, tol
    )
    return QuadratureResult(
        head.value + tail.value,
        head.converged and tail.converged,
        max(head.refinement_levels, tail.refinement_levels),
        head.estimated_error + tail.estimated_error,
    )


def log_scale(f: Callable[[float], float], power: int = 0) -> Callable[[float], float]:
    """The log form u -> log(f(x) x^power), x = e^-u, of a radial f >= 0.

    It is the log density in u of int f(x) x^(power - 1) dx: power 0 for a
    modulus (int omega(x)/x dx), 1 for a majorant (int Phi(x) dx).  log 0
    is -inf, and a value that overflows counts as the largest double.  Past
    u = -log(smallest normal double) ~ 708 the form is held at its value
    there, with no further decay: a density that has not died out by then
    reads as a constant, so its integral is reported divergent rather than
    truncated.  A function needing more reach should supply its log form
    in closed form.
    """

    def log_form(u: float) -> float:
        u = min(u, _U_MAX)
        try:
            y = min(f(math.exp(-u)), sys.float_info.max)
        except OverflowError:
            y = sys.float_info.max
        return (math.log(y) if y != 0.0 else -math.inf) - power * u

    return log_form


def solve_monotone(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float,
) -> RootResult:
    """Bisect a monotone g on [lo, hi] for g(x) = target.

    Requires a sign change of g - target across the bracket.  Iterates until
    the bracket width is <= tol, then keeps halving (up to 200 halvings in
    all) while the residual exceeds tol.
    """
    if not (hi > lo):
        raise ValueError("empty interval")
    flo = g(lo) - target
    fhi = g(hi) - target
    if flo == 0.0:
        return RootResult(lo, 0.0, 0.0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0.0)
    if flo * fhi > 0.0:
        raise ValueError("target not bracketed")

    fmid = math.inf
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        fmid = g(mid) - target
        if fmid == 0.0:
            return RootResult(mid, 0.0, hi - lo)
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol and abs(fmid) <= tol:
            break

    root = 0.5 * (lo + hi)
    return RootResult(root, g(root) - target, hi - lo)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi] by golden-section search down to a
    bracket ``tol`` wide; returns (x, f(x)) for the best of the last two
    interior points and the midpoint, ties toward the lower point."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    value, x = min([(fc, c), (fd, d), (f(mid), mid)], key=lambda p: p[0])
    return x, value


# minimize_on_circle's coarse grid and the bracket width of its refinement
_CIRCLE_GRID = 64
_CIRCLE_REFINE_TOL = 1e-12


def minimize_on_circle(h: Callable[[float], float]) -> tuple[float, float]:
    """Minimize a 2*pi-periodic h: a 64-point grid scan, then golden-section
    search within a grid step of the best grid point, down to a bracket
    1e-12 wide.

    Deterministic; grid ties break toward the smallest theta, and the
    refined point only wins on a strict improvement.
    """
    step = 2.0 * math.pi / _CIRCLE_GRID
    thetas = step * np.arange(_CIRCLE_GRID)
    values = np.empty(_CIRCLE_GRID)
    for i, theta in enumerate(thetas):
        values[i] = _finite_objective(h, theta)
    best = int(np.argmin(values))  # first occurrence: smallest theta wins
    theta_best = float(thetas[best])
    value_best = float(values[best])

    wrapped = lambda t: _finite_objective(h, t % (2.0 * math.pi))
    theta_ref, value_ref = golden_section(
        wrapped, theta_best - step, theta_best + step, _CIRCLE_REFINE_TOL
    )
    if value_ref < value_best:
        return theta_ref % (2.0 * math.pi), value_ref
    return theta_best, value_best


def _finite_objective(h: Callable[[float], float], theta: float) -> float:
    y = h(theta)
    if not math.isfinite(y):
        raise ValueError("objective not finite")
    return y
