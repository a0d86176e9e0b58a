"""Shared numeric kernels.

The primitives used everywhere else in the package: composite quadrature
with divergence detection near an endpoint singularity, the same on the
log scale u = log(1/x) for radial integrals near 0, bracketed false
position for monotone root problems, and the one minimiser: a grid scan
and golden-section search for a periodic objective over the circle
parameter, to which interval problems are mapped.
"""

from __future__ import annotations

import functools
import itertools
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

# A halving looks Cauchy when it changes the running value by at most this
# fraction of it; the one quadrature tolerance of the package.
_QUAD_TOL = 1e-9

# No quantity in this package legitimately integrates to anything near this;
# refining past it only risks overflow, so the verdict is settled already.
_VALUE_CAP = 1e50

# Past this u, e^-u leaves the normal double range: x^-1 overflows there
# and f(x) loses its precision, so a callable is not read beyond it.
_U_MAX = -math.log(sys.float_info.min)

# Step cap of solve_monotone; minimize_on_circle's golden-section search
# shares it, though its 1e-12 bracket is reached in 55 steps.
_MAX_ITER = 200

# Halvings of the lower cutoff before an endpoint integral is called
# divergent; barely integrable power tails (exponents just below -1) need
# hundreds to reach their limits.
_MAX_LEVELS = 400

# integrate_endpoint evaluates the panels of this many upcoming halvings
# in one integrand call, the last size repeating: most convergent integrals
# stop within the first two blocks, and a divergent one spends its whole
# budget in six calls.
_LEVEL_BLOCKS = (16, 32, 64, 128)


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


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_panel(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    order: int = _GAUSS_ORDER,
) -> np.ndarray:
    """Gauss-Legendre of the given order on each panel (lo[k], hi[k]).

    ``lo`` and ``hi`` are floats or 1-d arrays of panel ends.  ``f`` is
    called once, on the nodes of every panel as one 1-d float array, and
    returns their values as an array of the same shape; nodes are strictly
    interior.  Each panel adds its weighted values in node order, as a
    scalar loop over the nodes adds them, so a panel's sum does not depend
    on how many panels share the call.  Returns one sum per panel; a
    non-finite value is the caller's to judge.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nodes, weights = _gauss_legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return one value per node")
    # add.accumulate runs along each row in order: the scalar loop's sum
    return half * np.add.accumulate(weights * y.reshape(-1, order), axis=1)[:, -1]


def _level_increments(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """The panel integral of each halving level in turn, at most 400.

    Level k covers (a + (b - a) 2^-(k+1), a + (b - a) 2^-k], level 0 up to
    ``b``; the levels end early where the cutoff reaches floating-point
    resolution above ``a``.  They are evaluated a block at a time, one call
    of ``f`` per block, so the levels of a block beyond the one the caller
    stops at are never read: they are computed with every floating-point
    error ignored.  A level that is read and is not finite raises, an
    overflow in it as ``FloatingPointError`` (an ``ArithmeticError``) and
    anything else as "integrand not finite".
    """
    span = b - a
    hi = b
    done = 0
    for block in itertools.chain(_LEVEL_BLOCKS, itertools.repeat(_LEVEL_BLOCKS[-1])):
        count = min(block, _MAX_LEVELS - done)
        if count <= 0:
            return
        lows = a + np.ldexp(span, -np.arange(done + 1, done + count + 1))
        highs = np.concatenate(([hi], lows[:-1]))
        inside = (a < lows) & (lows < highs)
        usable = count if inside.all() else int(np.argmin(inside))
        if usable == 0:
            return  # the cutoff is at floating-point resolution
        with np.errstate(all="ignore"):
            sums = gauss_panel(f, lows[:usable], highs[:usable])
        for k, inc in enumerate(sums.tolist()):
            if not math.isfinite(inc):
                with np.errstate(all="ignore", over="raise"):
                    gauss_panel(f, lows[k], highs[k])
                raise ValueError("integrand not finite")
            yield inc
        if usable < count:
            return
        done += count
        hi = float(lows[-1])


def integrate_endpoint(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
) -> QuadratureResult:
    """Integrate f over (a, b] where f may blow up as x -> a+.

    ``f`` takes a 1-d float array of points and returns their values, an
    array of the same shape.  Panels shrink geometrically toward ``a``;
    each new panel halves the lower cutoff.  The result converges once
    three halvings in a row each changed the running value by at most 1e-9
    of its size.  The rule has no absolute floor, so scaling ``f`` does not
    move the verdict, and an integral that is exactly 0 converges.  The
    value then includes the geometric tail inc r / (1 - r) of the last
    increment inc, with r its ratio to the one before, when 0 < r < 1.  An
    integrand whose halvings keep growing the value past the whole budget
    of 400 halvings, past 1e50, or until the cutoff reaches floating-point
    resolution above a positive ``a``, is reported with
    ``converged=False``: the divergence verdict.

    ``f`` sees the panels of 16 upcoming halvings at once, then 32, 64 and
    128 at a time, and the stopping rule reads them one halving after
    another; halvings evaluated past the one it stops at are never read,
    and no floating-point error in them raises or warns.  A non-finite
    value in a halving that is read raises: an overflow as
    ``FloatingPointError``, anything else as "integrand not finite".
    """
    if not (b > a):
        raise ValueError("empty interval")
    if a < 0:
        raise ValueError("lower endpoint must be nonnegative")

    total = 0.0
    small_run = 0
    last_inc = math.inf
    levels = 0
    for inc in _level_increments(f, a, b):
        total += inc
        levels += 1

        if abs(inc) <= _QUAD_TOL * abs(total):
            small_run += 1
            if small_run >= _CONVERGENCE_RUN:
                ratio = inc / last_inc if last_inc else 0.0
                if 0.0 < ratio < 1.0:
                    total += inc * ratio / (1.0 - ratio)  # the geometric tail
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
    log_f: Callable[[np.ndarray], np.ndarray],
    n: int,
    lower: float,
) -> QuadratureResult:
    """int_lower^inf u^n e^{log_f(u)} du for a log density ``log_f``.

    ``log_f`` takes a 1-d float array of u and returns an array of the same
    shape, as the integrand of :func:`integrate_endpoint` does.  The head
    piece handles a possible blow-up at ``lower``; the tail is mapped onto
    a lower-endpoint singularity by u -> 1/t, so each cutoff halving
    doubles the reach toward infinity.  Both integrands are built in log
    space, so a tiny density cannot underflow against a huge u^n.
    Each piece stops by the rule of :func:`integrate_endpoint`, relative
    to its own value; the result converges when both pieces do.
    """
    if lower < 0:
        raise ValueError("lower endpoint must be nonnegative")
    split = max(2.0 * lower, lower + 1.0)
    head = integrate_endpoint(lambda u: np.exp(n * np.log(u) + log_f(u)), lower, split)
    tail = integrate_endpoint(
        lambda t: np.exp(log_f(1.0 / t) - (n + 2) * np.log(t)), 0.0, 1.0 / split
    )
    return QuadratureResult(
        head.value + tail.value,
        head.converged and tail.converged,
        max(head.refinement_levels, tail.refinement_levels),
        head.estimated_error + tail.estimated_error,
    )


def log_scale(
    f: Callable[[float], float], power: int = 0
) -> Callable[[np.ndarray], np.ndarray]:
    """The log form u -> log(f(x) x^power), x = e^-u, of a radial f >= 0.

    It is the log density in u of int f(x) x^(power - 1) dx: power 0 for a
    modulus (int omega(x)/x dx), 1 for a majorant (int Phi(x) dx).  log 0
    is -inf, and a value that overflows counts as the largest double.  Past
    u = -log(smallest normal double) ~ 708 the form is held at its value
    there, with no further decay: a density that has not died out by then
    reads as a constant, so its integral is reported divergent rather than
    truncated.  A function needing more reach should supply its log form
    in closed form.

    The form takes a 1-d float array of u, as every log form does, and
    calls ``f`` once per point on a Python float: the per-point adapter
    through which a plain callable is integrated, and the one slow path.
    """

    def log_point(u: float) -> float:
        u = min(u, _U_MAX)
        try:
            y = min(f(math.exp(-u)), sys.float_info.max)
        except OverflowError:
            y = sys.float_info.max
        return (math.log(y) if y != 0.0 else -math.inf) - power * u

    def log_form(u: np.ndarray) -> np.ndarray:
        return np.array([log_point(v) for v in u.tolist()], dtype=float)

    return log_form


def solve_monotone(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
) -> float:
    """Root of a monotone g on [lo, hi] for g(x) = target, by Illinois false
    position (Dowell & Jarratt, BIT 11, 1971) kept inside the bracket.

    Requires a sign change of g - target across the bracket.  g is called
    once at each end, then once per step, always strictly inside the
    current bracket.  A step is the false-position point of the two ends,
    with the residual of an end kept twice in a row halved (the Illinois
    rule); a step that rounds onto an end moves to the adjacent float
    inside, so that a root within rounding of an end closes the bracket in
    one step.  After two steps in a row that fail to halve the bracket, the
    next step bisects.  It stops at an exact root, or once no float lies
    strictly inside the bracket, or after 200 steps, and returns the end
    with the smaller residual |g - target|.
    """
    if not (hi > lo):
        raise ValueError("empty interval")
    flo = g(lo) - target
    fhi = g(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("target not bracketed")

    wlo, whi = flo, fhi  # the residuals the false-position steps weigh
    kept = 0  # -1 or +1 when the last step kept lo or hi, else 0
    slow = 0  # steps in a row that did not halve the bracket
    for _ in range(_MAX_ITER):
        width = hi - lo
        bisect = slow >= 2
        if not bisect:
            x = lo + (hi - lo) * (wlo / (wlo - whi))
            # x first, so that nan stays nan
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
            bisect = not lo < x < hi  # also when x is nan
        if bisect:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # bracket at floating-point resolution
        fx = g(x) - target
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo, wlo = x, fx, fx
            if kept == 1:
                whi *= 0.5
            kept = 1
        else:
            hi, fhi, whi = x, fx, fx
            if kept == -1:
                wlo *= 0.5
            kept = -1
        slow = 0 if bisect or 2.0 * (hi - lo) <= width else slow + 1

    return lo if abs(flo) <= abs(fhi) else hi


# minimize_on_circle's grid, golden ratio and final bracket in the angle
_CIRCLE_GRID = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CIRCLE_REFINE_TOL = 1e-12


def minimize_on_circle(h: Callable[[float], float]) -> float:
    """The minimum of a 2*pi-periodic h, the package's one minimiser: a
    64-point grid, then golden-section search within a grid step of the
    first best grid point down to a bracket 1e-12 wide in the angle, which
    is scale-free.  h is read 122 times, at angles reduced mod 2*pi; the
    least value read is returned.  The grid alone picks the basin.  A value
    that is not finite raises "objective not finite".
    """

    def f(theta: float) -> float:
        y = h(theta % (2.0 * math.pi))
        if not math.isfinite(y):
            raise ValueError("objective not finite")
        return y

    step = 2.0 * math.pi / _CIRCLE_GRID
    values = [f(step * k) for k in range(_CIRCLE_GRID)]
    best = min(range(_CIRCLE_GRID), key=values.__getitem__)

    lo, hi = step * best - step, step * best + step
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if hi - lo <= _CIRCLE_REFINE_TOL:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return min(values[best], fc, fd, f(0.5 * (lo + hi)))
