"""Shared numeric kernels.

The primitives used everywhere else in the package: composite quadrature
with divergence detection near an endpoint singularity, for many
integrands on shared nodes at once, and on the log scale u = log(1/x) for
every order of a radial moment in one pass; bracketed false position for
monotone root problems; the one minimiser, a grid scan refined by
golden-section search on the circle; and the one power-of-two scaling rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
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

# integrate_log_moment's orders per pass: a block holds 128 x 2048 doubles
_ORDERS_PER_PASS = 128


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an endpoint-refined quadrature.

    When ``converged`` is false, ``value`` is the last partial sum and must
    not be used as a limit: ``limit`` is then None.
    """

    value: float
    converged: bool
    refinement_levels: int
    estimated_error: float

    @property
    def limit(self) -> float | None:
        return self.value if self.converged else None

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "diverged"


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_panel(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    order: int,
) -> np.ndarray:
    """Gauss-Legendre of the given order on each panel (lo[k], hi[k]).

    ``lo`` and ``hi`` are floats or 1-d arrays of panel ends.  ``f`` is
    called once, on the nodes of every panel as one 1-d float array, and
    returns their values, an array of that shape or a row of it per
    integrand; nodes are strictly interior.  Each row's panel adds its
    weighted values in node order, as a scalar loop over the nodes adds
    them, so a sum does not depend on how many panels or rows share the
    call.  Returns one sum per (row and) panel; a non-finite value is the
    caller's to judge.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return _gauss_sums(f, 0.5 * (lo + hi), 0.5 * (hi - lo), order)


def _gauss_sums(f: Callable[[np.ndarray], np.ndarray], mid: np.ndarray, half: np.ndarray,
                order: int) -> np.ndarray:
    """The rule of :func:`gauss_panel` on the panels of 1-d float arrays of
    midpoints ``mid`` and half-widths ``half``: their nodes, one call of
    ``f``, its shape check and the weighted sums."""
    nodes, weights = _gauss_legendre(order)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.ndim > 2 or y.shape[-1:] != x.shape:
        raise ValueError("integrand must return one value per node")
    # add.accumulate runs along each panel in order: the scalar loop's sum
    return half * np.add.accumulate(weights * y.reshape(*y.shape[:-1], -1, order), -1)[..., -1]


# 2^-k for the halvings k = 1.._MAX_LEVELS, exact doubles: (b - a) times one
# rounds once, as ldexp(b - a, -k) does, subnormal products included
_HALVINGS = np.ldexp(1.0, -np.arange(1, _MAX_LEVELS + 1))


def _integrate_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: int,
                    a: float, b: float) -> tuple[list, list]:
    """The results and the errors (or None) of ``rows`` integrals over
    (a, b], by the rule of :func:`integrate_endpoint`, kept here only; a
    result is the plain tuple (value, converged, refinement levels,
    estimated error) of a :class:`QuadratureResult`.  ``f(x, rows)`` gives
    the integrands numbered ``rows`` at the nodes x, shape (len(rows),
    x.size).  The call computes every level's cutoff, midpoint and
    half-width once; a block then forms only its nodes and weighted sums,
    evaluating its levels for every row still open in one call of ``f``.
    Each row reads its levels in order until it stops, or until one is not
    finite or ``f`` raises: that is its error."""
    lows = a + (b - a) * _HALVINGS[:_MAX_LEVELS]  # a budget lowered at run time holds
    highs = np.concatenate(([b], lows[:-1]))
    inside = (a < lows) & (lows < highs)  # false from where the cutoff reaches resolution
    levels = len(lows) if inside.all() else int(np.argmin(inside))
    mids, halves = 0.5 * (lows + highs), 0.5 * (highs - lows)
    panel = lambda rows, k: _gauss_sums(lambda x: f(x, np.array(rows)), mids[k], halves[k],
                                        _GAUSS_ORDER)
    open_rows, done = list(range(rows)), 0
    results, errors = [None] * rows, [None] * rows
    states = [(0.0, 0, math.inf)] * rows  # running value, small run, last increment
    for block in itertools.chain(_LEVEL_BLOCKS, itertools.repeat(_LEVEL_BLOCKS[-1])):
        if not open_rows or done == levels:
            break
        end = min(done + block, levels)
        try:
            with np.errstate(all="ignore"):
                sums = panel(open_rows, slice(done, end)).reshape(len(open_rows), end - done)
        except Exception as exc:  # as each open row alone would raise
            errors = [exc if row in open_rows else err for row, err in enumerate(errors)]
            return results, errors
        stopped = False
        for row, incs in zip(open_rows, sums.tolist()):
            total, small_run, last_inc = states[row]
            for k, inc in enumerate(incs):
                if not math.isfinite(inc):  # an overflow raises FloatingPointError
                    try:
                        with np.errstate(all="ignore", over="raise"):
                            panel([row], slice(done + k, done + k + 1))
                        errors[row] = ValueError("integrand not finite")
                    except Exception as exc:
                        errors[row] = exc
                    stopped = True
                    break
                total += inc
                if abs(inc) <= _QUAD_TOL * abs(total):
                    small_run += 1
                    if small_run >= _CONVERGENCE_RUN:
                        ratio = inc / last_inc if last_inc else 0.0
                        if 0.0 < ratio < 1.0:
                            total += inc * ratio / (1.0 - ratio)  # the geometric tail
                        results[row] = (total, True, done + k + 1, _tail_estimate(inc, last_inc))
                        stopped = True
                        break
                else:
                    small_run = 0
                last_inc = inc
                if abs(total) > _VALUE_CAP:  # divergence settled; stop before overflow
                    results[row] = (total, False, done + k + 1, abs(inc))
                    stopped = True
                    break
            states[row] = (total, small_run, last_inc)
        if stopped:
            open_rows = [row for row in open_rows if results[row] is None and errors[row] is None]
        done = end
    for row in open_rows:
        results[row] = (states[row][0], False, done, abs(states[row][2]))
    return results, errors


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

    A call computes the cutoffs a + (b - a) 2^-k of all its halvings once,
    from one table of the powers 2^-k, with each panel's midpoint and
    half-width; a block of halvings then forms only its nodes and weighted
    sums, by the rule of :func:`gauss_panel`.  ``f`` sees the panels of 16
    upcoming halvings at once, then 32, 64 and 128 at a time, and the
    stopping rule reads them one halving after another; halvings evaluated
    past the one it stops at are never read, and no floating-point error
    in them raises or warns.  A non-finite value in a halving that is read
    raises: an overflow as ``FloatingPointError``, anything else as
    "integrand not finite".  It is the one-row case of
    :func:`integrate_log_moment`'s kernel.
    """
    if not (b > a):
        raise ValueError("empty interval")
    if a < 0:
        raise ValueError("lower endpoint must be nonnegative")
    (result,), (error,) = _integrate_rows(lambda x, _: np.asarray(f(x), float)[None], 1, a, b)
    if error is not None:
        raise error
    return QuadratureResult(*result)


def _tail_estimate(inc: float, prev_inc: float) -> float:
    """Geometric model of the dropped tail from the last two increments."""
    inc = abs(inc)
    prev = abs(prev_inc)
    if prev > 0 and inc < prev:
        ratio = min(inc / prev, 0.9)
        return inc * ratio / (1.0 - ratio) + inc
    return 2.0 * inc


def _log_moments(log_f, orders: np.ndarray, lower: float) -> list[QuadratureResult]:
    """One pass of :func:`integrate_log_moment`, on ``log_f`` as it is."""
    split = max(2.0 * lower, lower + 1.0)
    results = []
    for start in range(0, len(orders), _ORDERS_PER_PASS):
        n = orders[start:start + _ORDERS_PER_PASS]
        heads, head_errors = _integrate_rows(
            lambda u, rows: np.exp(np.multiply.outer(n[rows], np.log(u)) + log_f(u)),
            len(n), lower, split)
        tails, tail_errors = _integrate_rows(
            lambda t, rows: np.exp(log_f(1.0 / t) - np.multiply.outer(n[rows] + 2.0, np.log(t))),
            len(n), 0.0, 1.0 / split)
        for error in filter(None, itertools.chain(*zip(head_errors, tail_errors))):
            raise error  # the lowest order's, head before tail
        results += [QuadratureResult(h_value + t_value, h_converged and t_converged,
                                     max(h_levels, t_levels), h_error + t_error)
                    for (h_value, h_converged, h_levels, h_error),
                        (t_value, t_converged, t_levels, t_error) in zip(heads, tails)]
    return results


def integrate_log_moment(
    log_f: Callable[[np.ndarray], np.ndarray],
    orders,
    lower: float,
) -> list[QuadratureResult]:
    """int_lower^inf u^n e^{log_f(u)} du for each integer n in ``orders``.

    ``log_f`` takes a 1-d float array of u and returns an array of the same
    shape, as the integrand of :func:`integrate_endpoint` does.  The head
    piece handles a possible blow-up at ``lower``; the tail is mapped onto
    a lower-endpoint singularity by u -> 1/t, so each cutoff halving
    doubles the reach toward infinity.  Both integrands are built in log
    space, so a tiny density cannot underflow against a huge u^n.  Each
    piece runs up to 128 orders in one pass, calling ``log_f`` once per
    block for every order still open, and stops each by the rule of
    :func:`integrate_endpoint`; an order converges when both pieces do.
    Results are those of each order alone, one :class:`QuadratureResult`
    per order for its two pieces; the error of the lowest failing order,
    head before tail, is raised.  An order whose |value| falls below
    the normal range, where nodes round to units 2^-1074, reruns on
    ``log_f + 1022 log 2`` and is scaled back by 2^-1022; the rest keep the
    first pass's results to the last bit.  Its first pass summed its nodes
    below 2^-1022, so, lifted, each stays below 1/(weight x panel width); a
    rerun that reads further, or raises, does so as any pass does.
    """
    if lower < 0:
        raise ValueError("lower endpoint must be nonnegative")
    results = _log_moments(log_f, orders := np.asarray(orders, dtype=float), lower)
    low = [i for i, r in enumerate(results) if abs(r.value) < sys.float_info.min]
    lift = lambda u: log_f(u) + 1022 * math.log(2.0)
    for i, r in zip(low, _log_moments(lift, orders[low], lower)):
        results[i] = replace(r, value=math.ldexp(r.value, -1022),
                             estimated_error=math.ldexp(r.estimated_error, -1022))
    return results


def log_scale(
    f: Callable[[float], float], power: int
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


def power_of_two_scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, e) with values = w 2^e, one exponent per vector along the last
    axis, by the one rule for scaling before squaring (Blue, ACM TOMS 4(1),
    1978): a vector whose largest |real or imaginary part| is 0, not finite
    or in [2^-480, 2^480] stays as it is (e = 0); any other is scaled to put
    that part in [1/2, 1), in two steps, as 2^-e overflows for a subnormal
    part.  Exact while every scaled entry stays normal; those more than
    about 2^1022 below the largest still underflow."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)  # re, im in one pass
    # reduced over the first axis of the contiguous transpose: numpy reduces
    # a short last axis one row at a time, about 10x slower on 768 rows of
    # 2 or 4 parts
    columns = np.ascontiguousarray(parts.T)
    top = np.maximum(columns.max(axis=0, initial=0.0), -columns.min(axis=0, initial=0.0)).T
    inside = (2.0**-480 <= top) & (top <= 2.0**480)
    if inside.all():
        return values, np.zeros(top.shape, int)
    e = np.where(inside, 0, np.frexp(top)[1])  # frexp gives 0, inf and nan the exponent 0
    half = e[..., None] // 2  # the real and imaginary parts alike, in two steps
    w = np.array(values).view(float) * np.ldexp(1.0, -half) * np.ldexp(1.0, half - e[..., None])
    return w.view(values.dtype), e
