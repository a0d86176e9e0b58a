"""Kernel tests: quadrature verdicts, bisection, circle minimization."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import numerics
from geodisc.disc_analysis import ModulusFamily
from geodisc.hardy_littlewood import Majorant
from geodisc.numerics import (
    QuadratureResult,
    integrate_endpoint,
    integrate_log_moment,
    minimize_on_circle,
    solve_monotone,
)


def test_constant_integrand_converges():
    res = integrate_endpoint(lambda x: np.ones_like(x), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9
    assert res.estimated_error >= 0.0


def test_log_singularity_integrates_to_one():
    # int_0^1 log(1/x) dx = 1
    res = integrate_endpoint(lambda x: np.log(1.0 / x), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9


def partial_sums(monkeypatch, f, a, b, budgets) -> list[float]:
    """The values integrate_endpoint returns under each level budget, each
    of which it spends exactly, mid-block included: with a tolerance of 0
    only an exactly zero halving looks Cauchy."""
    monkeypatch.setattr(numerics, "_QUAD_TOL", 0.0)
    values = []
    for levels in budgets:
        monkeypatch.setattr(numerics, "_MAX_LEVELS", levels)
        res = integrate_endpoint(f, a, b)
        assert res.refinement_levels == levels
        values.append(res.value)
    return values


def test_log_divergent_integrand_flagged(monkeypatch):
    # int_0 dx / (x log(1/x)) diverges like log log; partial sums keep
    # growing monotonically without Cauchy behaviour.
    f = lambda x: 1.0 / (x * np.log(1.0 / x))
    res = integrate_endpoint(f, 0.0, 0.5)
    assert not res.converged

    # doubling-refinement oracle: partial values grow monotonically with the
    # refinement budget
    partials = partial_sums(monkeypatch, f, 0.0, 0.5, (10, 20, 40, 80))
    assert all(b > a for a, b in zip(partials, partials[1:]))


def test_partial_sums_nondecreasing_for_nonnegative_integrand(monkeypatch):
    f = lambda x: 1.0 / np.sqrt(x)
    values = partial_sums(monkeypatch, f, 0.0, 1.0, range(4, 40, 4))
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty interval"):
        integrate_endpoint(lambda x: np.ones_like(x), 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: integrate_endpoint(lambda x: np.ones_like(x), -1.0, 1.0),
    lambda: integrate_log_moment(lambda u: -u, [0], -1.0),
], ids=["integrate_endpoint", "integrate_log_moment"])
def test_a_negative_lower_end_is_rejected(call):
    with pytest.raises(ValueError, match="lower endpoint must be nonnegative"):
        call()


@pytest.mark.parametrize("f", [lambda x: x[1:], lambda x: x[None, None]],
                         ids=["a node short", "three axes"])
def test_gauss_panel_rejects_an_integrand_of_the_wrong_shape(f):
    with pytest.raises(ValueError, match="one value per node"):
        numerics.gauss_panel(f, 0.0, 1.0, 8)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError, match="integrand not finite"):
        integrate_endpoint(lambda x: np.full_like(x, math.inf), 0.0, 1.0)


def test_singularity_at_positive_endpoint_diverges():
    # int_a (x - a)^-1.5 dx diverges; once the cutoff reaches the spacing of
    # doubles at a, further panels are empty and prove nothing
    res = integrate_endpoint(lambda x: np.where(x > 0.1, (x - 0.1) ** -1.5, 0.0), 0.1, 1.0)
    assert not res.converged


# --- the blocked loop against one halving at a time ---------------------

def scalar_panel(f, lo: float, hi: float) -> float:
    """A 16-node Gauss panel with one call of f per node, added in node
    order."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = 0.0
    for node, weight in zip(nodes, weights):
        y = float(f(np.array([mid + half * node]))[0])
        if not math.isfinite(y):
            raise ValueError("integrand not finite")
        total += weight * y
    return half * total


def level_by_level(f, a: float, b: float) -> QuadratureResult:
    """integrate_endpoint as one loop over the halvings, a scalar panel
    each, under the same stopping rule: the oracle of the blocked loop."""
    span = b - a
    total = 0.0
    hi = b
    small_run = 0
    last_inc = math.inf
    levels = 0
    for level in range(numerics._MAX_LEVELS):
        lo = a + span * 0.5 ** (level + 1)
        if not a < lo < hi:
            break
        inc = scalar_panel(f, lo, hi)
        total += inc
        hi = lo
        levels = level + 1
        if abs(inc) <= numerics._QUAD_TOL * abs(total):
            small_run += 1
            if small_run >= numerics._CONVERGENCE_RUN:
                ratio = inc / last_inc if last_inc else 0.0
                if 0.0 < ratio < 1.0:
                    total += inc * ratio / (1.0 - ratio)
                return QuadratureResult(total, True, levels, numerics._tail_estimate(inc, last_inc))
        else:
            small_run = 0
        last_inc = inc
        if abs(total) > numerics._VALUE_CAP:
            break
    return QuadratureResult(total, False, levels, abs(last_inc))


def assert_matches_oracle(res: QuadratureResult, oracle: QuadratureResult) -> None:
    assert (res.converged, res.refinement_levels) == (oracle.converged, oracle.refinement_levels)
    assert abs(res.value - oracle.value) <= 1e-14 * abs(oracle.value)


@given(
    st.one_of(st.floats(min_value=-3.0, max_value=-1.02), st.floats(min_value=-0.98, max_value=2.0)),
    st.sampled_from([0.0, 0.25]),
    st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_blocked_levels_match_level_by_level_on_powers(p, a, width):
    # (x - a)^p on (a, a + width]: converged above p = -1, diverged below,
    # by the value cap, the 400-level budget or, for a > 0, the cutoff
    # reaching floating-point resolution
    f = lambda x: (x - a) ** p
    b = a + width
    assert_matches_oracle(integrate_endpoint(f, a, b), level_by_level(f, a, b))


# --- the kernel against gauss_panel, one halving at a time, to the bit --

def cutoffs_by_ldexp(a: float, b: float) -> np.ndarray:
    """The lower cutoffs a + ldexp(b - a, -k) of the halvings k = 1..400."""
    return a + np.ldexp(b - a, -np.arange(1, numerics._MAX_LEVELS + 1))


def test_the_halving_table_gives_the_ldexp_cutoffs_to_the_bit():
    # widths from 1e300 down to subnormal, where (b - a) 2^-k rounds
    rng = np.random.default_rng(7)
    a = np.where(rng.random(20000) < 0.5, 0.0, rng.uniform(0.0, 10.0, 20000))
    width = 10.0 ** rng.uniform(-320.0, 300.0, 20000)
    for a_i, b_i in zip(a.tolist(), (a + width).tolist()):
        if b_i > a_i:
            table = a_i + (b_i - a_i) * numerics._HALVINGS
            assert table.tobytes() == cutoffs_by_ldexp(a_i, b_i).tobytes()


def rows_by_levels(f, rows: int, a: float, b: float) -> list:
    """Each row of ``f(x, rows)`` integrated over (a, b] one halving at a
    time, a ``gauss_panel`` call per halving between ldexp cutoffs, under
    the stopping rule: its (value, converged, levels, error) tuple, or the
    type and message of its error.  The kernel's oracle, to the bit."""
    out = []
    for row in range(rows):
        g = lambda x: f(x, np.array([row]))[0]
        total, small_run, last_inc, hi, levels = 0.0, 0, math.inf, b, 0
        outcome = None
        for lo in cutoffs_by_ldexp(a, b).tolist():
            if not a < lo < hi:
                break
            with np.errstate(all="ignore"):
                (inc,) = numerics.gauss_panel(g, lo, hi, numerics._GAUSS_ORDER).tolist()
            if not math.isfinite(inc):
                try:
                    with np.errstate(all="ignore", over="raise"):
                        numerics.gauss_panel(g, lo, hi, numerics._GAUSS_ORDER)
                    outcome = (ValueError, "integrand not finite")
                except FloatingPointError as exc:
                    outcome = (FloatingPointError, str(exc))
                break
            total += inc
            hi, levels = lo, levels + 1
            if abs(inc) <= numerics._QUAD_TOL * abs(total):
                small_run += 1
                if small_run >= numerics._CONVERGENCE_RUN:
                    ratio = inc / last_inc if last_inc else 0.0
                    if 0.0 < ratio < 1.0:
                        total += inc * ratio / (1.0 - ratio)
                    outcome = (total, True, levels, numerics._tail_estimate(inc, last_inc))
                    break
            else:
                small_run = 0
            last_inc = inc
            if abs(total) > numerics._VALUE_CAP:
                outcome = (total, False, levels, abs(inc))
                break
        out.append(outcome or (total, False, levels, abs(last_inc)))
    return out


def kernel_rows(f, rows: int, a: float, b: float) -> list:
    """The kernel's outcome per row, in the form of :func:`rows_by_levels`."""
    results, errors = numerics._integrate_rows(f, rows, a, b)
    return [(type(err), str(err)) if err is not None else res
            for res, err in zip(results, errors)]


def bits(outcomes: list) -> list:
    """``outcomes`` with every float as its hex text, so 0.0 and -0.0 differ."""
    return [tuple(v.hex() if type(v) is float else v for v in o) for o in outcomes]


@given(
    powers=st.lists(st.floats(min_value=-3.0, max_value=2.0), min_size=1, max_size=5),
    scale=st.sampled_from([1.0, 1e-300, 1e45]),  # 1e45 meets the value cap early
    a=st.one_of(st.sampled_from([0.0, 0.25]), st.floats(min_value=0.0, max_value=10.0)),
    width=st.one_of(st.floats(min_value=1e-3, max_value=3.0),
                    st.sampled_from([1e-300, 2.0**-1060])),  # these halve into subnormals
    poison=st.one_of(st.none(), st.floats(min_value=1e-30, max_value=0.1)),
)
@settings(max_examples=80, deadline=None)
def test_kernel_rows_equal_gauss_panel_level_by_level_to_the_bit(powers, scale, a, width, poison):
    # rows of scale (x - a)^p: converged, over the value cap, past the
    # budget, or stopped where the cutoff reaches resolution (a > 0, or
    # a = 0 with a subnormal cutoff rounding to 0); the last row reads nan
    # at and below a + poison times the width
    b = a + width
    if not b > a:
        return
    p = np.array(powers)
    rows = len(powers)

    def f(x, numbers):
        y = scale * (x - a) ** p[numbers, None]
        if poison is not None:
            y = np.where((numbers == rows - 1)[:, None] & (x <= a + poison * width), np.nan, y)
        return y

    assert bits(kernel_rows(f, rows, a, b)) == bits(rows_by_levels(f, rows, a, b))


def test_a_level_that_overflows_is_the_error_of_its_row_alone():
    # row 1 is e^(1000/x), which overflows on the first level; rows 0 and 2
    # are 1 and converge
    f = lambda x, numbers: np.exp(np.multiply.outer(np.where(numbers == 1, 1e3, 0.0), 1.0 / x))
    outcomes = kernel_rows(f, 3, 0.0, 1.0)
    assert bits(outcomes) == bits(rows_by_levels(f, 3, 0.0, 1.0))
    assert [o[:2] for o in outcomes] == [
        (1.0, True), (FloatingPointError, "overflow encountered in exp"), (1.0, True)]


LOG_FORMS = {
    "power majorant": st.builds(
        lambda e: Majorant.power(0.5, 1.5, e).log_form, st.floats(min_value=-1.5, max_value=1.0)
    ),
    "family majorant": st.builds(
        lambda alpha: Majorant.family(1.3, math.e, alpha, 0.5).log_form,
        st.floats(min_value=0.1, max_value=2.0),
    ),
    "holder": st.builds(lambda a: ModulusFamily.holder(a).log_modulus,
                        st.floats(min_value=0.05, max_value=1.0)),
    "log reciprocal": st.just(ModulusFamily.log_reciprocal().log_modulus),
    "stretched exponential": st.builds(
        lambda c, eps: ModulusFamily.stretched_exponential(c, eps).log_modulus,
        st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.05, max_value=0.95),
    ),
}


def log_moment_by_pieces(integrate, log_form, n: int, lower: float) -> QuadratureResult:
    """One order of integrate_log_moment with each piece run through
    ``integrate``: its own head and tail integrands, one order at a time."""
    split = max(2.0 * lower, lower + 1.0)
    head = integrate(lambda u: np.exp(n * np.log(u) + log_form(u)), lower, split)
    tail = integrate(lambda t: np.exp(log_form(1.0 / t) - (n + 2) * np.log(t)), 0.0, 1.0 / split)
    return QuadratureResult(
        head.value + tail.value,
        head.converged and tail.converged,
        max(head.refinement_levels, tail.refinement_levels),
        head.estimated_error + tail.estimated_error,
    )


@pytest.mark.parametrize("name", sorted(LOG_FORMS))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_blocked_levels_match_level_by_level_on_log_forms(name, data):
    log_form = data.draw(LOG_FORMS[name])
    lower = data.draw(st.sampled_from([0.0, math.log(2.0), math.log(100.0)]))
    results = integrate_log_moment(log_form, range(7), lower)
    assert len(results) == 7
    for n, res in enumerate(results):
        assert_matches_oracle(res, log_moment_by_pieces(level_by_level, log_form, n, lower))


ROW_FORMS = {
    "holder": ModulusFamily.holder(0.4).log_modulus,
    "stretched exponential": ModulusFamily.stretched_exponential(1.5, 0.3).log_modulus,
    "log reciprocal": ModulusFamily.log_reciprocal().log_modulus,
    "plain callable": numerics.log_scale(lambda x: x**0.75, 0),
    "family majorant": Majorant.family(1.3, math.e, 0.7, 0.5).log_form,
}


def outcome(call):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def per_order_loop(moment, log_form, n_max: int, lower: float):
    """The orders 0..n_max one call at a time, stopping at the first error."""
    results = []
    for n in range(n_max + 1):
        res = outcome(lambda: moment(log_form, n, lower))
        if not isinstance(res, QuadratureResult):
            return res
        results.append(res)
    return results


@pytest.mark.parametrize("n_max", [0, 6, 80, 200])  # 200 spans two passes of 128
@pytest.mark.parametrize("name", sorted(ROW_FORMS))
def test_all_orders_in_one_pass_equal_the_one_order_calls(name, n_max):
    log_form = ROW_FORMS[name]
    for lower in (0.0, math.log(2.0), 3.0):
        together = outcome(lambda: integrate_log_moment(log_form, range(n_max + 1), lower))
        one_order = per_order_loop(
            lambda f, n, low: integrate_log_moment(f, [n], low)[0], log_form, n_max, lower)
        by_pieces = per_order_loop(
            lambda f, n, low: log_moment_by_pieces(integrate_endpoint, f, n, low),
            log_form, n_max, lower)
        assert together == one_order == by_pieces


NAN = math.nan


def raising_above(bound: float, log_form):
    """``log_form``, but raising ZeroDivisionError for any u above ``bound``."""
    def raising(u):
        if np.any(u > bound):
            raise ZeroDivisionError("log form read past its bound")
        return log_form(u)
    return raising


# log forms that fail at chosen orders, and the lower ends to integrate from:
# low orders read the head farthest toward u = 0, high orders the tail
# farthest out, unless the running value passes 1e50 first; 800 overflows
# e^, and so does 700 + n log u from n = 5 on the head (4, 8]
FAILING_LOG_FORMS = {
    "nan tails at orders 5..41": (lambda u: np.where(u > 300.0, NAN, -u), 0.0),
    "overflowing tails at orders 5..41": (lambda u: np.where(u > 300.0, 800.0, -u), 0.0),
    "nan head at order 0 before the overflowing tails": (
        lambda u: np.where(u < 1e-9, NAN, np.where(u > 300.0, 800.0, -u)), 0.0),
    "order 0 fails in both pieces": (
        lambda u: np.where(u < 1e-9, NAN, np.where(u > 40.0, 800.0, -u)), 0.0),
    "overflowing tails at orders 66..190": (
        lambda u: np.where(u > 1100.0, 800.0, -u - 700.0), 0.0),
    "nan tails in the second pass only": (lambda u: np.where(u > 2100.0, NAN, -u - 700.0), 0.0),
    "nan tail at order 0 before overflowing heads": (
        lambda u: np.where(u > 100.0, NAN, np.where(u <= 8.0, 700.0, -u)), 4.0),
    "a log form raising in the tail": (raising_above(500.0, lambda u: -u), 0.0),
    "nan head at order 0 before a raising tail": (
        raising_above(500.0, lambda u: np.where(u < 1e-9, NAN, -u)), 0.0),
}


@pytest.mark.parametrize("name", sorted(FAILING_LOG_FORMS))
def test_failing_orders_raise_the_error_of_the_lowest(name):
    log_form, lower = FAILING_LOG_FORMS[name]
    together = outcome(lambda: integrate_log_moment(log_form, range(201), lower))
    by_pieces = per_order_loop(
        lambda f, n, low: log_moment_by_pieces(integrate_endpoint, f, n, low), log_form, 200, lower)
    assert isinstance(by_pieces, tuple)
    assert together == by_pieces


def test_one_pass_holds_at_most_128_orders_of_2048_nodes(monkeypatch):
    blocks = []
    sums = numerics._gauss_sums

    def recording_sums(f, mid, half, order):
        def recorded(x):
            values = f(x)
            blocks.append(values.shape)
            return values
        return sums(recorded, mid, half, order)

    monkeypatch.setattr(numerics, "_gauss_sums", recording_sums)
    seen = []
    # u^(n - 1.5) e^(-1000 u): order 0 diverges at u = 0 through 128-level
    # blocks, and no tail overflows up to n = 2000
    log_form = lambda u: seen.append(u.size) or -1e3 * u - 1.5 * np.log(u)
    results = integrate_log_moment(log_form, range(2001), 0.0)
    assert [res.converged for res in results] == [False] + [True] * 2000
    assert max(rows for rows, _ in blocks) == 128
    assert max(nodes for _, nodes in blocks) == max(seen) == 128 * 16


def poisoned_below(f, cutoff: float, poison):
    """f above ``cutoff`` and ``poison(x)`` at and below it; both are
    evaluated on every node, as numpy evaluates both sides of a where."""
    return lambda x: np.where(x > cutoff, f(x), poison(x))


POISONS = {
    "nan": lambda x: np.full_like(x, math.nan),
    "inf": lambda x: np.full_like(x, math.inf),
    "overflow": lambda x: np.exp(1e3 / x),
}


@pytest.mark.parametrize("poison", sorted(POISONS))
@pytest.mark.parametrize("f, levels, converged", [
    (lambda x: np.ones_like(x), 32, True),  # stops inside the 16..47 block
    (lambda x: x**-3.0, 84, False),  # past the value cap, inside 48..111
])
def test_levels_past_the_stop_are_never_read(f, levels, converged, poison):
    clean = integrate_endpoint(f, 0.0, 1.0)
    assert (clean.refinement_levels, clean.converged) == (levels, converged)
    assert_matches_oracle(clean, level_by_level(f, 0.0, 1.0))
    # every node of the levels the rule reads lies above the last cutoff
    poisoned = poisoned_below(f, 0.5**levels, POISONS[poison])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integrate_endpoint(poisoned, 0.0, 1.0) == clean


def test_overflow_on_a_read_level_raises_arithmetic_error():
    # e^(1000/x) overflows on every node of the first level
    with pytest.raises(ArithmeticError):
        integrate_endpoint(lambda x: np.exp(1e3 / x), 0.0, 1.0)


def test_nan_on_a_read_level_is_rejected():
    # the last level read holds the first nan node
    f = poisoned_below(lambda x: np.ones_like(x), 0.5**31, POISONS["nan"])
    with pytest.raises(ValueError, match="integrand not finite"):
        integrate_endpoint(f, 0.0, 1.0)


def test_log_moment_gamma_values():
    # int_0^inf u^n e^-u du = n!
    orders = (0, 1, 3, 6)
    for n, res in zip(orders, integrate_log_moment(lambda u: -u, orders, 0.0), strict=True):
        assert res.converged
        assert abs(res.value - math.factorial(n)) < 1e-7 * math.factorial(n)


def test_log_moment_harmonic_diverges():
    (res,) = integrate_log_moment(lambda u: -np.log(1.0 + u), [0], 0.0)
    assert not res.converged


def test_log_moment_reruns_only_the_orders_below_the_normal_range():
    # int_5^inf c e^(5 - u) du = c.  A normal result is that of one pass on
    # the density as it is, to the last bit; below the normal range that
    # pass rounds its nodes to units 2^-1074 (at c = 3 units it reads 0),
    # and the rerun on the lifted density reads c.  Order 30, about c e^5 30!,
    # stays normal and keeps its first pass beside a rerun order 0
    unit = math.ldexp(1.0, -1074)
    for c in (1.0, 1e-300, 1e-310, 3 * unit):
        form = lambda u, c=c: math.log(c) + 5.0 - u
        res, thirty = integrate_log_moment(form, [0, 30], 5.0)
        plain, plain_thirty = numerics._log_moments(form, np.array([0.0, 30.0]), 5.0)
        assert res.converged
        assert res.value == c if c < sys.float_info.min else abs(res.value - c) <= 1e-13 * c
        assert thirty == plain_thirty and thirty.converged
        assert res == plain if c >= 1e-300 else plain.value < sys.float_info.min


def test_root_square_root_calls_and_steps_inside_the_bracket():
    # g is called at the two ends, then only strictly inside the bracket
    # that the calls so far leave; false-position steps reach the exact
    # root in 19 calls, where bisection to 1e-12 took 44
    calls = []
    root = solve_monotone(lambda x: calls.append(x) or x * x, 0.0, 3.0, 4.0)
    assert calls[:2] == [0.0, 3.0]
    lo, hi = 0.0, 3.0
    for x in calls[2:]:
        assert lo < x < hi
        lo, hi = (x, hi) if x * x < 4.0 else (lo, x)
    assert root == 2.0
    assert len(calls) <= 20


def test_root_within_rounding_of_an_end_takes_one_step():
    # g(1) = 1e-30: the false-position point rounds onto 1.0, moves to the
    # float just below it, and that closes the bracket; without that move
    # the solve bisected down to floating-point resolution in 55 calls
    calls = []
    root = solve_monotone(lambda x: calls.append(x) or x - 1.0 + 1e-30 * x * x, 0.0, 1.0, 0.0)
    assert root == 1.0
    assert len(calls) <= 4


def test_bisection_exp_shift():
    # g(x) = e^{-1/x} + x is strictly increasing on (0, 0.2]
    g = lambda x: math.exp(-1.0 / x) + x
    root = solve_monotone(g, 1e-6, 0.2, 0.1)

    # independent bisection oracle
    lo, hi = 1e-6, 0.2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.1:
            lo = mid
        else:
            hi = mid
    assert abs(root - 0.5 * (lo + hi)) < 1e-10
    assert abs(root - 0.09995) < 1e-4


@pytest.mark.parametrize("target", [0.0, 1.0])
def test_root_at_an_end_is_that_end_after_two_calls(target):
    calls = []
    assert solve_monotone(lambda x: calls.append(x) or x, 0.0, 1.0, target) == target
    assert calls == [0.0, 1.0]


def test_bisection_requires_bracket():
    with pytest.raises(ValueError, match="target not bracketed"):
        solve_monotone(lambda x: x, 0.0, 1.0, 5.0)


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_bisection_residual_on_monotone_cubics(scale, shift):
    g = lambda x: scale * x**3 + x + shift
    target = g(0.3)
    root = solve_monotone(g, -1.0, 1.0, target)
    assert abs(root - 0.3) < 1e-9
    assert abs(g(root) - target) <= 1e-10


def test_minimize_cosine_well():
    assert abs(minimize_on_circle(lambda t: 2.0 + math.cos(t)) - 1.0) < 1e-12


def test_minimize_constant():
    assert minimize_on_circle(lambda t: 5.0) == 5.0


def test_minimize_taxicab_norm():
    h = lambda t: abs(math.cos(t)) + abs(math.sin(t))
    value = minimize_on_circle(h)

    # dense scan oracle: minima at multiples of pi/2, all with value 1
    dense = np.linspace(0.0, 2.0 * math.pi, 100001)
    oracle = min(abs(np.cos(dense)) + abs(np.sin(dense)))
    assert abs(value - oracle) < 1e-9


def test_minimize_beats_coarse_grid():
    h = lambda t: (t - 1.234) ** 2 if t < math.pi else (2.0 * math.pi - t + 0.1) ** 2
    value = minimize_on_circle(h)
    grid = 2.0 * math.pi * np.arange(64) / 64
    assert value <= min(h(t) for t in grid) + 1e-15


def test_minimize_rejects_nonfinite():
    with pytest.raises(ValueError, match="objective not finite"):
        minimize_on_circle(lambda t: math.nan)
