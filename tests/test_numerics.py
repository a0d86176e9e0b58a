"""Kernel tests: quadrature verdicts, bisection, circle minimization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import numerics
from geodisc.numerics import (
    integrate_endpoint,
    integrate_log_moment,
    minimize_on_circle,
    solve_monotone,
)


def test_constant_integrand_converges():
    res = integrate_endpoint(lambda x: 1.0, 0.0, 1.0, 1e-10)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9
    assert res.estimated_error >= 0.0


def test_log_singularity_integrates_to_one():
    # int_0^1 log(1/x) dx = 1
    res = integrate_endpoint(lambda x: math.log(1.0 / x), 0.0, 1.0, 1e-11)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9


def partial_sums(monkeypatch, f, a, b, budgets) -> list[float]:
    """The values integrate_endpoint returns under each level budget."""
    values = []
    for levels in budgets:
        monkeypatch.setattr(numerics, "_MAX_LEVELS", levels)
        values.append(integrate_endpoint(f, a, b, 1e-30).value)
    return values


def test_log_divergent_integrand_flagged(monkeypatch):
    # int_0 dx / (x log(1/x)) diverges like log log; partial sums keep
    # growing monotonically without Cauchy behaviour.
    f = lambda x: 1.0 / (x * math.log(1.0 / x))
    res = integrate_endpoint(f, 0.0, 0.5, 1e-10)
    assert not res.converged

    # doubling-refinement oracle: partial values grow monotonically with the
    # refinement budget
    partials = partial_sums(monkeypatch, f, 0.0, 0.5, (10, 20, 40, 80))
    assert all(b > a for a, b in zip(partials, partials[1:]))


def test_partial_sums_nondecreasing_for_nonnegative_integrand(monkeypatch):
    f = lambda x: 1.0 / math.sqrt(x)
    values = partial_sums(monkeypatch, f, 0.0, 1.0, range(4, 40, 4))
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty interval"):
        integrate_endpoint(lambda x: 1.0, 1.0, 1.0, 1e-8)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError, match="integrand not finite"):
        integrate_endpoint(lambda x: math.inf, 0.0, 1.0, 1e-8)


def test_singularity_at_positive_endpoint_diverges():
    # int_a (x - a)^-1.5 dx diverges; once the cutoff reaches the spacing of
    # doubles at a, further panels are empty and prove nothing
    res = integrate_endpoint(lambda x: (x - 0.1) ** -1.5 if x > 0.1 else 0.0, 0.1, 1.0, 1e-9)
    assert not res.converged


def test_log_moment_gamma_values():
    # int_0^inf u^n e^-u du = n!
    for n in (0, 1, 3, 6):
        res = integrate_log_moment(lambda u: -u, n, 0.0, 1e-10)
        assert res.converged
        assert abs(res.value - math.factorial(n)) < 1e-7 * math.factorial(n)


def test_log_moment_harmonic_diverges():
    res = integrate_log_moment(lambda u: -math.log(1.0 + u), 0, 0.0, 1e-9)
    assert not res.converged


def test_bisection_square_root():
    res = solve_monotone(lambda x: x * x, 0.0, 3.0, 4.0, 1e-12)
    assert abs(res.root - 2.0) < 1e-11
    assert res.bracket_width <= 2e-12


def test_bisection_exp_shift():
    # g(x) = e^{-1/x} + x is strictly increasing on (0, 0.2]
    g = lambda x: math.exp(-1.0 / x) + x
    res = solve_monotone(g, 1e-6, 0.2, 0.1, 1e-12)

    # independent bisection oracle
    lo, hi = 1e-6, 0.2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.1:
            lo = mid
        else:
            hi = mid
    assert abs(res.root - 0.5 * (lo + hi)) < 1e-10
    assert abs(res.root - 0.09995) < 1e-4


def test_bisection_requires_bracket():
    with pytest.raises(ValueError, match="target not bracketed"):
        solve_monotone(lambda x: x, 0.0, 1.0, 5.0, 1e-10)


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_bisection_residual_on_monotone_cubics(scale, shift):
    g = lambda x: scale * x**3 + x + shift
    target = g(0.3)
    res = solve_monotone(g, -1.0, 1.0, target, 1e-11)
    assert abs(res.root - 0.3) < 1e-9
    assert abs(res.residual) <= 1e-10


def test_minimize_cosine_well():
    theta, value = minimize_on_circle(lambda t: 2.0 + math.cos(t))
    assert abs(theta - math.pi) < 1e-8
    assert abs(value - 1.0) < 1e-12


def test_minimize_constant_tie_breaks_to_zero():
    theta, value = minimize_on_circle(lambda t: 5.0)
    assert theta == 0.0
    assert value == 5.0


def test_minimize_taxicab_norm_tie_break():
    h = lambda t: abs(math.cos(t)) + abs(math.sin(t))
    theta, value = minimize_on_circle(h)

    # dense scan oracle: minima at multiples of pi/2, all with value 1
    dense = np.linspace(0.0, 2.0 * math.pi, 100001)
    oracle = min(abs(np.cos(dense)) + abs(np.sin(dense)))
    assert abs(value - oracle) < 1e-9
    assert theta == 0.0  # smallest-theta tie break


def test_minimize_beats_coarse_grid():
    h = lambda t: (t - 1.234) ** 2 if t < math.pi else (2.0 * math.pi - t + 0.1) ** 2
    theta, value = minimize_on_circle(h)
    grid = 2.0 * math.pi * np.arange(64) / 64
    assert value <= min(h(t) for t in grid) + 1e-15


def test_minimize_rejects_nonfinite():
    with pytest.raises(ValueError, match="objective not finite"):
        minimize_on_circle(lambda t: math.nan)
