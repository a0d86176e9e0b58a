"""The one rule for scaling before squaring.

``numerics.power_of_two_scaled`` decides which power of two a vector is
divided by before its entries are squared: for the Euclidean norms of
``convex_geometry`` and ``kobayashi``, for ``disc_analysis.row_norms``, for
the modulus sweep and for the radial tails of ``boundary_samples``.  A power
of two scales exactly while every entry stays normal, so each of them obeys
the law norm(2^k x) = 2^k norm(x) to the last bit wherever every squared
entry stays normal, and the Cauchy flags of the tails do not move.  Every
log-scale integral of the package runs through
``numerics.integrate_log_moment``, which reruns an order whose result falls
below the normal range on its density lifted by 2^1022, so the log moments
of 2^k times a density are 2^k times its own to rounding.  The guard keeps
every choice of a power of two in ``numerics``: that rule and that lift.
The source is parsed, not imported.
"""

from __future__ import annotations

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geodisc.convex_geometry import Ball
from geodisc.disc_analysis import (
    BoundarySamples,
    UnitDiscFunction,
    boundary_samples,
    modulus_profile,
    row_norms,
    stack_components,
)
from geodisc.kobayashi import MetricBounds, graham_bounds, nonextending_geodesic
from geodisc.numerics import integrate_log_moment, power_of_two_scaled

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geodisc"
TINY = np.finfo(float).tiny
# graham_bounds at the centre of the unit ball: ||v|| / 2 and ||v||
BALL = Ball(np.zeros(2), 1.0)


def _name(node: ast.AST) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def _is_log_of_two(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and _name(node.func) == "log" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 2)


def power_of_two_choices() -> list[str]:
    """Where a module outside numerics picks an exponent: a call of frexp
    or log2, or a division by log 2 (an exponent read off a log)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and _name(node.func) in ("frexp", "log2")
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and _is_log_of_two(node.right)):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_powers_of_two_are_chosen_only_in_numerics():
    assert power_of_two_choices() == []


def _monomial_samples(degree: int, modulus: float, angle: float, n: int) -> np.ndarray:
    c = cmath.rect(modulus, angle)
    f = UnitDiscFunction(lambda z: stack_components(z, c * z**degree), 1)
    return boundary_samples(f, n).values


def _scaled(x: np.ndarray, k: int) -> np.ndarray:
    y = np.empty_like(x)
    y.real, y.imag = np.ldexp(x.real, k), np.ldexp(x.imag, k)
    return y


def _exact(x: np.ndarray, k: int) -> np.ndarray:
    """Per row of x: 2^k x is exact, every part of it a normal double or 0."""
    back = _scaled(_scaled(x, k), -k)
    return np.all((back.real == x.real) & (back.imag == x.imag), axis=-1)


def _squares_stay_normal(y: np.ndarray) -> np.ndarray:
    """Per row of y: the squares row_norms adds are normal or 0.  They are
    those of y's own parts, unless their sum is no normal double, and then
    those of the row scaled to a largest part in [1/2, 1), normal here as
    no part lies 2^500 below the largest."""
    with np.errstate(over="ignore", under="ignore"):
        squares = np.concatenate([y.real, y.imag], axis=-1) ** 2
        total = squares.sum(axis=-1)
    normal = (squares == 0.0) | ((squares >= TINY) & (squares < math.inf))
    return normal.all(axis=-1) | ~((total >= TINY) & (total < math.inf))


MONOMIAL = dict(
    degree=st.integers(1, 6),
    modulus=st.floats(0.1, 1.0),
    angle=st.floats(-math.pi, math.pi),
    half_n=st.integers(4, 150),
    k=st.integers(-1000, 1000),
)


@settings(max_examples=150, deadline=None)


@given(**MONOMIAL)


def test_row_and_vector_norms_scale_by_powers_of_two(degree, modulus, angle, half_n, k):
    x = _monomial_samples(degree, modulus, angle, 2 * half_n).reshape(-1, 2)
    y = _scaled(x, k)
    rows = _exact(x, k)
    assume(rows.any())
    kept = rows & _squares_stay_normal(y)
    assert np.array_equal(row_norms(y)[kept], np.ldexp(row_norms(x), k)[kept])
    for u, v in zip(x[rows], y[rows]):
        bounds, scaled = (graham_bounds(BALL, [0.0, 0.0], w) for w in (u, v))
        assert scaled == MetricBounds(math.ldexp(bounds.lower, k), math.ldexp(bounds.upper, k))


@settings(max_examples=150, deadline=None)


@given(**MONOMIAL)


def test_modulus_profile_scales_by_powers_of_two(degree, modulus, angle, half_n, k):
    values = _monomial_samples(degree, modulus, angle, 2 * half_n)
    assume(_exact(values, k).all())
    n, deltas = len(values), [1.0, 2.0, 3.0]
    profile = modulus_profile(BoundarySamples(n, values, 1.0), deltas)
    scaled = modulus_profile(BoundarySamples(n, _scaled(values, k), 1.0), deltas)
    assert np.array_equal(scaled.deltas, profile.deltas)
    assert np.array_equal(scaled.omegas, np.ldexp(profile.omegas, k))


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])


@pytest.mark.parametrize("f", [
    UnitDiscFunction(lambda z: stack_components(z, (0.7 + 0.2j) * z**3), 1),
    nonextending_geodesic().map,
], ids=["monomial", "nonextending"])


def test_cauchy_fraction_does_not_depend_on_scale(f, k):
    # the radial tails are compared after scaling by the one rule; with the
    # absolute tolerance 1e-6 alone, 2^600 f read 0.0
    scaled = UnitDiscFunction(lambda z: _scaled(f.evaluate(z), k), f.dimension)
    fraction = boundary_samples(f, 256).cauchy_fraction
    assert boundary_samples(scaled, 256).cauchy_fraction == fraction


@settings(max_examples=150, deadline=None)


@given(
    a=st.floats(0.3, 3.0),
    lower=st.sampled_from([0.0, 3.0, math.log(20.0)]),
    k=st.integers(-1074, 0),
)
@example(a=0.5518340337515073, lower=3.0, k=-1072)


def test_log_moments_scale_by_powers_of_two(a, lower, k):
    # int u^n 2^k e^(-a u) du = 2^k int u^n e^(-a u) du to rounding: 1e-12
    # relative, plus the unit 2^-1074 that a result below the normal range
    # rounds to.  Without the rerun the example reads 5 units off
    unit = math.ldexp(1.0, -1074)
    scaled = integrate_log_moment(lambda u: k * math.log(2.0) - a * u, range(4), lower)
    plain = integrate_log_moment(lambda u: -a * u, range(4), lower)
    for s, p in zip(scaled, plain, strict=True):
        want = math.ldexp(p.value, k)
        assert s.converged and p.converged
        assert abs(s.value - want) <= 1e-12 * want + unit


def abs_scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """power_of_two_scaled with its largest part read off the absolute
    values, as the rule was first written."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    top = np.abs(parts).max(axis=-1, initial=0.0)
    inside = (2.0**-480 <= top) & (top <= 2.0**480)
    if inside.all():
        return values, np.zeros(top.shape, int)
    e = np.where(inside, 0, np.frexp(top)[1])
    half = e[..., None] // 2
    w = np.array(values).view(float) * np.ldexp(1.0, -half) * np.ldexp(1.0, half - e[..., None])
    return w.view(values.dtype), e


EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-200, 0.75, -3.0, 1e200,
              -1.7e308, math.inf, -math.inf, math.nan]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 5), width=st.integers(1, 3), data=st.data())
def test_largest_part_from_max_and_min_keeps_the_scaling(rows, width, data):
    parts = data.draw(st.lists(st.sampled_from(EDGE_PARTS), min_size=2 * rows * width,
                               max_size=2 * rows * width))
    values = np.array(parts).view(complex).reshape(rows, width)
    w, e = power_of_two_scaled(values)
    expected_w, expected_e = abs_scaled(values)
    assert np.array_equal(e, expected_e)
    assert np.array_equal(w.view(np.uint64), expected_w.view(np.uint64))
