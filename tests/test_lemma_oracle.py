"""The paper's Hardy--Littlewood-type lemma as an end-to-end oracle.

If |f'(z)| <= Phi(1 - |z|) near the circle with Phi integrable, the
boundary modulus of f at delta is at most 3 int_0^delta Phi.  Whenever
``hl-verify`` accepts Phi for f, the ``mod-cont`` omega must therefore stay
under the ``hl-bound`` value, so a regression in boundary sampling, the
modulus kernel or the quadrature that breaks the lemma fails here.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import cli
from geodisc.disc_analysis import (
    UnitDiscFunction,
    boundary_samples,
    modulus_profile,
    stack_components,
)
from geodisc.hardy_littlewood import Majorant, omega_bound, verify_majorant

MOD_CONT_N = 1024
PROFILE_N = 8192

R0 = st.floats(0.05, 0.9)
ANGLE = st.floats(-math.pi, math.pi)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lemma")


def _result(out_dir, command, cfg):
    out = out_dir / "report.json"
    assert cli.run(command, {**cfg, "out": str(out)}) == 0
    return json.loads(out.read_text())["result"]


def _check_lemma_through_cli(out_dir, function, coefficient, r0, deltas):
    """``function`` has |f'| <= ``coefficient`` on the disc."""
    majorant = {"kind": "power", "r0": r0, "coefficient": coefficient, "exponent": 0.0}
    verdict = _result(out_dir, "hl-verify", {"function": function, "majorant": majorant})
    assert verdict["verified"]
    profile = _result(
        out_dir, "mod-cont", {"function": function, "n": MOD_CONT_N, "deltas": deltas}
    )
    assert profile["deltas"]
    for delta, omega in zip(profile["deltas"], profile["omegas"]):
        bound = _result(out_dir, "hl-bound", {"majorant": majorant, "delta": delta})
        assert omega <= bound["omega_bound"]
        # the mean-value bound, which the lemma relaxes by its factor 3
        assert omega <= coefficient * delta * (1.0 + 1e-12)


def _three_deltas_below(r0):
    # at least one grid step of the 1024-node circle, 2 pi / 1024 ~ 0.0061
    return st.lists(st.floats(0.01, r0, exclude_max=True), min_size=3, max_size=3)


def _monomial_derivative_cap(degree, c):
    """A bound of sup |f'| = degree |c| for f = c z^degree that hl-verify
    can accept.  For normal |c|, degree * abs(c) is within rounding relative
    to itself.  Below the normal range abs(c) can round a third low, and
    the computed f' rounds each part to a unit 2^-1074 and its norm once
    more, so it can exceed the true |f'| by sqrt(2) + 1/2 units: the bound
    is degree |c| in exact units, rounded up, plus 2 units."""
    if abs(c) >= sys.float_info.min:
        return degree * abs(c)
    a, b = (int(math.ldexp(part, 1074)) for part in (c.real, c.imag))
    units = degree * degree * (a * a + b * b)
    return math.ldexp(math.isqrt(units - 1) + 3, -1074) if units else 0.0


def _monomial_sample_cap(degree, c):
    """:func:`_monomial_derivative_cap`, raised below the normal range by
    what rounding the samples c z^degree themselves costs.  Each part of
    such a sample is off by up to a unit 2^-1074 there, half a unit from
    each of its two products, so a difference of two samples by up to
    2 sqrt(2) units, and its norm rounds by half a unit more: omega can
    exceed |f'| delta by 2 sqrt(2) + 1/2 units, and the bound it meets,
    cap * delta, rounds down by up to a unit.  Every reported delta is at
    least one grid step 2 pi / n, so a cap raised by 5 units per step
    covers both.  For normal |c| the check's relative 1e-12 covers the
    samples' rounding: at one grid step that is about 28 units."""
    cap = _monomial_derivative_cap(degree, c)
    if abs(c) >= sys.float_info.min:
        return cap
    return cap + math.ldexp(math.ceil(5.0 * MOD_CONT_N / (2.0 * math.pi)), -1074)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(1, 6),
    modulus=st.floats(0.0, 1.5),
    angle=ANGLE,
    data=st.data(),
    r0=R0,
)
def test_monomials_obey_the_lemma_through_the_cli(out_dir, degree, modulus, angle, data, r0):
    c = cmath.rect(modulus, angle)
    function = {"kind": "monomial", "degree": degree, "coefficient": [c.real, c.imag]}
    deltas = data.draw(_three_deltas_below(r0))
    _check_lemma_through_cli(out_dir, function, _monomial_sample_cap(degree, c),
                             r0, deltas)


def test_a_tiny_monomial_obeys_the_lemma_through_the_cli(out_dir):
    # the sweep squared raw differences, which underflowed here: omega read
    # 1.0246 |c| delta, above the mean-value bound
    function = {"kind": "monomial", "degree": 1, "coefficient": 1e-159}
    _check_lemma_through_cli(out_dir, function, 1e-159, 0.5, [0.0062, 0.01, 0.02])


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.floats(0.0, 0.9),
    angle=ANGLE,
    phi=st.floats(-10.0, 10.0),
    data=st.data(),
    r0=R0,
)
def test_automorphisms_obey_the_lemma_through_the_cli(out_dir, modulus, angle, phi, data, r0):
    a = cmath.rect(modulus, angle)
    function = {"kind": "automorphism", "a": [a.real, a.imag], "phi": phi}
    coefficient = (1.0 + abs(a)) / (1.0 - abs(a))
    deltas = data.draw(_three_deltas_below(r0))
    _check_lemma_through_cli(out_dir, function, coefficient, r0, deltas)


@settings(max_examples=15, deadline=None)
@given(
    s=st.floats(0.05, 0.95),
    r0=R0,
    data=st.data(),
)
def test_holder_power_obeys_the_lemma(s, r0, data):
    """(1 - z)^s, whose derivative s (1 - z)^(s - 1) is bounded by
    Phi(x) = s x^(s - 1) since |1 - z| >= 1 - |z|; no CLI function kind
    builds it."""
    f = UnitDiscFunction(
        lambda z: stack_components(z, (1.0 - z) ** s),
        1,
        lambda z: stack_components(z, -s * (1.0 - z) ** (s - 1.0)),
    )
    phi = Majorant(lambda x: s * x ** (s - 1.0), r0, lambda u: math.log(s) - s * u)
    # |f'| = Phi exactly on the ray theta = 0, up to rounding relative to Phi
    assert verify_majorant(f, phi).verified()
    # at least one grid step of the 8192-node circle, 2 pi / 8192 ~ 0.00077
    deltas = data.draw(
        st.lists(st.floats(0.001, r0, exclude_max=True), min_size=5, max_size=5)
    )
    profile = modulus_profile(boundary_samples(f, PROFILE_N), deltas)
    bounds = np.array([omega_bound(phi, float(d)) for d in profile.deltas])
    assert np.all(profile.omegas <= bounds)
