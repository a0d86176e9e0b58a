"""Majorant calculus: verification, integrability verdicts, modulus bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geodisc import hardy_littlewood
from geodisc.disc_analysis import (
    ModulusFamily,
    boundary_samples,
    identity_map,
    modulus_of_continuity,
    scalar_function,
)
from geodisc.hardy_littlewood import (
    DerivMajorantFamily,
    Majorant,
    kernel_bound_check,
    omega_bound,
    phi_log_l1,
    verify_majorant,
)


def family_integral_oracle(fam: DerivMajorantFamily) -> float:
    """Closed form of int_0^{r0} Phi for alpha < 1.

    With u = log(K2/x) the antiderivative of u^{-1/alpha} is
    u^{1-1/alpha} / (1 - 1/alpha), so the integral telescopes to
    K1 (log(K2/r0))^{1 - 1/alpha} / (1/alpha - 1).
    """
    assert fam.alpha < 1.0
    p = 1.0 / fam.alpha - 1.0
    return fam.K1 * math.log(fam.K2 / fam.r0) ** (-p) / p


# --- verify_majorant --------------------------------------------------------

def test_identity_against_unit_majorant():
    report = verify_majorant(identity_map(), Majorant.constant(1.0, 0.5))
    assert report.max_violation == 0.0  # |f'| = 1 = Phi everywhere


def test_identity_against_half_majorant():
    report = verify_majorant(identity_map(), Majorant.constant(0.5, 0.5))
    assert abs(report.max_violation - 0.5) < 1e-12
    assert not report.verified()


def test_verify_majorant_uses_cauchy_derivative_without_analytic_one():
    f = scalar_function(lambda z: z * z)  # no derivative supplied
    report = verify_majorant(f, Majorant.constant(2.0, 0.5))
    assert report.max_violation <= 1e-10


def test_verify_majorant_tiny_window_stays_inside_disc():
    # 1 - 1e-4 r0 rounds to 1 for r0 below about 1e-12; such radii are left
    # out instead of rejecting the window
    report = verify_majorant(identity_map(), Majorant.constant(1.0, 1e-13))
    assert report.max_violation == 0.0
    assert 1.0 - 1e-13 < report.worst_r < 1.0


def test_verify_majorant_rejects_window_below_double_resolution():
    with pytest.raises(ValueError, match="r0 = 1e-17"):
        verify_majorant(identity_map(), Majorant.constant(1.0, 1e-17))


def test_verify_majorant_matches_per_point_grid_scan():
    # the first largest violation in grid order, radii outer, angles inner
    f = scalar_function(lambda z: z**3 + 0.2 * z, lambda z: 3.0 * z**2 + 0.2)
    phi = Majorant.constant(2.5, 0.4)
    worst = (-math.inf, 0.0, 0.0)
    for x in np.geomspace(0.4 * 0.999, 0.4 * 1e-4, 24):
        r = float(1.0 - x)
        for k in range(32):
            theta = 2.0 * math.pi * k / 32
            zeta = r * complex(math.cos(theta), math.sin(theta))
            violation = float(np.linalg.norm(f.derivative(zeta))) - phi(1.0 - r)
            if violation > worst[0]:
                worst = (violation, r, theta)
    report = verify_majorant(f, phi)
    assert (report.max_violation, report.worst_r, report.worst_theta) == worst


def test_verify_majorant_worst_point_survives_last_bit_noise(monkeypatch):
    # |f'| = 2r on each circle, so the 32 angles of the worst radius tie up
    # to rounding; the first of them is reported however the noise falls
    f = scalar_function(lambda z: z * z, lambda z: 2.0 * z)
    phi = Majorant.constant(1.0, 0.5)
    assert verify_majorant(f, phi).worst_theta == 0.0
    norms = hardy_littlewood.row_norms
    rng = np.random.default_rng(1)

    def noisy(values):
        exact = norms(values)
        return exact * (1.0 + 5e-16 * rng.choice([-1.0, 1.0], exact.shape))

    monkeypatch.setattr(hardy_littlewood, "row_norms", noisy)
    for _ in range(10):
        assert verify_majorant(f, phi).worst_theta == 0.0


# --- phi_log_l1 -------------------------------------------------------------

def test_constant_majorant_l1():
    res = phi_log_l1(Majorant.constant(1.0, 0.5), 0)
    assert res.converged
    assert abs(res.value - 0.5) < 1e-9


def test_family_l1_value_matches_antiderivative():
    fam = DerivMajorantFamily(K1=1.0, K2=math.e, alpha=0.5, r0=0.5)
    res = phi_log_l1(fam, 0)
    assert res.converged
    oracle = family_integral_oracle(fam)  # = 1 / (1 + log 2)
    assert abs(oracle - 1.0 / (1.0 + math.log(2.0))) < 1e-15
    assert abs(res.value - oracle) < 1e-8


def test_family_l1_near_alpha_one_includes_the_tail():
    # int_0^(1/2) (1/x) (log(e/x))^(-1/0.9) dx = 9 (1 + log 2)^(-1/9); the
    # partial sum without its geometric tail reads 1e-8 low
    res = phi_log_l1(DerivMajorantFamily(K1=1.0, K2=math.e, alpha=0.9, r0=0.5), 0)
    assert res.converged
    oracle = 9.0 * (1.0 + math.log(2.0)) ** (-1.0 / 9.0)
    assert abs(res.value - oracle) <= 1e-13 * oracle


def test_family_l1_diverges_at_alpha_one():
    fam = DerivMajorantFamily(K1=1.0, K2=math.e, alpha=1.0, r0=0.5)
    assert not phi_log_l1(fam, 0).converged


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 1.0, 1.5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_family_log_weighted_classification(alpha, n):
    # In u = log(K2/x) the integrand is u^n (log K2 + u)^{-1/alpha} du, a
    # power law with net exponent n - 1/alpha at infinity: it is integrable
    # exactly when n + 1 < 1/alpha.
    fam = DerivMajorantFamily(K1=1.0, K2=math.e, alpha=alpha, r0=0.5)
    expected = n + 1.0 < 1.0 / alpha
    assert phi_log_l1(fam, n).converged == expected


def test_majorant_generic_callable_route():
    # no closed log form: numerics.log_scale reads it off evaluate
    phi = Majorant(lambda x: math.exp(-1.0 / x), 0.5)
    res = phi_log_l1(phi, 1)
    assert res.converged
    dense = np.geomspace(1e-8, 0.5, 400000)
    oracle = np.trapezoid(np.log(1.0 / dense) * np.exp(-1.0 / dense), dense)
    assert abs(res.value - oracle) < 1e-6


@pytest.mark.parametrize(
    "phi",
    [
        lambda x: 1.0 / (x * math.log(1.0 / x)),
        lambda x: (1.0 / x) / math.log(1.0 / x),  # 1/x overflows near x = 5e-324
        lambda x: x**-1.01,  # overflows a double well before x underflows
    ],
    ids=["x_log", "x_then_log", "power_1.01"],
)
def test_divergent_plain_callable_majorant(phi):
    # on the log scale the densities are 1/u and e^{0.01 u}: not integrable
    maj = Majorant(phi, 0.5)
    assert not phi_log_l1(maj, 0).converged
    assert omega_bound(maj, 0.1) == math.inf


def test_barely_integrable_plain_callable_majorant():
    # x^-0.96 reaches e^680 at the smallest normal double; its log-scale
    # density e^{-0.04 u} has died out to 5e-13 there
    maj = Majorant(lambda x: x**-0.96, 0.5)
    assert omega_bound(maj, 0.1) == pytest.approx(3.0 * 0.1**0.04 / 0.04, rel=1e-8)


def test_modulus_family_as_majorant():
    # Phi is read off evaluate; the modulus's own log form (of omega, not of
    # omega(x) x) must not stand in for it
    maj = Majorant(ModulusFamily.holder(0.5), 0.5)
    assert omega_bound(maj, 0.1) == pytest.approx(3.0 * (2.0 / 3.0) * 0.1**1.5, rel=1e-8)


# --- omega_bound -------------------------------------------------------------

def test_omega_bound_constant():
    assert abs(omega_bound(Majorant.constant(1.0, 0.5), 0.1) - 0.3) < 1e-10


def test_omega_bound_linear_phi():
    phi = Majorant(lambda x: x, 0.5)  # not monotone; the bound still works
    assert abs(omega_bound(phi, 0.2) - 0.06) < 1e-9


def test_omega_bound_family_antiderivative():
    fam = DerivMajorantFamily(K1=1.0, K2=math.e, alpha=0.5, r0=0.5)
    expected = 3.0 / (1.0 + math.log(10.0))  # 3 (log(e/0.1))^{-1}
    assert abs(omega_bound(fam, 0.1) - expected) < 1e-8


def test_omega_bound_power_majorant_closed_form():
    # 3 int_0^delta x^(-1/2) / 2 dx = 3 sqrt(delta)
    phi = Majorant(lambda x: 0.5 / math.sqrt(x), 0.5, lambda u: math.log(0.5) - 0.5 * u)
    expected = 3.0 * math.sqrt(1e-3)
    assert abs(omega_bound(phi, 1e-3) - expected) <= 1e-13 * expected


def test_omega_bound_divergent_family_is_infinite():
    fam = DerivMajorantFamily(K1=1.0, K2=math.e, alpha=1.5, r0=0.5)
    assert omega_bound(fam, 0.1) == math.inf


# --- kernel inequality ------------------------------------------------------

def test_kernel_bound_equality_point():
    assert kernel_bound_check(0.5, 0.0)  # both sides 0.25


def test_kernel_bound_far_side():
    assert kernel_bound_check(0.9, math.pi)  # 3.61 >= 1.01


def test_kernel_bound_grid():
    rs = 0.25 + (np.arange(50) + 0.5) * 0.75 / 50
    taus = np.linspace(0.0, math.pi, 50)
    assert all(kernel_bound_check(float(r), float(t)) for r in rs for t in taus)


def test_kernel_bound_rejects_outside_region():
    with pytest.raises(ValueError, match="outside validity region"):
        kernel_bound_check(0.1, 1.0)
    with pytest.raises(ValueError, match="outside validity region"):
        kernel_bound_check(0.5, 4.0)


# --- round-trip consistency -------------------------------------------------

def test_round_trip_identity_unit_majorant():
    phi = Majorant.constant(1.0, 0.5)
    assert verify_majorant(identity_map(), phi).verified()
    samples = boundary_samples(identity_map(), 512)
    for delta in np.linspace(0.02, 0.45, 12):
        measured = modulus_of_continuity(samples, float(delta))
        bound = omega_bound(phi, float(delta))
        assert abs(bound - 3.0 * delta) < 1e-9
        assert measured <= bound + 1e-9


def test_round_trip_polynomial_pair():
    f = scalar_function(lambda z: z * z, lambda z: 2.0 * z)
    phi = Majorant(lambda x: 2.0 * (1.0 - x) if x < 1.0 else 0.0, 0.5)
    assert verify_majorant(f, phi).verified()
    samples = boundary_samples(f, 512)
    for delta in np.linspace(0.02, 0.45, 12):
        measured = modulus_of_continuity(samples, float(delta))
        assert measured <= omega_bound(phi, float(delta)) + 1e-6
