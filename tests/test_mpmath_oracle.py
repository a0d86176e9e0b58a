"""Log-scale integrals against mpmath quadrature of the same integrands.

``phi_log_l1``, ``log_dini_test`` and ``pz_bound`` all integrate u^n
e^{L(u)} on the scale u = log(1/x); mpmath's tanh-sinh rule on the same
integrand, at 30 digits, is an oracle independent of the package's
geometric Gauss-Legendre refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from geodisc.disc_analysis import ModulusFamily, log_dini_test, pz_bound
from geodisc.hardy_littlewood import DerivMajorantFamily, phi_log_l1

mp = pytest.importorskip("mpmath")
mp.mp.dps = 30

REL = 1e-8


def log_moment(log_f, n: int, lower: float) -> float:
    """int_lower^inf u^n e^{log_f(u)} du with mpmath; log_f takes mpf."""
    f = lambda u: u**n * mp.exp(log_f(u))
    return float(mp.quad(f, [lower, lower + 1, lower + 10, mp.inf]))


@pytest.mark.parametrize("n, alpha", [(0, 0.25), (0, 0.5), (1, 0.2), (1, 0.25), (2, 0.15)])
def test_phi_log_l1_matches_mpmath(n, alpha):
    fam = DerivMajorantFamily(K1=1.3, K2=math.e, alpha=alpha, r0=0.5)
    expected = log_moment(
        lambda u: mp.log(fam.K1) - mp.log(mp.log(fam.K2) + u) / fam.alpha,
        n,
        mp.log(1 / mp.mpf(fam.r0)),
    )
    res = phi_log_l1(fam, n)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=REL)


MODULI = {
    "holder 1": (ModulusFamily.holder(1.0), lambda u: -u),
    "holder 0.4": (ModulusFamily.holder(0.4), lambda u: -0.4 * u),
    "stretched 1, 0.5": (ModulusFamily.stretched_exponential(1.0, 0.5), lambda u: -mp.sqrt(max(u, 0))),
    "stretched 2, 0.3": (
        ModulusFamily.stretched_exponential(2.0, 0.3),
        lambda u: -2 * max(u, 0) ** mp.mpf(0.7),
    ),
}


@pytest.mark.parametrize("name", sorted(MODULI))
def test_log_dini_values_match_mpmath(name):
    omega, log_omega = MODULI[name]
    report = log_dini_test(omega, n_max=4)
    assert report.log_dini
    for n, res in enumerate(report.results):
        assert res.value == pytest.approx(log_moment(log_omega, n, 0), rel=REL), n


def test_log_dini_plain_callable_matches_mpmath():
    report = log_dini_test(lambda x: math.sqrt(x), n_max=3)
    for n, res in enumerate(report.results):
        assert res.value == pytest.approx(log_moment(lambda u: -u / 2, n, 0), rel=REL), n


@pytest.mark.parametrize("a", [1.0, 0.4])
@pytest.mark.parametrize("delta", [0.01, 0.3, 1.5])
def test_pz_bound_holder_matches_mpmath(a, delta):
    near = log_moment(lambda u: -a * u, 0, mp.log(1 / mp.mpf(delta)))
    far = float(mp.quad(lambda x: x ** (a - 2), [delta, 1, mp.pi]))
    K = 1.5
    expected = K * (near + delta * far)
    assert pz_bound(ModulusFamily.holder(a), delta, K) == pytest.approx(expected, rel=REL)


@pytest.mark.parametrize("name", ["stretched 1, 0.5", "stretched 2, 0.3"])
@pytest.mark.parametrize("delta", [0.01, 0.3, 0.9, 1.5])
def test_pz_bound_stretched_matches_mpmath(name, delta):
    # the capped models have a cusp at x = 1, omega ~ 1 - c sqrt(1 - x), and
    # are 1 above it
    omega, log_omega = MODULI[name]
    edge = min(delta, 1.0)
    near = log_moment(log_omega, 0, mp.log(1 / mp.mpf(edge))) + mp.log(delta / edge)
    breaks = [delta, 1, mp.pi] if delta < 1 else [delta, mp.pi]
    far = mp.quad(lambda x: mp.exp(log_omega(-mp.log(x))) / x**2, breaks)
    expected = float(near + delta * far)
    assert pz_bound(omega, delta, 1.0) == pytest.approx(expected, rel=REL)


@dataclass(frozen=True)
class HeldModulus:
    """omega up to delta and held at omega(delta) above it, so that the far
    integral of pz_bound is the constant omega(delta) (1/delta - 1/pi)."""

    omega: ModulusFamily
    delta: float

    def __call__(self, x: float) -> float:
        return self.omega(min(x, self.delta))

    def log_modulus(self, u: float) -> float:
        return self.omega.log_modulus(max(u, -math.log(self.delta)))


@pytest.mark.parametrize("name", ["stretched 1, 0.5", "stretched 2, 0.3"])
@pytest.mark.parametrize("delta", [0.01, 0.3])
def test_pz_bound_near_integral_matches_mpmath(name, delta):
    omega, log_omega = MODULI[name]
    held = HeldModulus(omega, delta)
    near = log_moment(log_omega, 0, mp.log(1 / mp.mpf(delta)))
    expected = near + delta * omega(delta) * (1.0 / delta - 1.0 / math.pi)
    assert pz_bound(held, delta, 1.0) == pytest.approx(expected, rel=REL)
