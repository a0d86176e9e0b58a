"""Majorant calculus for derivative growth near the boundary.

A majorant is a nonincreasing radial bound Phi with |f'(r e^{i theta})| <=
Phi(1 - r) near the boundary.  This module verifies such bounds on grids,
tests the log-weighted integrability conditions, produces the 3 * int Phi
modulus bound, and checks the Poisson-kernel inequality of the lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc_analysis import UnitDiscFunction, derivative_at, row_norms
from .numerics import QuadratureResult, integrate_log_moment, log_scale

# verify_majorant's angles; its radii depend on the majorant window r0.
_VERIFY_THETAS = 2.0 * math.pi * np.arange(32) / 32
# verify_majorant's worst point is the first one this close, relative to
# max(1, |max violation|), to the max violation.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Majorant:
    """Nonincreasing Phi: (0, r0) -> [0, inf].

    Monotonicity is the lemma's hypothesis and the caller's to ensure; no
    computation here reads it, so it is not checked.  Phi may return
    math.inf at arguments approaching 0 -- all integrals here treat 0 as an
    open endpoint.  Every integral of Phi runs on the scale u = log(1/x)
    through ``log_form(u) = log(Phi(e^-u) e^-u)``; a closed form keeps it
    exact far beyond where e^-u underflows, and without one it is read off
    ``evaluate`` by :func:`numerics.log_scale`.
    """

    evaluate: Callable[[float], float]
    r0: float
    log_form: Callable[[float], float] | None = None

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("r0 must lie in (0, 1)")
        if self.log_form is None:
            object.__setattr__(self, "log_form", log_scale(self.evaluate, 1))

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    @classmethod
    def constant(cls, value: float, r0: float) -> "Majorant":
        log_value = math.log(value) if value > 0.0 else -math.inf
        return cls(lambda x: value, r0, lambda u: log_value - u)


@dataclass(frozen=True)
class DerivMajorantFamily:
    """The geodesic-pipeline majorant Phi(x) = (K1/x) (log(K2/x))^(-1/alpha)."""

    K1: float
    K2: float
    alpha: float
    r0: float

    def __post_init__(self):
        if self.K1 <= 0.0 or self.K2 <= 0.0 or self.alpha <= 0.0:
            raise ValueError("K1, K2, alpha must be positive")
        if not 0.0 < self.r0 < min(1.0, self.K2):
            raise ValueError("need r0 in (0, min(1, K2))")
        object.__setattr__(self, "_log_K1", math.log(self.K1))
        object.__setattr__(self, "_log_K2", math.log(self.K2))

    def evaluate(self, x: float) -> float:
        if x <= 0.0:
            return math.inf
        if x >= self.K2:
            raise ValueError("argument outside majorant domain")
        return (self.K1 / x) * math.log(self.K2 / x) ** (-1.0 / self.alpha)

    def log_form(self, u: float) -> float:
        # log(Phi(e^-u) e^-u) without forming e^-u
        return self._log_K1 - math.log(self._log_K2 + u) / self.alpha


@dataclass(frozen=True)
class MajorantReport:
    max_violation: float
    worst_r: float
    worst_theta: float

    def verified(self, slack: float = 1e-12) -> bool:
        return self.max_violation <= slack


def verify_majorant(f: UnitDiscFunction, phi) -> MajorantReport:
    """Max over the grid of ||f'(r e^{i theta})|| - Phi(1 - r).

    The grid is 24 radii with 1 - r geometric from 0.999 r0 down to
    1e-4 r0, times 32 equispaced angles; a radius that rounds to 1 or out
    of the window (1 - r0, 1) is left out, and a window with no radius
    left is rejected.  A nonpositive ``max_violation`` means the majorant
    hypothesis holds on the grid.
    """
    r0 = phi.r0
    radii = 1.0 - np.geomspace(r0 * 0.999, r0 * 1e-4, 24)
    radii = radii[(1.0 - r0 < radii) & (radii < 1.0)]
    if radii.size == 0:
        raise ValueError(f"majorant window r0 = {r0!r} is too narrow to sample below 1")
    caps = np.array([phi.evaluate(1.0 - float(r)) for r in radii])
    zeta = np.multiply.outer(radii, np.cos(_VERIFY_THETAS) + 1j * np.sin(_VERIFY_THETAS))
    violations = row_norms(derivative_at(f, zeta.ravel())) - np.repeat(caps, len(_VERIFY_THETAS))
    # none when all are -inf or nan
    violations = np.where(np.isnan(violations), -np.inf, violations)
    largest = float(np.max(violations))
    if not largest > -math.inf:
        return MajorantReport(-math.inf, 0.0, 0.0)
    # the first grid point within a rounding tie of the largest, so that
    # last-bit noise on a circle where |f'| is constant cannot move it
    floor = largest - _TIE_TOL * max(1.0, abs(largest)) if largest < math.inf else largest
    worst = int(np.argmax(violations >= floor))
    r, theta = divmod(worst, len(_VERIFY_THETAS))
    return MajorantReport(largest, float(radii[r]), float(_VERIFY_THETAS[theta]))


# The relative increment tolerances of phi_log_l1 and of omega_bound
_L1_TOL = 1e-9
_BOUND_TOL = 1e-10


def phi_log_l1(phi, n: int) -> QuadratureResult:
    """int_0^{r0} (log(1/x))^n Phi(x) dx with the divergence verdict.

    On the log scale this is int u^n e^{log_form(u)} du over
    (log(1/r0), inf), which resolves power-law log tails.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return integrate_log_moment(phi.log_form, n, math.log(1.0 / phi.r0), _L1_TOL)


def omega_bound(phi, delta: float) -> float:
    """The modulus bound 3 * int_0^delta Phi(x) dx; inf when divergent."""
    if not 0.0 <= delta < phi.r0:
        raise ValueError("delta must lie in [0, r0)")
    if delta == 0.0:
        return 0.0
    res = integrate_log_moment(phi.log_form, 0, math.log(1.0 / delta), _BOUND_TOL)
    return 3.0 * res.value if res.converged else math.inf


def kernel_bound_check(r: float, tau: float) -> bool:
    """r^2 - 2 r cos(tau) + 1 >= (1 - r)^2 + (tau/pi)^2 on the validity region."""
    if not 0.25 < r < 1.0 or not 0.0 <= tau <= math.pi:
        raise ValueError("outside validity region")
    lhs = r * r - 2.0 * r * math.cos(tau) + 1.0
    rhs = (1.0 - r) ** 2 + (tau / math.pi) ** 2
    return lhs >= rhs - 1e-14
