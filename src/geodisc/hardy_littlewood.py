"""Majorant calculus for derivative growth near the boundary.

A majorant is a nonincreasing radial bound Phi with |f'(r e^{i theta})| <=
Phi(1 - r) near the boundary.  This module verifies such bounds on grids,
tests the log-weighted integrability conditions, produces the 3 * int Phi
modulus bound and its piecewise extension, inverts a modulus into a
majorant through the Cauchy kernel, and checks the kernel inequality that
makes the inversion work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .disc_analysis import UnitDiscFunction, derivative_at, row_norms
from .numerics import QuadratureResult, integrate_endpoint, integrate_log_moment, log_scale

_MONOTONICITY_GRID = 256
# verify_majorant's angles; its radii depend on the majorant window r0.
_VERIFY_THETAS = 2.0 * math.pi * np.arange(32) / 32


@dataclass(frozen=True)
class Majorant:
    """Nonincreasing Phi: (0, r0) -> [0, inf].

    Monotonicity is verified on a log grid at construction, not assumed;
    a failure only clears the flag.  Phi may return math.inf at arguments
    approaching 0 -- all integrals here treat 0 as an open endpoint.
    Every integral of Phi runs on the scale u = log(1/x) through
    ``log_form(u) = log(Phi(e^-u) e^-u)``; a closed form keeps it exact far
    beyond where e^-u underflows, and without one it is read off
    ``evaluate`` by :func:`numerics.log_scale`.
    """

    evaluate: Callable[[float], float]
    r0: float
    log_form: Callable[[float], float] | None = None
    nonincreasing: bool = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("r0 must lie in (0, 1)")
        xs = np.geomspace(self.r0 * 1e-6, self.r0 * (1.0 - 1e-9), _MONOTONICITY_GRID)
        values = [self.evaluate(float(x)) for x in xs]
        ok = all(
            a >= b - 1e-12 * max(1.0, abs(b))
            for a, b in zip(values, values[1:])
            if math.isfinite(a) and math.isfinite(b)
        )
        object.__setattr__(self, "nonincreasing", ok)
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
    # the first largest violation in grid order; none when all are -inf or nan
    worst = int(np.argmax(np.where(np.isnan(violations), -np.inf, violations)))
    if not violations[worst] > -math.inf:
        return MajorantReport(-math.inf, 0.0, 0.0)
    r, theta = divmod(worst, len(_VERIFY_THETAS))
    return MajorantReport(
        float(violations[worst]), float(radii[r]), float(_VERIFY_THETAS[theta])
    )


def phi_log_l1(
    phi,
    n: int,
    tol: float = 1e-9,
    max_levels: int = 400,
) -> QuadratureResult:
    """int_0^{r0} (log(1/x))^n Phi(x) dx with the divergence verdict.

    On the log scale this is int u^n e^{log_form(u)} du over
    (log(1/r0), inf), which resolves power-law log tails.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return integrate_log_moment(phi.log_form, n, math.log(1.0 / phi.r0), tol, max_levels)


def omega_bound(phi, delta: float, tol: float = 1e-10, max_levels: int = 400) -> float:
    """The modulus bound 3 * int_0^delta Phi(x) dx; inf when divergent."""
    if not 0.0 <= delta < phi.r0:
        raise ValueError("delta must lie in [0, r0)")
    if delta == 0.0:
        return 0.0
    res = integrate_log_moment(phi.log_form, 0, math.log(1.0 / delta), tol, max_levels)
    return 3.0 * res.value if res.converged else math.inf


def varpi(
    phi,
    boundary_sup: float,
    delta: float,
    tol: float = 1e-10,
) -> float:
    """Piecewise modulus majorant: 3 int_0^delta Phi below r0, else twice the
    boundary sup.  Need not be continuous at r0."""
    if boundary_sup < 0.0:
        raise ValueError("boundary_sup must be nonnegative")
    if not 0.0 <= delta <= math.pi:
        raise ValueError("delta out of range")
    if delta < phi.r0:
        return omega_bound(phi, delta, tol)
    return 2.0 * boundary_sup


def majorant_from_modulus(
    omega: Callable[[float], float],
    r: float,
    tol: float = 1e-10,
    max_levels: int = 80,
) -> float:
    """(1/pi) int_0^pi omega(tau) / (r^2 - 2 r cos(tau) + 1) dtau.

    This is the majorant value Phi(1 - r) reconstructed from a boundary
    modulus of continuity.  The kernel peaks at width 1 - r near tau = 0,
    which the endpoint-refined panels resolve; inf when they do not
    converge within ``max_levels``.
    """
    if not 0.25 < r < 1.0:
        raise ValueError("outside validity region")
    # r^2 - 2 r cos(tau) + 1 in the form without cancellation at r ~ 1, tau ~ 0
    res = integrate_endpoint(
        lambda tau: omega(tau) / ((1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * tau) ** 2),
        0.0,
        math.pi,
        tol,
        max_levels,
    )
    return res.value / math.pi if res.converged else math.inf


def kernel_bound_check(r: float, tau: float) -> bool:
    """r^2 - 2 r cos(tau) + 1 >= (1 - r)^2 + (tau/pi)^2 on the validity region."""
    if not 0.25 < r < 1.0 or not 0.0 <= tau <= math.pi:
        raise ValueError("outside validity region")
    lhs = r * r - 2.0 * r * math.cos(tau) + 1.0
    rhs = (1.0 - r) ** 2 + (tau / math.pi) ** 2
    return lhs >= rhs - 1e-14
