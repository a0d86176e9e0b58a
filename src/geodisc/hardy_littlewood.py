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
# verify_majorant's worst point is the first one this close to the max
# violation, relative to the larger of it and the largest finite |f'|.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Majorant:
    """Nonincreasing Phi: (0, r0) -> [0, inf].

    Monotonicity is the lemma's hypothesis and the caller's to ensure; no
    computation here reads it, so it is not checked.  Phi may return
    math.inf at arguments approaching 0 -- all integrals here treat 0 as an
    open endpoint.  Every integral of Phi runs on the scale u = log(1/x)
    through ``log_form(u) = log(Phi(e^-u) e^-u)``, which takes a 1-d float
    array of u and returns an array of the same shape.  A closed form keeps
    it exact far beyond where e^-u underflows; without one it is read off
    ``evaluate``, one point at a time, by the per-point adapter of
    :func:`numerics.log_scale`.  ``evaluate`` takes one float.
    """

    evaluate: Callable[[float], float]
    r0: float
    log_form: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("r0 must lie in (0, 1)")
        if self.log_form is None:
            object.__setattr__(self, "log_form", log_scale(self.evaluate, 1))

    @classmethod
    def power(cls, r0: float, coefficient: float, exponent: float) -> "Majorant":
        """Phi(x) = coefficient * x**exponent; exponent 0 is a constant."""
        if coefficient < 0.0:
            raise ValueError("power majorant coefficient must be nonnegative")
        log_coefficient = math.log(coefficient) if coefficient > 0.0 else -math.inf
        return cls(
            lambda x: coefficient * x**exponent,
            r0,
            lambda u: log_coefficient - (exponent + 1.0) * u,
        )

    @classmethod
    def family(cls, K1: float, K2: float, alpha: float, r0: float) -> "Majorant":
        """The pipeline's Phi(x) = (K1/x) (log(K2/x))^(-1/alpha), r0 < min(1, K2)."""
        if K1 <= 0.0 or K2 <= 0.0 or alpha <= 0.0:
            raise ValueError("K1, K2, alpha must be positive")
        if not 0.0 < r0 < min(1.0, K2):
            raise ValueError("need r0 in (0, min(1, K2))")

        def evaluate(x: float) -> float:
            if x <= 0.0:
                return math.inf
            if x >= K2:
                raise ValueError("argument outside majorant domain")
            return (K1 / x) * math.log(K2 / x) ** (-1.0 / alpha)

        # log(Phi(e^-u) e^-u) without forming e^-u
        return cls(evaluate, r0, lambda u: math.log(K1) - np.log(math.log(K2) + u) / alpha)


# The acceptance suite imports the pipeline's majorant under this name.
DerivMajorantFamily = Majorant.family


@dataclass(frozen=True)
class MajorantReport:
    """The largest violation ||f'|| - Phi(1 - r) on the grid and its point;
    ``scaled_violation`` is the largest violation divided by Phi at its own
    point, so that scaling f and Phi together does not move the verdict."""

    max_violation: float
    worst_r: float
    worst_theta: float
    scaled_violation: float

    def verified(self, slack: float = 1e-12) -> bool:
        """Each grid point's violation is at most slack * Phi there."""
        return self.scaled_violation <= slack


def verify_majorant(function: UnitDiscFunction, majorant: Majorant) -> MajorantReport:
    """Max over the grid of ||f'(r e^{i theta})|| - Phi(1 - r), for f =
    ``function`` and Phi = ``majorant``.

    The grid is 24 radii with 1 - r geometric from 0.999 r0 down to
    1e-4 r0, times 32 equispaced angles; a radius that rounds to 1 or out
    of the window (1 - r0, 1) is left out, and a window with no radius
    left is rejected.  A nonpositive ``max_violation`` means the majorant
    hypothesis holds on the grid.
    """
    r0 = majorant.r0
    radii = 1.0 - np.geomspace(r0 * 0.999, r0 * 1e-4, 24)
    radii = radii[(1.0 - r0 < radii) & (radii < 1.0)]
    if radii.size == 0:
        raise ValueError(f"majorant window r0 = {r0!r} is too narrow to sample below 1")
    caps = np.repeat([majorant.evaluate(1.0 - float(r)) for r in radii], len(_VERIFY_THETAS))
    zeta = np.multiply.outer(radii, np.cos(_VERIFY_THETAS) + 1j * np.sin(_VERIFY_THETAS))
    violations = (norms := row_norms(derivative_at(function, zeta.ravel()))) - caps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # Phi 0, inf or subnormal
        scaled = violations / caps
    # a nan is no violation; there are none when all are -inf or nan
    violations, scaled = (np.where(np.isnan(v), -np.inf, v) for v in (violations, scaled))
    largest = float(np.max(violations))
    if not largest > -math.inf:
        return MajorantReport(-math.inf, 0.0, 0.0, -math.inf)
    # the first grid point within a rounding tie of the largest, on its scale
    # and on that of |f'|, so that last-bit noise cannot move it
    scale = max(abs(largest), np.max(norms, initial=0.0, where=np.isfinite(norms)))
    floor = largest - _TIE_TOL * scale if largest < math.inf else largest
    worst = int(np.argmax(violations >= floor))
    r, theta = divmod(worst, len(_VERIFY_THETAS))
    return MajorantReport(
        largest, float(radii[r]), float(_VERIFY_THETAS[theta]), float(np.max(scaled))
    )


def phi_log_l1(majorant: Majorant, n: int) -> QuadratureResult:
    """int_0^{r0} (log(1/x))^n Phi(x) dx for Phi = ``majorant``, with the
    divergence verdict.

    On the log scale this is int u^n e^{log_form(u)} du over
    (log(1/r0), inf), which resolves power-law log tails.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return integrate_log_moment(majorant.log_form, [n], -math.log(majorant.r0))[0]


def omega_bound(majorant: Majorant, delta: float) -> float:
    """The modulus bound 3 * int_0^delta Phi(x) dx; inf when divergent."""
    if not 0.0 <= delta < majorant.r0:
        raise ValueError("delta must lie in [0, r0)")
    if delta == 0.0:
        return 0.0
    (res,) = integrate_log_moment(majorant.log_form, [0], -math.log(delta))
    return 3.0 * res.value if res.converged else math.inf


def kernel_bound_check(r: float, tau: float) -> bool:
    """r^2 - 2 r cos(tau) + 1 >= (1 - r)^2 + (tau/pi)^2 on the validity region."""
    if not 0.25 < r < 1.0 or not 0.0 <= tau <= math.pi:
        raise ValueError("outside validity region")
    lhs = r * r - 2.0 * r * math.cos(tau) + 1.0
    rhs = (1.0 - r) ** 2 + (tau / math.pi) ** 2
    return lhs >= rhs - 1e-14
