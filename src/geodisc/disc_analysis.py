"""Holomorphic-function machinery on the unit disc.

Derivatives through the Cauchy integral on a circle centred at the point,
radial boundary limits along a fixed tail of radii, uniform boundary
sampling, moduli of continuity, the discrete conjugate function, and the
continuity classes built from log-weighted Dini integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureResult, integrate_endpoint, integrate_log_moment, log_scale

# The radii a radial limit reads: the end of the geometric approach
# r = 1 - 2^-j, which resolves exponential behaviour at the boundary.
RADIAL_TAIL = tuple(1.0 - 2.0 ** (-j) for j in range(21, 25))
# A radial limit is Cauchy when each step of the tail moves it by less.
_RADIAL_TOL = 1e-6
# Nodes of the centred Cauchy circle; their count does not grow toward the
# boundary because the circle shrinks with the distance to it.
_CAUCHY_NODES = 64


@dataclass(frozen=True)
class UnitDiscFunction:
    """A holomorphic map of the unit disc into C^m, evaluated on arrays.

    ``evaluate`` takes an array of points with |zeta| < 1, shape (N,), and
    returns their values, shape (N, m) with m = ``dimension``; like a numpy
    ufunc it keeps any other shape of points, S -> S + (m,), a single point
    included.  ``derivative``, when supplied, is the analytic derivative
    under the same contract and is cross-checked against the Cauchy
    integral in the test suite.  Calling the map at one point gives its
    value there, shape (m,).  :func:`scalar_function` and
    :func:`vector_function` adapt plain per-point callables to this
    contract.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    dimension: int
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, zeta: complex) -> np.ndarray:
        return self.values(np.array([zeta], dtype=complex))[0]

    def values(self, zeta: np.ndarray) -> np.ndarray:
        """``evaluate`` at an array of points, with its shape checked."""
        return _checked(self.evaluate(zeta), zeta, self.dimension)


def _checked(values, zeta: np.ndarray, dimension: int) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.shape != np.shape(zeta) + (dimension,):
        raise ValueError("evaluator returned wrong dimension")
    return values


def stack_components(zeta, *parts) -> np.ndarray:
    """The component values ``parts``, each broadcast to the shape S of the
    points ``zeta``, stacked into shape S + (m,): the value array of a map
    written on arrays."""
    shape = np.shape(zeta)
    return np.stack([np.broadcast_to(p, shape) for p in parts], axis=-1).astype(
        complex, copy=False
    )


# Complex products, quotients and powers of arrays, rounded step for step
# as Python's complex type rounds them (each real product and sum on its
# own, Smith's quotient, binary powering).  numpy's vector loops for the
# complex product and quotient may round differently (fused multiply-adds,
# a reciprocal), and near the circle 1 - |f| magnifies a
# last-bit difference a millionfold; the built-in maps use these so that
# their values on arrays are those of the same formula on Python complex
# numbers, bit for bit.

def _join(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def cmul(a, b) -> np.ndarray:
    """a * b."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _join(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def cdiv(a, b) -> np.ndarray:
    """a / b for b != 0, scaling by the larger part of b."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    real_wide = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(real_wide, b.imag / b.real, b.real / b.imag)
        denom = np.where(real_wide, b.real + b.imag * ratio, b.real * ratio + b.imag)
        re = np.where(real_wide, a.real + a.imag * ratio, a.real * ratio + a.imag)
        im = np.where(real_wide, a.imag - a.real * ratio, a.imag * ratio - a.real)
    return _join(re / denom, im / denom)


def cpow(z, n: int) -> np.ndarray:
    """z**n for an integer n >= 0, by squaring (as Python does for n <= 100)."""
    result, power, bit = np.ones(np.shape(z), dtype=complex), np.asarray(z, dtype=complex), 1
    while bit <= n:
        if n & bit:
            result = cmul(result, power)
        bit <<= 1
        if bit <= n:
            power = cmul(power, power)
    return result


def _per_point(functions: Sequence[Callable[[complex], complex]]):
    """Array evaluator over plain callables: each is called once per point,
    on a Python complex, so scalar-only code such as ``cmath`` works."""
    functions = list(functions)

    def evaluate(zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        rows = [[fn(z) for fn in functions] for z in zeta.ravel().tolist()]
        return np.array(rows, dtype=complex).reshape(zeta.shape + (len(functions),))

    return evaluate


def scalar_function(
    f: Callable[[complex], complex],
    df: Callable[[complex], complex] | None = None,
) -> UnitDiscFunction:
    """A map into C from a per-point callable and, optionally, its derivative."""
    return UnitDiscFunction(_per_point([f]), 1, None if df is None else _per_point([df]))


def vector_function(
    components: Sequence[Callable[[complex], complex]],
    derivatives: Sequence[Callable[[complex], complex]] | None = None,
) -> UnitDiscFunction:
    """A map into C^m from m per-point callables and, optionally, their
    derivatives."""
    comps = list(components)
    deriv = None if derivatives is None else _per_point(derivatives)
    return UnitDiscFunction(_per_point(comps), len(comps), deriv)


def identity_map() -> UnitDiscFunction:
    return UnitDiscFunction(
        lambda z: stack_components(z, z), 1, lambda z: stack_components(z, 1.0)
    )


def constant_map(values: Sequence[complex]) -> UnitDiscFunction:
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        raise ValueError("constant map needs at least one component")
    zeros = np.zeros_like(vals)
    return UnitDiscFunction(
        lambda z: stack_components(z, *vals),
        len(vals),
        lambda z: stack_components(z, *zeros),
    )


@dataclass(frozen=True)
class BoundarySamples:
    """Values of a boundary function on the uniform grid theta_k = 2 pi k / n."""

    n: int
    values: np.ndarray  # complex, shape (n, m)
    radius_used: float
    cauchy_fraction: float = 1.0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid size must be at least 8")
        values = np.asarray(self.values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.n:
            raise ValueError("values do not match grid size")
        if not np.all(np.isfinite(values)):
            raise ValueError("boundary values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ModulusProfile:
    """Empirical modulus of continuity on an increasing delta grid."""

    deltas: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=float)
        omegas = np.asarray(self.omegas, dtype=float)
        if deltas.shape != omegas.shape or deltas.ndim != 1:
            raise ValueError("deltas and omegas must be 1-d and match")
        if np.any(np.diff(deltas) <= 0):
            raise ValueError("deltas must be increasing")
        if np.any(omegas < 0):
            raise ValueError("omegas must be nonnegative")
        if np.any(np.diff(omegas) < -1e-12):
            raise ValueError("omegas must be nondecreasing in delta")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "omegas", omegas)


@dataclass(frozen=True)
class ModulusFamily:
    """Parametric modulus-of-continuity models.

    Each model is one formula on the scale u = log(1/x): ``log_modulus(u)``
    is log omega(e^-u), exact far beyond where e^-u underflows, and omega(x)
    is read off it.  Each omega is nondecreasing and tends to 0 at 0+; on
    (1, pi] the Hoelder model stays x^a and the others are capped at 1, so
    that integrals against them over (delta, pi] make sense.
    """

    kind: str
    a: float = 0.0
    coeff: float = 0.0
    eps: float = 0.0

    @classmethod
    def holder(cls, a: float) -> "ModulusFamily":
        if not 0.0 < a <= 1.0:
            raise ValueError("holder exponent must lie in (0, 1]")
        return cls("holder", a=a)

    @classmethod
    def log_reciprocal(cls) -> "ModulusFamily":
        return cls("log_reciprocal")

    @classmethod
    def stretched_exponential(cls, coeff: float, eps: float) -> "ModulusFamily":
        if coeff <= 0.0 or not 0.0 < eps < 1.0:
            raise ValueError("need coeff > 0 and eps in (0, 1)")
        return cls("stretched_exponential", coeff=coeff, eps=eps)

    def __call__(self, x: float) -> float:
        return math.exp(self.log_modulus(-math.log(x))) if x > 0.0 else 0.0

    def log_modulus(self, u: float) -> float:
        """log omega(e^-u), for every real u."""
        if self.kind == "holder":
            return -self.a * u
        if self.kind == "log_reciprocal":
            return -math.log(u) if u > 1.0 else 0.0
        if self.kind == "stretched_exponential":
            return -self.coeff * u ** (1.0 - self.eps) if u > 0.0 else 0.0
        raise ValueError(f"unknown modulus family {self.kind!r}")


def _log_modulus(omega) -> Callable[[float], float]:
    """u -> log omega(e^-u): omega's own ``log_modulus`` when it has one,
    else read off omega by :func:`log_scale`."""
    own = getattr(omega, "log_modulus", None)
    return own if own is not None else log_scale(omega)


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, summed as ``np.linalg.norm``
    sums a single complex vector."""
    return np.sqrt(np.sum(values.real**2, axis=-1) + np.sum(values.imag**2, axis=-1))


def derivative_centered(f: UnitDiscFunction, zeta) -> np.ndarray:
    """f'(zeta) from the Cauchy integral over a circle centered at zeta.

    The radius is half the distance to the boundary, so f need not extend
    to the boundary.  Trapezoidal on the circle, hence spectrally accurate
    for analytic f.  ``zeta`` is one point or an array of points of shape
    S; the result has shape S + (m,), from one evaluation of f on all
    64 nodes of every circle.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(zeta) >= 1.0):
        raise ValueError("point outside unit disc")
    rho = 0.5 * (1.0 - np.abs(zeta))
    phases = np.exp(2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    nodes = zeta[..., None] + rho[..., None] * phases
    values = f.values(nodes.ravel()).reshape(nodes.shape + (f.dimension,))
    total = np.sum(values / phases[:, None], axis=-2)
    return total / (_CAUCHY_NODES * rho)[..., None]


def derivative_at(f: UnitDiscFunction, zeta) -> np.ndarray:
    """Analytic derivative when supplied, else the centered Cauchy integral;
    shape S + (m,) for points of shape S."""
    if f.derivative is None:
        return derivative_centered(f, zeta)
    zeta = np.asarray(zeta, dtype=complex)
    return _checked(f.derivative(zeta), zeta, f.dimension)


def _radial_tails(f: UnitDiscFunction, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f at the last radius of ``RADIAL_TAIL`` on each ray e^{i theta},
    shape (n, m), and the Cauchy flags, shape (n,): true where each step of
    the tail moved the value by less than 1e-6.  One evaluation of f on the
    whole (n, 4) grid of rays and radii."""
    zeta = np.empty((len(thetas), len(RADIAL_TAIL)), dtype=complex)
    zeta.real = np.multiply.outer(np.cos(thetas), RADIAL_TAIL)
    zeta.imag = np.multiply.outer(np.sin(thetas), RADIAL_TAIL)
    tails = f.values(zeta.ravel()).reshape(zeta.shape + (f.dimension,))
    moves = row_norms(np.diff(tails, axis=1))
    return tails[:, -1], np.all(moves < _RADIAL_TOL, axis=1)


def boundary_samples(f: UnitDiscFunction, n: int) -> BoundarySamples:
    """Radial limits at every grid node; the Cauchy-flag fraction is the
    uniformity diagnostic."""
    if n < 8:
        raise ValueError("grid size must be at least 8")
    values, flags = _radial_tails(f, 2.0 * math.pi * np.arange(n) / n)
    return BoundarySamples(n, values, RADIAL_TAIL[-1], int(np.count_nonzero(flags)) / n)


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of n entries starting on a 64-byte
    boundary.  A plain ``np.empty`` lands wherever the heap's history puts
    it, and the column sweep ran about 1.4x slower off that boundary."""
    raw = np.empty(n + 8)
    start = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[start:start + n]


def _lag_maxima(samples: BoundarySamples, max_lag: int) -> np.ndarray:
    """lag_maxima[l] = max_k ||g(theta_{k+l}) - g(theta_k)|| for l = 0..max_lag.

    A column sweep: the real and imaginary part of each component is one
    contiguous column, extended circularly by max_lag entries, and each lag
    sums the squared column differences into a preallocated buffer.  Every
    pair (k, k + l) is visited once per lag, in O(n) memory.
    """
    n = samples.n
    columns = [
        np.concatenate([part, part[:max_lag]])
        for component in samples.values.T
        for part in (component.real, component.imag)
    ]
    total, term = _aligned_empty(n), _aligned_empty(n)
    squares = np.zeros(max_lag + 1)
    for lag in range(1, max_lag + 1):
        for j, column in enumerate(columns):
            out = term if j else total
            np.subtract(column[lag:lag + n], column[:n], out=out)
            np.multiply(out, out, out=out)
            if j:
                np.add(total, term, out=total)
        squares[lag] = total.max()
    return np.sqrt(squares)


def _lag(delta: float, n: int) -> int:
    """Grid steps of an n-point circle within circular distance delta."""
    return min(int(math.floor(delta * n / (2.0 * math.pi) + 1e-12)), n // 2)


def modulus_of_continuity(samples: BoundarySamples, delta: float) -> float:
    """Sup of value differences over grid pairs at circular distance <= delta;
    0 below the grid step."""
    if delta < 0.0 or delta > math.pi:
        raise ValueError("delta out of range")
    return float(np.max(_lag_maxima(samples, _lag(delta, samples.n))))


def modulus_profile(
    samples: BoundarySamples, deltas: Sequence[float]
) -> ModulusProfile:
    """Empirical modulus on a delta grid, reported at the effective (grid-
    floored) angular separations."""
    req = np.sort(np.asarray(list(deltas), dtype=float))
    if req.size == 0 or req[0] < 0.0 or req[-1] > math.pi:
        raise ValueError("delta out of range")
    lags = np.array([_lag(d, samples.n) for d in req])
    lags = np.unique(lags[lags >= 1])
    if lags.size == 0:
        raise ValueError("all deltas below grid resolution")
    maxima = _lag_maxima(samples, int(lags[-1]))
    running = np.maximum.accumulate(maxima)
    eff_deltas = lags * 2.0 * math.pi / samples.n
    return ModulusProfile(eff_deltas, running[lags])


def conjugate_function(samples: BoundarySamples) -> BoundarySamples:
    """Discrete conjugate function via the Fourier multiplier -i sign(k).

    The grid size must be a power of two; the k = 0 coefficient and the
    unpaired Nyquist coefficient are zeroed (the self-conjugate frequency
    has no consistent sign).
    """
    n = samples.n
    if n & (n - 1) != 0:
        raise ValueError("grid size must be a power of two")
    if samples.dimension != 1:
        raise ValueError("conjugate requires real samples")
    values = samples.values[:, 0]
    if np.max(np.abs(values.imag)) > 1e-9 * max(1.0, np.max(np.abs(values))):
        raise ValueError("conjugate requires real samples")
    coeffs = np.fft.fft(values.real)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    multiplier = -1j * np.sign(freqs)
    multiplier[0] = 0.0
    multiplier[n // 2] = 0.0  # Nyquist
    out = np.fft.ifft(coeffs * multiplier)
    return BoundarySamples(n, out.real.astype(complex), samples.radius_used,
                           samples.cauchy_fraction)


def pz_bound(
    omega,
    delta: float,
    K: float,
    tol: float = 1e-11,
    max_levels: int = 400,
) -> float:
    """Conjugate-function modulus bound

        K * [ int_0^delta omega(x)/x dx + delta * int_delta^pi omega(x)/x^2 dx ].

    The first integral runs on the log scale below min(delta, 1).  The
    rest is split at x = 1, where the capped models have a cusp, and each
    piece is refined toward delta and toward 1.  Returns +inf when any
    piece does not converge.
    """
    if not 0.0 < delta < math.pi:
        raise ValueError("delta out of range")
    if K <= 0.0:
        raise ValueError("K must be positive")

    far_density = lambda x: omega(x) / (x * x)
    # int_0^min(delta, 1) omega(x)/x dx = int_{log(1/min(delta, 1))}^inf omega(e^-u) du
    near = [integrate_log_moment(
        _log_modulus(omega), 0, math.log(1.0 / min(delta, 1.0)), tol, max_levels
    )]
    if delta > 1.0:
        near.append(integrate_endpoint(lambda x: omega(x) / x, 1.0, delta, tol, max_levels))
    if delta < 1.0:
        mid = 0.5 * (delta + 1.0)
        far = [
            integrate_endpoint(far_density, delta, mid, tol, max_levels),
            # toward 1 from below, through x = 1 - t
            integrate_endpoint(lambda t: far_density(1.0 - t), 0.0, 1.0 - mid, tol, max_levels),
            integrate_endpoint(far_density, 1.0, math.pi, tol, max_levels),
        ]
    else:
        far = [integrate_endpoint(far_density, delta, math.pi, tol, max_levels)]
    if not all(res.converged for res in near + far):
        return math.inf
    return K * (sum(res.value for res in near) + delta * sum(res.value for res in far))


@dataclass(frozen=True)
class LogDiniReport:
    """Per-n verdicts for the log-weighted Dini integrals.

    ``log_dini`` is the overall verdict over n <= n_max only: a finite
    surrogate for the all-n condition, not a proof.
    """

    n_max: int
    results: tuple[QuadratureResult, ...]
    verdicts: tuple[str, ...] = field(init=False)
    log_dini: bool = field(init=False)

    def __post_init__(self):
        verdicts = tuple(
            "converged" if r.converged else "diverged" for r in self.results
        )
        object.__setattr__(self, "verdicts", verdicts)
        object.__setattr__(self, "log_dini", all(r.converged for r in self.results))


def log_dini_test(
    omega,
    n_max: int = 6,
    tol: float = 1e-9,
    max_levels: int = 400,
) -> LogDiniReport:
    """Classify int_0^1 (log(1/x))^n omega(x)/x dx for n = 0..n_max.

    Computed on the log scale, where the integral is int_0^inf u^n
    omega(e^-u) du and geometric refinement reaches the far tail.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    log_omega = _log_modulus(omega)
    results = tuple(
        integrate_log_moment(log_omega, n, 0.0, tol, max_levels) for n in range(n_max + 1)
    )
    return LogDiniReport(n_max, results)
