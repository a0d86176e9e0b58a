"""Holomorphic-function machinery on the unit disc.

The disc-map type and every built-in map (identity, constant, monomial,
the identity/zero pair, the disc automorphisms and the non-extending map
of the bidisc geodesic), derivatives through the Cauchy integral on a
circle centred at the point, radial boundary limits along a fixed tail of
radii, uniform boundary sampling, moduli of continuity, the discrete
conjugate function, and the continuity classes built from log-weighted
Dini integrals.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import (QuadratureResult, integrate_endpoint, integrate_log_moment, log_scale,
                       power_of_two_scaled)

# The radii a radial limit reads: the end of the geometric approach
# r = 1 - 2^-j, which resolves exponential behaviour at the boundary.
RADIAL_TAIL = tuple(1.0 - 2.0 ** (-j) for j in range(21, 25))
# A radial limit is Cauchy when each step of the tail moves it by less.
_RADIAL_TOL = 1e-6
# Nodes of the centred Cauchy circle; their count does not grow toward the
# boundary because the circle shrinks with the distance to it.
_CAUCHY_NODES = 64
# Lags per block of the modulus sweep: max(1, min(max_lag, _LAG_BLOCK // n)).
_LAG_BLOCK = 2**14


@dataclass(frozen=True)
class UnitDiscFunction:
    """A holomorphic map of the unit disc into C^m, evaluated on arrays.

    ``evaluate`` takes a 1-d array of points with |zeta| < 1, shape (N,),
    and returns their values, shape (N, m) with m = ``dimension``.  The
    points are read-only: :func:`boundary_samples` passes one grid shared by
    every call of its size, and a write into it raises.
    ``derivative``, when supplied, is the analytic derivative under the same
    contract and is cross-checked against the Cauchy integral in the test
    suite.  ``values`` evaluates points of any shape S, a single point
    included, as S + (m,), and calling the map is the same.
    :func:`scalar_function` and :func:`vector_function` adapt plain
    per-point callables to this contract.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    dimension: int
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def values(self, zeta) -> np.ndarray:
        """``evaluate`` at points of shape S, as shape S + (m,)."""
        return _on_points(self.evaluate, zeta, self.dimension)

    __call__ = values


def _on_points(fn, zeta, dimension: int) -> np.ndarray:
    """``fn``, which maps points of shape (N,) to values of shape (N, m),
    at points of any shape S, as S + (m,).  The points always reach ``fn``
    flattened: numpy's complex scalars round products and powers otherwise
    than its array loops, so a single point must be an array of one."""
    zeta = np.asarray(zeta, dtype=complex)
    flat = zeta.reshape(-1)
    values = np.asarray(fn(flat), dtype=complex)
    if values.shape != (flat.size, dimension):
        raise ValueError("evaluator returned wrong dimension")
    return values.reshape(zeta.shape + (dimension,))


def stack_components(zeta, *parts) -> np.ndarray:
    """The component values ``parts``, each broadcast to the shape S of the
    points ``zeta``, stacked into shape S + (m,): the value array of a map
    written on arrays."""
    shape = np.shape(zeta)
    return np.stack([np.broadcast_to(p, shape) for p in parts], axis=-1).astype(
        complex, copy=False
    )


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


# The built-in maps.  Each gives a point the same bits in an array of any
# size.  A scalar times a temporary is written np.multiply(c, tmp), not
# c * tmp: numpy computes the operator in place as tmp * c once the temporary
# holds 256 KB, and that rounds otherwise.  The non-extending component is
# built in one buffer, since each fresh temporary of a large grid costs its
# pages' faults; its bits are those of 0.5 * exp((1 + z)/(z - 1)), which
# numpy computes in place as tmp * 0.5 from 256 KB.

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


def monomial_map(degree: int, coefficient: complex) -> UnitDiscFunction:
    """zeta -> coefficient zeta^degree."""
    if degree < 0:
        raise ValueError("monomial degree must be nonnegative")
    try:
        float(degree)
    except OverflowError:
        raise ValueError("monomial degree must be finite as a double") from None
    return UnitDiscFunction(
        lambda z: stack_components(z, np.multiply(coefficient, z**degree)),
        1,
        lambda z: stack_components(
            z, np.multiply(coefficient * degree, z ** (degree - 1)) if degree else 0.0
        ),
    )


def pair_identity_zero_map() -> UnitDiscFunction:
    """zeta -> (zeta, 0)."""
    return UnitDiscFunction(
        lambda z: stack_components(z, z, 0.0), 2, lambda z: stack_components(z, 1.0, 0.0)
    )


def disc_automorphism(a: complex, phi: float = 0.0) -> UnitDiscFunction:
    """zeta -> e^{i phi} (zeta - a) / (1 - conj(a) zeta)."""
    if abs(a) >= 1.0:
        raise ValueError("automorphism parameter must lie inside the disc")
    rot = cmath.exp(1j * phi)
    abar = complex(a).conjugate()
    scale = rot * (1.0 - abs(a) ** 2)
    return UnitDiscFunction(
        lambda z: stack_components(z, np.multiply(rot, z - a) / (1.0 - abar * z)),
        1,
        lambda z: stack_components(z, scale / (1.0 - abar * z) ** 2),
    )


def nonextending_map() -> UnitDiscFunction:
    """zeta -> (zeta, (1/2) exp((1 + zeta)/(zeta - 1))), whose second
    component has no continuous boundary extension at zeta = 1."""
    def second(z):
        w = np.array(z, dtype=complex)
        np.add(w, 1.0, out=w)
        np.divide(w, np.subtract(z, 1.0), out=w)
        np.exp(w, out=w)
        return np.multiply(w, 0.5, out=w)

    return UnitDiscFunction(
        lambda z: stack_components(z, z, second(z)),
        2,
        lambda z: stack_components(z, 1.0, -2.0 * second(z) / (z - 1.0) ** 2),
    )


def grid_size(n: int) -> int:
    """``n`` as the size of a uniform grid on the circle: at least 8."""
    if n < 8:
        raise ValueError("grid size must be at least 8")
    return n


def dyadic_grid_size(n: int) -> int:
    """``n`` as a grid size that is also a power of two, as the FFT needs."""
    if grid_size(n) & (n - 1):
        raise ValueError("grid size must be a power of two")
    return n


def grid_lag(delta: float, n: int) -> int:
    """Grid steps of an n-point circle within circular distance delta."""
    return min(int(math.floor(delta * n / (2.0 * math.pi) + 1e-12)), n // 2)


@dataclass(frozen=True)
class BoundarySamples:
    """Values of a boundary function on the uniform grid theta_k = 2 pi k / n."""

    n: int
    values: np.ndarray  # complex, shape (n, m)
    radius_used: float
    cauchy_fraction: float = 1.0

    def __post_init__(self):
        grid_size(self.n)
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
    """Empirical modulus of continuity on an increasing delta grid, as
    ``modulus_profile`` builds it: the omegas are nonnegative and never
    decrease."""

    deltas: np.ndarray
    omegas: np.ndarray


@dataclass(frozen=True)
class ModulusFamily:
    """Parametric modulus-of-continuity models.

    Each model is one formula on the scale u = log(1/x): ``log_modulus(u)``
    is log omega(e^-u), exact far beyond where e^-u underflows, and omega(x)
    is read off it.  ``log_modulus`` takes a 1-d float array of u and
    returns an array of the same shape.  Each omega is nondecreasing and
    tends to 0 at 0+; on (1, pi] the Hoelder model stays x^a and the others
    are capped at 1, so that integrals against them over (delta, pi] make
    sense.  The classmethods check their parameters;
    ``ModulusFamily(log_modulus)`` takes any closed form as given, and
    :meth:`of` adapts a plain function of x.
    """

    log_modulus: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def holder(cls, a: float) -> "ModulusFamily":
        if not 0.0 < a <= 1.0:
            raise ValueError("holder exponent must lie in (0, 1]")
        return cls(lambda u: -a * u)

    @classmethod
    def log_reciprocal(cls) -> "ModulusFamily":
        return cls(lambda u: -np.log(np.maximum(u, 1.0)))

    @classmethod
    def stretched_exponential(cls, coeff: float, eps: float) -> "ModulusFamily":
        if coeff <= 0.0 or not 0.0 < eps < 1.0:
            raise ValueError("need coeff > 0 and eps in (0, 1)")
        return cls(lambda u: -coeff * np.maximum(u, 0.0) ** (1.0 - eps))

    @classmethod
    def of(cls, omega: Callable[[float], float]) -> "ModulusFamily":
        """A plain function of x, read on the log scale one point at a time
        by the per-point adapter of :func:`numerics.log_scale`."""
        return cls(log_scale(omega, 0))

    def __call__(self, x):
        """omega at x, one float or an array of them; 0 where x <= 0."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        positive = flat > 0.0
        values = np.exp(self.log_modulus(-np.log(np.where(positive, flat, 1.0))))
        return np.where(positive, values, 0.0).reshape(x.shape)[()]


def _row_squares(rows: np.ndarray) -> np.ndarray:
    """Sums of squares over the last axis: squared real parts, then squared
    imaginary parts, added in order, as ``np.sum`` adds below 8 terms.  The
    caller sets the error state."""
    re, im = (sum((p[..., k] ** 2 for k in range(1, p.shape[-1])), p[..., 0] ** 2)
              for p in (rows.real, rows.imag))
    return re + im


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: each row scaled by
    :func:`numerics.power_of_two_scaled`, then :func:`_row_squares`, then
    scaled back if any row was."""
    with np.errstate(over="ignore", under="ignore"):
        scaled, e = power_of_two_scaled(values)
        norms = np.sqrt(_row_squares(scaled))
        return np.ldexp(norms, e) if e.any() else norms


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
    total = np.sum(f.values(nodes) / phases[:, None], axis=-2)
    return total / (_CAUCHY_NODES * rho)[..., None]


def derivative_at(f: UnitDiscFunction, zeta) -> np.ndarray:
    """Analytic derivative when supplied, else the centered Cauchy integral;
    shape S + (m,) for points of shape S."""
    if f.derivative is None:
        return derivative_centered(f, zeta)
    return _on_points(f.derivative, zeta, f.dimension)


@functools.lru_cache(maxsize=4)
def _tail_grid(n: int) -> np.ndarray:
    """The points r e^{i theta_k} for every node of the n-point grid and
    every radius of ``RADIAL_TAIL``, shape (n, 4), built once per grid size
    and read-only: evaluators share it."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    zeta = np.empty((n, len(RADIAL_TAIL)), dtype=complex)
    zeta.real = np.multiply.outer(np.cos(thetas), RADIAL_TAIL)
    zeta.imag = np.multiply.outer(np.sin(thetas), RADIAL_TAIL)
    zeta.flags.writeable = False
    return zeta


def _radial_tails(f: UnitDiscFunction, n: int) -> tuple[np.ndarray, np.ndarray]:
    """f at the last radius of ``RADIAL_TAIL`` on each ray of the n-point
    grid, shape (n, m) and contiguous, and the Cauchy flags, shape (n,): true
    where each step of the tail moved by less than 1e-6, all tails scaled as
    one vector by :func:`numerics.power_of_two_scaled`.  One evaluation of f
    on the (n, 4) grid; the flags go step by step, each step's norm read as
    sqrt of its :func:`_row_squares`.  That is :func:`row_norms`' flag: the
    rows it scales have a largest part below 2^-480 (a norm far below 1e-6)
    or above 2^480 (a norm far above it)."""
    tails = f.values(_tail_grid(n))
    scaled = power_of_two_scaled(tails.reshape(-1))[0].reshape(tails.shape)
    flags = np.ones(n, dtype=bool)
    with np.errstate(over="ignore", under="ignore"):
        for j in range(1, len(RADIAL_TAIL)):
            flags &= np.sqrt(_row_squares(scaled[:, j] - scaled[:, j - 1])) < _RADIAL_TOL
    return np.ascontiguousarray(tails[:, -1]), flags


def boundary_samples(f: UnitDiscFunction, n: int) -> BoundarySamples:
    """Radial limits at every grid node; the Cauchy-flag fraction is the
    uniformity diagnostic."""
    values, flags = _radial_tails(f, grid_size(n))
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

    A column sweep of the samples scaled by :func:`numerics.power_of_two_scaled`
    as one vector: each part of each component is one contiguous column,
    extended circularly by max_lag entries, and each block of lags sums the
    squared differences of its shifted windows, column by column, into a
    (lags, n) buffer, then takes each row's maximum, unscaled: O(n) memory.
    """
    n = samples.n
    scaled, e = power_of_two_scaled(samples.values.reshape(-1))
    windows = [
        np.lib.stride_tricks.sliding_window_view(np.concatenate([part, part[:max_lag]]), n)
        for component in scaled.reshape(n, -1).T
        for part in (component.real, component.imag)
    ]
    rows = max(1, min(max_lag, _LAG_BLOCK // n))
    total, term = (_aligned_empty(rows * n).reshape(rows, n) for _ in range(2))
    squares = np.zeros(max_lag + 1)
    for start in range(1, max_lag + 1, rows):
        block_total, block_term = total[:max_lag + 1 - start], term[:max_lag + 1 - start]
        for j, window in enumerate(windows):
            out = block_term if j else block_total
            np.subtract(window[start:start + rows], window[0], out=out)
            np.multiply(out, out, out=out)
            if j:
                np.add(block_total, block_term, out=block_total)
        squares[start:start + rows] = np.maximum.reduce(block_total, axis=1)
    with np.errstate(over="raise"):  # an omega past the double range
        return np.ldexp(np.sqrt(squares), e)


def modulus_of_continuity(samples: BoundarySamples, delta: float) -> float:
    """Sup of value differences over grid pairs at circular distance <= delta;
    0 below the grid step."""
    if delta < 0.0 or delta > math.pi:
        raise ValueError("delta out of range")
    return float(np.max(_lag_maxima(samples, grid_lag(delta, samples.n))))


def modulus_profile(
    samples: BoundarySamples, deltas: Sequence[float]
) -> ModulusProfile:
    """Empirical modulus on a delta grid, reported at the effective (grid-
    floored) angular separations."""
    req = np.sort(np.asarray(list(deltas), dtype=float))
    if req.size == 0 or req[0] < 0.0 or req[-1] > math.pi:
        raise ValueError("delta out of range")
    lags = np.array([grid_lag(d, samples.n) for d in req])
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
    n = dyadic_grid_size(samples.n)
    if samples.dimension != 1:
        raise ValueError(f"conjugate requires one component, got {samples.dimension}")
    values = samples.values[:, 0]
    if np.max(np.abs(values.imag)) > 1e-9 * max(1.0, np.max(np.abs(values))):
        raise ValueError("conjugate requires real samples")
    coeffs = np.fft.fft(values.real)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    multiplier = -1j * np.sign(freqs)
    multiplier[0] = 0.0
    multiplier[n // 2] = 0.0  # Nyquist
    out = np.fft.ifft(coeffs * multiplier)
    return replace(samples, values=out.real.astype(complex))


def pz_bound(modulus: ModulusFamily, delta: float, K: float) -> float:
    """Conjugate-function modulus bound of omega = ``modulus``

        K * [ int_0^delta omega(x)/x dx + delta * int_delta^pi omega(x)/x^2 dx ].

    The first integral runs on the log scale below min(delta, 1).  The
    rest is split at x = 1, where the capped models have a cusp, and each
    piece is refined toward delta and toward 1.  Every piece reads omega
    on arrays.  Returns +inf when any piece does not converge, and raises
    ``OverflowError`` when every piece converges but the bound exceeds the
    double range.
    """
    if not 0.0 < delta < math.pi:
        raise ValueError("delta out of range")
    if K <= 0.0:
        raise ValueError("K must be positive")

    far_density = lambda x: modulus(x) / (x * x)
    # int_0^min(delta, 1) omega(x)/x dx = int_{log(1/min(delta, 1))}^inf omega(e^-u) du
    near = integrate_log_moment(modulus.log_modulus, [0], -math.log(min(delta, 1.0)))
    if delta > 1.0:
        near.append(integrate_endpoint(lambda x: modulus(x) / x, 1.0, delta))
    if delta < 1.0:
        mid = 0.5 * (delta + 1.0)
        far = [
            integrate_endpoint(far_density, delta, mid),
            # toward 1 from below, through x = 1 - t
            integrate_endpoint(lambda t: far_density(1.0 - t), 0.0, 1.0 - mid),
            integrate_endpoint(far_density, 1.0, math.pi),
        ]
    else:
        far = [integrate_endpoint(far_density, delta, math.pi)]
    if not all(res.converged for res in near + far):
        return math.inf
    bound = K * (sum(res.value for res in near) + delta * sum(res.value for res in far))
    if bound == math.inf:
        raise OverflowError("pz_bound of convergent integrals exceeds the double range")
    return bound


@dataclass(frozen=True)
class LogDiniReport:
    """Per-n verdicts for the log-weighted Dini integrals.

    ``log_dini`` is the overall verdict over n <= n_max only: a finite
    surrogate for the all-n condition, not a proof.
    """

    results: tuple[QuadratureResult, ...]

    @property
    def n_max(self) -> int:
        return len(self.results) - 1

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(r.verdict for r in self.results)

    @property
    def log_dini(self) -> bool:
        return all(r.converged for r in self.results)


def log_dini_test(modulus: ModulusFamily, n_max: int = 6) -> LogDiniReport:
    """Classify int_0^1 (log(1/x))^n omega(x)/x dx for omega = ``modulus``
    and n = 0..n_max.

    Computed on the log scale, where the integral is int_0^inf u^n
    omega(e^-u) du, all orders in one pass that reaches the far tail.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    results = tuple(integrate_log_moment(modulus.log_modulus, range(n_max + 1), 0.0))
    return LogDiniReport(results)
