"""Disc machinery: Cauchy derivatives, boundary limits, moduli, conjugates."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import cli
from geodisc.convex_geometry import FlatModelDomain, FlatSupport, Polydisc
from geodisc.disc_analysis import (
    RADIAL_TAIL,
    BoundarySamples,
    ModulusFamily,
    UnitDiscFunction,
    _aligned_empty,
    boundary_samples,
    conjugate_function,
    constant_map,
    derivative_at,
    derivative_centered,
    identity_map,
    log_dini_test,
    modulus_of_continuity,
    modulus_profile,
    pz_bound,
    scalar_function,
    vector_function,
)
from geodisc.hardy_littlewood import Majorant, verify_majorant
from geodisc.kobayashi import GeodesicCandidate, flat_slice_candidate, mercer_fit


# --- derivative via the Cauchy integral -----------------------------------

def test_cauchy_derivative_square():
    f = scalar_function(lambda z: z * z)
    assert abs(derivative_centered(f, 0.5)[0] - 1.0) < 1e-12


def test_cauchy_derivative_constant():
    f = constant_map([3.0 + 4.0j])
    assert abs(derivative_centered(f, 0.2 + 0.1j)[0]) < 1e-13


def test_cauchy_derivative_geometric_series():
    f = scalar_function(lambda z: 1.0 / (1.0 - 0.9 * z))
    assert abs(derivative_centered(f, 0.0)[0] - 0.9) < 1e-10


def test_cauchy_matches_analytic_on_polynomials():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    f = scalar_function(
        lambda z: sum(c * z**k for k, c in enumerate(coeffs)),
        lambda z: sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k),
    )
    for zeta in (0.0, 0.3 + 0.2j, -0.55j, 0.7):
        exact = f.derivative(zeta)[0]
        assert abs(derivative_centered(f, zeta)[0] - exact) <= 1e-8


def test_cauchy_rejects_point_outside_disc():
    f = identity_map()
    with pytest.raises(ValueError, match="point outside unit disc"):
        derivative_centered(f, 1.0)


# --- boundary sampling -----------------------------------------------------

def test_boundary_samples_identity_roots_of_unity():
    samples = boundary_samples(identity_map(), 8)
    roots = np.exp(2j * math.pi * np.arange(8) / 8)
    assert np.max(np.abs(samples.values[:, 0] - roots)) < 1e-6
    assert samples.cauchy_fraction == 1.0


def test_boundary_samples_constant():
    samples = boundary_samples(constant_map([2.0 - 1.0j]), 16)
    assert np.max(np.abs(samples.values - (2.0 - 1.0j))) == 0.0


def test_boundary_samples_nonextending_pair_moduli():
    pair = vector_function(
        [lambda z: z, lambda z: 0.5 * cmath.exp((1.0 + z) / (z - 1.0))]
    )
    samples = boundary_samples(pair, 256)
    second = samples.values[:, 1]
    assert abs(second[0]) < 1e-300
    assert np.max(np.abs(np.abs(second[1:]) - 0.5)) < 1e-4

    # boundary phase oracle: f2 on the circle is (1/2) e^{-i cot(theta/2)}
    thetas = samples.thetas
    for k in range(8, 128, 13):
        oracle = 0.5 * cmath.exp(-1j / math.tan(thetas[k] / 2.0))
        assert abs(second[k] - oracle) < 1e-5


def _built_in_maps():
    """Every built-in map kind: the CLI function specs and the flat slice."""
    specs = [
        {"kind": "identity"},
        {"kind": "constant", "values": [[2.0, -1.0], 0.5]},
        {"kind": "automorphism", "a": [0.3, -0.6], "phi": 0.7},
        {"kind": "monomial", "degree": 0, "coefficient": [0.5, 0.2]},
        {"kind": "monomial", "degree": 2, "coefficient": [0.5, 0.2]},
        {"kind": "monomial", "degree": 5, "coefficient": [-0.3, 0.9]},
        {"kind": "pair_identity_zero"},
        {"kind": "nonextending"},
    ]
    maps = {f"{spec['kind']}{i}": cli.parse(cli.FUNCTION, spec) for i, spec in enumerate(specs)}
    flat = FlatModelDomain(FlatSupport(1.0, 0.5, 0.111, 0.08))
    maps["flat_slice"] = flat_slice_candidate(flat, 0.04j, 0.04).map
    maps["cmath_callable"] = vector_function(
        [lambda z: cmath.exp(z) * cmath.sin(z), lambda z: 0.5 * cmath.exp((1.0 + z) / (z - 1.0))]
    )
    return maps


def one_point_tail(f: UnitDiscFunction, theta: float) -> tuple[np.ndarray, bool]:
    """f(r e^{i theta}) at the last radius of RADIAL_TAIL, read one point at
    a time, and whether each step of the tail moved it by less than 1e-6."""
    tail = [f(complex(r * math.cos(theta), r * math.sin(theta))) for r in RADIAL_TAIL]
    moves = [np.linalg.norm(b - a) for a, b in zip(tail, tail[1:])]
    return tail[-1], all(move < 1e-6 for move in moves)


@pytest.mark.parametrize("name", sorted(_built_in_maps()))
def test_batched_samples_equal_per_point_radial_limits(name):
    f = _built_in_maps()[name]
    n = 96
    samples = boundary_samples(f, n)
    flags = 0
    for k in range(n):
        value, flag = one_point_tail(f, 2.0 * math.pi * k / n)
        scale = np.maximum(np.abs(value), 1e-300)
        assert np.all(np.abs(samples.values[k] - value) <= 1e-15 * scale)
        flags += flag
    assert samples.cauchy_fraction == flags / n


@pytest.mark.parametrize("name", sorted(_built_in_maps()))
def test_array_evaluation_equals_one_point_calls(name):
    f = _built_in_maps()[name]
    rng = np.random.default_rng(5)
    zeta = 0.99 * np.sqrt(rng.random(40)) * np.exp(2j * math.pi * rng.random(40))
    values = f.values(zeta)
    assert values.shape == (40, f.dimension)
    for z, row in zip(zeta, values):
        assert np.array_equal(f(complex(z)), row)
    if f.derivative is not None:
        assert np.array_equal(
            derivative_at(f, zeta), np.array([derivative_at(f, complex(z)) for z in zeta])
        )


@pytest.mark.parametrize(
    "name", sorted(name for name, f in _built_in_maps().items() if f.derivative is not None)
)
def test_analytic_derivative_matches_cauchy_integral(name):
    f = _built_in_maps()[name]
    rng = np.random.default_rng(11)
    zeta = 0.9 * np.sqrt(rng.random(64)) * np.exp(2j * math.pi * rng.random(64))
    analytic, cauchy = derivative_at(f, zeta), derivative_centered(f, zeta)
    scale = np.maximum(np.abs(cauchy), 1.0)
    assert np.all(np.abs(analytic - cauchy) <= 1e-13 * scale)


def recording_map(shapes: list) -> UnitDiscFunction:
    """zeta -> (zeta / 2, zeta^2 / 2) with its derivative; both evaluators
    assert that they get a 1-d complex array and record its shape."""
    def checked(fn):
        def evaluate(z):
            assert isinstance(z, np.ndarray) and z.ndim == 1 and z.dtype == complex, z
            shapes.append(z.shape)
            return fn(z)
        return evaluate

    return UnitDiscFunction(
        checked(lambda z: np.stack([0.5 * z, 0.5 * z * z], axis=-1)),
        2,
        checked(lambda z: np.stack([np.full_like(z, 0.5), z], axis=-1)),
    )


def test_evaluators_only_receive_one_dimensional_points():
    shapes = []
    f = recording_map(shapes)
    boundary_samples(f, 16)
    derivative_centered(f, np.array([0.1, 0.2j]))
    verify_majorant(f, Majorant.constant(2.0, 0.5))
    candidate = GeodesicCandidate(f, Polydisc((1.0, 1.0)))
    mercer_fit(candidate)
    assert candidate.image_inside()
    grid = np.array([[0.1, 0.2j, -0.3], [0.4, 0.5 - 0.1j, 0.0]])
    for g in (f, dataclasses.replace(f, derivative=None)):
        for points in (0.3 + 0.1j, grid[1], grid):
            shape = np.shape(points) + (2,)
            assert g.values(points).shape == g(points).shape == shape
            assert derivative_at(g, points).shape == shape
    assert np.array_equal(f.values(grid)[1], f.values(grid[1]))
    assert np.array_equal(derivative_at(f, grid)[1, 0], derivative_at(f, grid[1, 0]))
    assert len(shapes) > 10


def test_cauchy_derivative_on_an_array_equals_per_point_calls():
    f = scalar_function(lambda z: cmath.exp(z) / (2.0 - z))
    zeta = np.array([0.0, 0.3 + 0.2j, -0.55j, 0.9, -0.7 + 0.1j])
    batched = derivative_centered(f, zeta)
    assert batched.shape == (5, 1)
    for z, row in zip(zeta, batched):
        assert np.array_equal(derivative_centered(f, complex(z)), row)


def test_evaluator_of_wrong_dimension_is_rejected():
    f = UnitDiscFunction(lambda z: np.zeros((len(z), 3), dtype=complex), 2)
    with pytest.raises(ValueError, match="wrong dimension"):
        f(0.5)


# --- modulus of continuity -------------------------------------------------

def _brute_force_modulus(samples: BoundarySamples, delta: float) -> float:
    worst = 0.0
    thetas = samples.thetas
    n = samples.n
    for j in range(n):
        for k in range(j + 1, n):
            gap = abs(thetas[j] - thetas[k])
            gap = min(gap, 2.0 * math.pi - gap)
            if gap <= delta + 1e-12:
                worst = max(worst,
                            float(np.linalg.norm(samples.values[j] - samples.values[k])))
    return worst


def _all_pairs_profile(values: np.ndarray, deltas) -> list[float]:
    """For each delta, the max of ||g_j - g_k|| over all pairs at circular
    index distance up to floor(delta n / 2 pi)."""
    n = len(values)
    index = np.arange(n)
    gaps = np.abs(index[:, None] - index[None, :])
    gaps = np.minimum(gaps, n - gaps)
    diffs = values[:, None, :] - values[None, :, :]
    dist = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=-1))
    return [
        float(np.max(dist[gaps <= math.floor(d * n / (2.0 * math.pi) + 1e-12)]))
        for d in deltas
    ]


@given(
    n=st.integers(min_value=8, max_value=300),
    dimension=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=6),
    anchor=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_modulus_profile_equals_all_pairs_reference(n, dimension, seed, fractions, anchor):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, dimension)) + 1j * rng.standard_normal((n, dimension))
    samples = BoundarySamples(n, values, 1.0)
    step = 2.0 * math.pi / n
    # deltas from a tenth of the grid step up to pi; one at least a step
    deltas = [0.1 * step + u * (math.pi - 0.1 * step) for u in fractions]
    deltas.append(step + anchor * (math.pi - step))
    profile = modulus_profile(samples, deltas)
    for delta, expected in zip(deltas, _all_pairs_profile(values, deltas)):
        if delta < step:
            continue
        lag = min(math.floor(delta * n / (2.0 * math.pi) + 1e-12), n // 2)
        got = profile.omegas[list(np.round(profile.deltas / step)).index(lag)]
        assert abs(got - expected) <= 1e-15 * max(1.0, expected)


def test_sweep_buffers_start_on_a_cache_line():
    # arrays still held move where the heap puts the next ones
    held = []
    for n in (8, 1000, 8192, 8193):
        held.append(np.empty(n // 3 + 1))
        buf = _aligned_empty(n)
        assert buf.shape == (n,) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0


def test_modulus_constant_is_zero():
    samples = boundary_samples(constant_map([1.0j]), 32)
    assert modulus_of_continuity(samples, math.pi / 2) == 0.0


def test_modulus_identity_third_of_pi():
    samples = boundary_samples(identity_map(), 96)
    value = modulus_of_continuity(samples, math.pi / 3.0)
    assert abs(value - 1.0) < 1e-6  # 2 sin(pi/6)
    assert abs(value - _brute_force_modulus(samples, math.pi / 3.0)) < 1e-12


def test_modulus_cosine_third_of_pi():
    values = np.cos(2.0 * math.pi * np.arange(96) / 96).astype(complex)
    samples = BoundarySamples(96, values, 1.0)
    value = modulus_of_continuity(samples, math.pi / 3.0)
    assert abs(value - 1.0) < 1e-12
    assert abs(value - _brute_force_modulus(samples, math.pi / 3.0)) < 1e-12


def test_modulus_rejects_bad_delta():
    samples = boundary_samples(identity_map(), 16)
    with pytest.raises(ValueError, match="delta out of range"):
        modulus_of_continuity(samples, -0.1)
    with pytest.raises(ValueError, match="delta out of range"):
        modulus_of_continuity(samples, 3.2)


def test_modulus_profile_monotone_and_standard_inequality():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(6)
    thetas = 2.0 * math.pi * np.arange(256) / 256
    values = sum(c * np.cos((k + 1) * thetas) for k, c in enumerate(coeffs))
    samples = BoundarySamples(256, values.astype(complex), 1.0)
    profile = modulus_profile(samples, np.linspace(0.05, math.pi, 40))
    assert np.all(np.diff(profile.omegas) >= 0.0)
    # omega(lam x) <= (lam + 1) omega(x) over every pair of grid deltas
    lam = np.divide.outer(profile.deltas, profile.deltas)
    excess = profile.omegas[:, None] - (lam + 1.0) * profile.omegas[None, :]
    assert np.max(excess) <= 1e-12


def test_empirical_modulus_tends_to_zero_for_continuous_function():
    samples = boundary_samples(scalar_function(lambda z: z * z + 0.3 * z), 1024)
    deltas = [math.pi * 2.0 ** (-j) for j in range(9, -1, -1)]
    profile = modulus_profile(samples, deltas)
    # |f'| <= 2.3 on the closed disc, so omega(delta) <= 2.3 delta
    assert profile.omegas[0] <= 2.5 * profile.deltas[0]
    assert profile.omegas[0] < profile.omegas[-1]


# --- conjugate function ----------------------------------------------------

def _real_samples(values: np.ndarray) -> BoundarySamples:
    return BoundarySamples(len(values), values.astype(complex), 1.0)


def test_conjugate_of_cosine_is_sine():
    thetas = 2.0 * math.pi * np.arange(512) / 512
    conj = conjugate_function(_real_samples(np.cos(thetas)))
    assert np.max(np.abs(conj.values[:, 0].real - np.sin(thetas))) < 1e-12


def test_conjugate_of_sine_is_minus_cosine():
    thetas = 2.0 * math.pi * np.arange(256) / 256
    conj = conjugate_function(_real_samples(np.sin(thetas)))
    assert np.max(np.abs(conj.values[:, 0].real + np.cos(thetas))) < 1e-12


def test_conjugate_of_constant_vanishes():
    conj = conjugate_function(_real_samples(np.full(64, 2.5)))
    assert np.max(np.abs(conj.values)) < 1e-13


def test_conjugate_requires_real_samples():
    values = np.exp(2j * math.pi * np.arange(64) / 64)
    with pytest.raises(ValueError, match="conjugate requires real samples"):
        conjugate_function(BoundarySamples(64, values, 1.0))


def test_conjugate_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        conjugate_function(_real_samples(np.zeros(96)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugate_twice_negates_mean_zero_input(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(128)
    values -= values.mean()
    # zero the Nyquist mode, which the multiplier annihilates by design
    coeffs = np.fft.fft(values)
    coeffs[64] = 0.0
    values = np.fft.ifft(coeffs).real
    twice = conjugate_function(conjugate_function(_real_samples(values)))
    assert np.max(np.abs(twice.values[:, 0].real + values)) < 1e-10


# --- Privalov-Zygmund bound ------------------------------------------------

def test_pz_bound_linear_modulus_closed_form():
    omega = ModulusFamily.holder(1.0)
    for delta in (0.01, 0.1, 1.0, 1.5, 3.0):
        expected = delta * (1.0 + math.log(math.pi / delta))
        assert abs(pz_bound(omega, delta, 1.0) - expected) < 1e-8


def test_pz_bound_holder_closed_form_to_rounding():
    # K [delta^a / a + delta (pi^(a-1) - delta^(a-1)) / (a-1)]; converged
    # values carry their geometric tail, so they are not biased low
    rng = np.random.default_rng(7)
    for a, delta in zip(rng.uniform(0.05, 1.0, 200), rng.uniform(1e-4, 3.0, 200)):
        far = (math.pi ** (a - 1.0) - delta ** (a - 1.0)) / (a - 1.0)
        expected = delta**a / a + delta * far
        value = pz_bound(ModulusFamily.holder(float(a)), float(delta), 1.0)
        assert abs(value - expected) <= 1e-13 * expected


def test_pz_bound_zero_modulus():
    assert pz_bound(lambda x: 0.0, 0.1, 1.0) == 0.0


def test_pz_bound_stretched_exponential_finite_and_dominated():
    omega = ModulusFamily.stretched_exponential(1.0, 0.5)
    delta = math.exp(-4.0)
    value = pz_bound(omega, delta, 1.0)
    assert math.isfinite(value) and value > 0.0

    # near-integral piece against the dyadic-decomposition upper bound:
    # sum_j exp(-2^-eps C (j log 2)^{1-eps}) * exp(-2^-eps C (log 1/delta)^{1-eps})
    root_half = 2.0**-0.5
    dyadic_sum = sum(
        math.exp(-root_half * (j * math.log(2.0)) ** 0.5) for j in range(4000)
    )
    near = pz_bound(omega, delta, 1.0) - delta * _far_integral_oracle(omega, delta)
    assert near <= dyadic_sum * math.exp(-root_half * 2.0) + 1e-9


def _far_integral_oracle(omega, delta, n=400000):
    xs = np.linspace(delta, math.pi, n)
    ys = np.array([omega(x) / (x * x) for x in xs])
    return float(np.trapezoid(ys, xs))


def test_pz_bound_diverges_for_log_reciprocal():
    assert pz_bound(ModulusFamily.log_reciprocal(), 0.1, 1.0) == math.inf


def test_pz_bound_divergent_far_integral_is_infinite():
    # the near integral is 0, but int_delta (x - delta)^-1.5 / x^2 dx diverges
    omega = lambda x: 0.0 if x <= 0.1 else (x - 0.1) ** -1.5
    assert pz_bound(omega, 0.1, 1.0) == math.inf


# --- log-Dini classification -----------------------------------------------

def test_log_dini_linear_modulus():
    report = log_dini_test(ModulusFamily.holder(1.0), n_max=6)
    assert report.log_dini
    # oracle: int_0^1 (log(1/x))^n dx = n!
    for n, res in enumerate(report.results):
        assert abs(res.value - math.factorial(n)) < 1e-6 * math.factorial(n)


def test_log_dini_stretched_exponential():
    report = log_dini_test(
        ModulusFamily.stretched_exponential(1.0, 0.5), n_max=6
    )
    assert report.log_dini
    assert all(v == "converged" for v in report.verdicts)


def test_log_dini_log_reciprocal_diverges_at_zero():
    report = log_dini_test(ModulusFamily.log_reciprocal(), n_max=2)
    assert report.verdicts[0] == "diverged"
    assert not report.log_dini


def test_log_dini_accepts_plain_callable():
    report = log_dini_test(lambda x: x, n_max=3)
    assert report.log_dini


def test_log_dini_plain_callable_keeps_divergence():
    # read through a plain callable, 1/log(1/x) is sampled down to the
    # smallest normal double and held there; a modulus that read 0 at tiny
    # x would end the divergent tail and report a converged partial sum
    omega = ModulusFamily.log_reciprocal()
    assert omega(1e-320) > 0.0
    report = log_dini_test(lambda x: omega(x), n_max=1)
    assert report.verdicts == ("diverged", "diverged")


def test_majorant_object_as_modulus():
    # omega is read through its values; a Majorant's log form, the density
    # of int Phi dx, must not stand in for log omega(e^-u)
    maj = Majorant(lambda x: math.sqrt(x), 0.5)
    report = log_dini_test(maj, n_max=3)
    for n, res in enumerate(report.results):
        # int_0^inf u^n e^{-u/2} du
        assert res.value == pytest.approx(math.factorial(n) * 2 ** (n + 1), rel=1e-8)
    assert pz_bound(maj, 0.1, 1.0) == pz_bound(lambda x: math.sqrt(x), 0.1, 1.0)


def test_modulus_families_nondecreasing_and_vanishing_at_zero():
    families = [
        ModulusFamily.holder(0.5),
        ModulusFamily.log_reciprocal(),
        ModulusFamily.stretched_exponential(1.0, 0.5),
    ]
    xs = np.geomspace(1e-12, math.pi, 200)
    for omega in families:
        values = [omega(float(x)) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        # vanishing at 0+ (the 1/log family gets there very slowly: that is
        # its point)
        assert values[0] < 0.05
        assert omega(1e-300) < values[0]
        assert omega(0.0) == 0.0
