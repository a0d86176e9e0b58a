"""Disc machinery: Cauchy derivatives, boundary limits, moduli, conjugates."""

from __future__ import annotations

import cmath
import dataclasses
import json
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
    _LAG_BLOCK,
    _aligned_empty,
    _lag_maxima,
    _radial_tails,
    _tail_grid,
    boundary_samples,
    conjugate_function,
    constant_map,
    derivative_at,
    derivative_centered,
    identity_map,
    log_dini_test,
    modulus_of_continuity,
    modulus_profile,
    pair_identity_zero_map,
    pz_bound,
    row_norms,
    scalar_function,
    stack_components,
    vector_function,
)
from geodisc.hardy_littlewood import Majorant, verify_majorant
from geodisc.numerics import integrate_endpoint, power_of_two_scaled
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
    maps = {f"{spec['kind']}{i}": cli.parse(cli.FUNCTION, spec, "function")
            for i, spec in enumerate(specs)}
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


def assert_rows_are_one_point_calls(f: UnitDiscFunction, count: int, every: int) -> None:
    """f and its derivative at ``count`` seeded points in one array equal,
    on every ``every``-th row, the calls at that point alone."""
    rng = np.random.default_rng(5)
    zeta = 0.99 * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))
    values = f.values(zeta)
    assert values.shape == (count, f.dimension)
    for z, row in zip(zeta[::every], values[::every]):
        assert np.array_equal(f(complex(z)), row)
    if f.derivative is not None:
        assert np.array_equal(
            derivative_at(f, zeta)[::every],
            np.array([derivative_at(f, complex(z)) for z in zeta[::every]])
        )


@pytest.mark.parametrize("name", sorted(_built_in_maps()))
def test_array_evaluation_equals_one_point_calls(name):
    assert_rows_are_one_point_calls(_built_in_maps()[name], 40, 1)


@pytest.mark.parametrize("name", sorted(_built_in_maps()))
def test_a_value_does_not_depend_on_the_size_of_its_array(name):
    # numpy computes c * tmp in place as tmp * c once the temporary tmp
    # holds 256 KB, and that rounds otherwise: on 2^15 points, a third of
    # the monomial and automorphism rows differed from one-point calls
    assert_rows_are_one_point_calls(_built_in_maps()[name], 2**15, 64)


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
    verify_majorant(f, Majorant.power(0.5, 2.0, 0.0))
    candidate = GeodesicCandidate(f, Polydisc((1.0, 1.0)))
    mercer_fit(candidate)
    grid = np.array([[0.1, 0.2j, -0.3], [0.4, 0.5 - 0.1j, 0.0]])
    assert all(candidate.domain.membership(z) != "outside" for z in f.values(grid[0]))
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


def test_an_evaluator_that_writes_into_its_points_raises_and_harms_no_later_call():
    before = boundary_samples(identity_map(), 64)

    def scribble(z):
        z *= 0.5
        return stack_components(z, z)

    with pytest.raises(ValueError, match="read-only"):
        boundary_samples(UnitDiscFunction(scribble, 1), 64)
    after = boundary_samples(identity_map(), 64)
    assert np.array_equal(after.values, before.values)
    assert after.cauchy_fraction == before.cauchy_fraction == 1.0


def test_an_evaluator_that_returns_its_points_samples_as_the_identity():
    samples = boundary_samples(UnitDiscFunction(lambda z: z[:, None], 1), 64)
    expected = boundary_samples(identity_map(), 64)
    assert np.array_equal(samples.values, expected.values)
    assert samples.cauchy_fraction == expected.cauchy_fraction
    assert samples.values.flags.c_contiguous and samples.values.flags.writeable
    assert not np.shares_memory(samples.values, _tail_grid(64))


def row_norm_flags(f: UnitDiscFunction, n: int) -> np.ndarray:
    """The Cauchy flags as row_norms reads them: every step of all n tails
    at once, scaled as one vector, then each ray's three norms."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    zeta = np.empty((n, len(RADIAL_TAIL)), dtype=complex)
    zeta.real = np.multiply.outer(np.cos(thetas), RADIAL_TAIL)
    zeta.imag = np.multiply.outer(np.sin(thetas), RADIAL_TAIL)
    tails = f.values(zeta)
    scaled = power_of_two_scaled(tails.reshape(-1))[0].reshape(tails.shape)
    return np.all(row_norms(scaled[:, 1:] - scaled[:, :-1]) < 1e-6, axis=1)


@given(
    power=st.floats(-300.0, 300.0),
    dimension=st.integers(1, 3),
    gain=st.floats(3.0, 6.0),
    n=st.sampled_from([8, 96, 1000]),
)
@settings(max_examples=40, deadline=None)
def test_cauchy_flags_are_the_row_norm_flags(power, dimension, gain, n):
    lam = 10.0**power
    # |f'| = gain |1 + z| runs from 0 to 2 gain on the circle, so the first
    # step's move, 2^-22 |f'|, runs from 0 past 1e-6
    straddle = UnitDiscFunction(
        lambda z: stack_components(z, *(gain * (z + 0.5 * z * z) for _ in range(dimension))),
        dimension)
    maps = {
        "scaled": UnitDiscFunction(
            lambda z: stack_components(z, *(lam * z**k for k in range(1, dimension + 1))),
            dimension),
        "constant": constant_map([lam * (1.0 - 0.5j)] * dimension),
        "straddle": straddle,
    }
    for name, f in maps.items():
        values, flags = _radial_tails(f, n)
        assert np.array_equal(flags, row_norm_flags(f, n)), name
        assert np.array_equal(values, f.values(_tail_grid(n))[:, -1]), name
    assert np.all(_radial_tails(maps["constant"], n)[1])
    assert 0 < np.count_nonzero(_radial_tails(straddle, n)[1]) < n


@pytest.mark.xfail(strict=True, reason="_RADIAL_TOL = 1e-6 compares unscaled tail moves inside "
                   "[2^-480, 2^480] (ROADMAP item 7)")
def test_cauchy_fraction_of_a_scaled_identity_is_that_of_the_identity():
    # 1e10 z reads 0.0, where z reads 1.0
    scaled = UnitDiscFunction(lambda z: stack_components(z, 1e10 * z), 1)
    assert boundary_samples(identity_map(), 1024).cauchy_fraction == 1.0
    assert boundary_samples(scaled, 1024).cauchy_fraction == 1.0


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


def per_lag_maxima(samples: BoundarySamples, max_lag: int) -> np.ndarray:
    """The lag sweep one lag at a time, in the same summation order: the
    squared difference of each column in turn, real part before imaginary
    part, component by component."""
    n = samples.n
    columns = [
        np.concatenate([part, part[:max_lag]])
        for component in samples.values.T
        for part in (component.real, component.imag)
    ]
    squares = np.zeros(max_lag + 1)
    for lag in range(1, max_lag + 1):
        total = (columns[0][lag:lag + n] - columns[0][:n]) ** 2
        for column in columns[1:]:
            total += (column[lag:lag + n] - column[:n]) ** 2
        squares[lag] = total.max()
    return np.sqrt(squares)


@pytest.mark.parametrize("n", [8, 1000, 1024, 8193])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_lag_sweep_in_blocks_matches_the_per_lag_sweep(n, dimension):
    rows = _LAG_BLOCK // n
    rng = np.random.default_rng(n + dimension)
    values = rng.normal(size=(n, dimension)) + 1j * rng.normal(size=(n, dimension))
    samples = BoundarySamples(n, values, 1.0)
    for max_lag in sorted({1, rows - 1, rows, rows + 1, n // 2}):
        if 0 <= max_lag <= n // 2:
            expected = per_lag_maxima(samples, max_lag)
            assert np.array_equal(_lag_maxima(samples, max_lag), expected), max_lag


def old_row_norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(values.real**2, axis=-1) + np.sum(values.imag**2, axis=-1))


@pytest.mark.parametrize("m", range(1, 10))
def test_row_norms_match_the_vector_norm(m):
    rng = np.random.default_rng(m)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 200, 3, m))
    values = scales[0] * rng.normal(size=(200, 3, m)) + 1j * scales[1] * rng.normal(
        size=(200, 3, m))
    norms = row_norms(values)
    assert norms.shape == (200, 3)
    expected = np.array([[np.linalg.norm(v) for v in row] for row in values])
    assert np.all(np.abs(norms - expected) <= 1e-15 * expected)
    if m <= 7:
        # the order np.sum takes below 8 terms
        assert np.array_equal(norms, old_row_norms(values))


def test_row_norms_rescale_rows_whose_squares_leave_the_double_range():
    # squared, 1e200 overflowed to a norm of inf and 1e-200 underflowed to 0
    values = np.array([[1e200, 1e200], [1e-200, -1e-200j], [1e-310, 0.0], [3.0, 4.0j], [0.0, 0.0]])
    norms = row_norms(values)
    expected = [math.hypot(abs(a), abs(b)) for a, b in values]
    assert expected[:3] == pytest.approx([2**0.5 * 1e200, 2**0.5 * 1e-200, 1e-310], rel=1e-15)
    assert norms.tolist() == pytest.approx(expected, rel=1e-15)
    assert norms[3:].tolist() == [5.0, 0.0]


def test_hl_verify_of_a_huge_monomial_finds_the_worst_point(tmp_path):
    # |f'| = 2e300 r is finite on the whole grid: the worst point is the
    # outermost radius, not the first grid point read as inf
    cfg = {"function": {"kind": "monomial", "degree": 2, "coefficient": 1e300},
           "majorant": {"kind": "power", "r0": 0.5, "coefficient": 2.0}}
    out = tmp_path / "report.json"
    assert cli.run("hl-verify", dict(cfg, out=str(out))) == 2

    def not_json(token):
        raise ValueError(f"{token} is not JSON")

    result = json.loads(out.read_text(), parse_constant=not_json)["result"]
    assert result["max_violation"] == pytest.approx(2e300 * 0.99995, rel=1e-12)
    assert (result["worst_r"], result["worst_theta"]) == (0.99995, 0.0)


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


def test_conjugate_of_a_map_into_c2_names_its_component_count():
    # a map with two components is not one complex component: the reason
    # names the count, not the samples' reality
    samples = boundary_samples(pair_identity_zero_map(), 64)
    with pytest.raises(ValueError, match=r"^conjugate requires one component, got 2$"):
        conjugate_function(samples)


@pytest.mark.parametrize("values, message", [
    (np.zeros(63), "values do not match grid size"),
    (np.array([math.nan] + [0.0] * 63), "boundary values must be finite"),
], ids=["a row short", "nan"])
def test_boundary_samples_reject_values_that_do_not_fit(values, message):
    with pytest.raises(ValueError, match=message):
        BoundarySamples(64, values, 1.0)


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


def test_pz_bound_near_piece_of_a_subnormal_modulus():
    # omega(x) = c x with c = 334 units 2^-1074: K delta (1 + log(pi/delta))
    # = 85.85 units, which read 82 while the near piece's nodes underflowed;
    # the far pieces, on the x scale, still round their nodes to units
    unit = math.ldexp(1.0, -1074)
    bound = pz_bound(ModulusFamily(lambda u: math.log(334 * unit) - u), 0.05, 1.0)
    exact = 334 * 0.05 * (1.0 + math.log(math.pi / 0.05))
    assert abs(bound / unit - exact) <= 1e-12 * exact + 1.0


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
    assert pz_bound(ModulusFamily.of(lambda x: 0.0), 0.1, 1.0) == 0.0


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
    ys = omega(xs) / (xs * xs)
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))  # trapezoid rule


def test_pz_bound_diverges_for_log_reciprocal():
    assert pz_bound(ModulusFamily.log_reciprocal(), 0.1, 1.0) == math.inf


def test_tiny_log_reciprocal_modulus_stays_divergent():
    # 1e-20 / log(1/x): scaling omega moves neither integral's verdict; a
    # stopping rule with an absolute floor called both convergent
    omega = ModulusFamily(lambda u: math.log(1e-20) - np.log(np.maximum(u, 1.0)))
    report = log_dini_test(omega, n_max=1)
    assert report.verdicts == ("diverged", "diverged")
    assert not report.log_dini
    assert pz_bound(omega, 0.25, 1.0) == math.inf


def test_pz_bound_overflow_of_convergent_integrals_raises():
    # every piece converges (about 3.14 in all), but K times it overflows:
    # an overflow, not the divergence verdict
    with pytest.raises(OverflowError):
        pz_bound(ModulusFamily.holder(1.0), 3.0, 1e308)


def test_pz_bound_divergent_far_integral_is_infinite():
    # the near integral is 0, but int_delta (x - delta)^-1.5 / x^2 dx diverges
    omega = lambda x: 0.0 if x <= 0.1 else (x - 0.1) ** -1.5
    assert pz_bound(ModulusFamily.of(omega), 0.1, 1.0) == math.inf


# --- log-Dini classification -----------------------------------------------

def test_log_dini_linear_modulus():
    report = log_dini_test(ModulusFamily.holder(1.0), n_max=6)
    assert report.log_dini
    # oracle: int_0^1 (log(1/x))^n dx = n!
    for n, res in enumerate(report.results):
        assert abs(res.value - math.factorial(n)) < 1e-6 * math.factorial(n)


@pytest.mark.xfail(strict=True, reason="numerics._VALUE_CAP = 1e50 is absolute, and n! passes "
                   "it from n = 42 (ROADMAP item 4)")
def test_log_dini_linear_modulus_past_the_value_cap():
    # int_0^1 (log(1/x))^n dx = n! converges for every n; it reads diverged
    # from n = 42
    assert log_dini_test(ModulusFamily.holder(1.0), n_max=45).log_dini


def test_log_dini_of_a_subnormal_modulus():
    # int_0^inf u^n c e^-u du = c n! with c = 334 units 2^-1074, a whole
    # number of units, so the rounded result is exact; while the nodes
    # underflowed, n = 0..3 read 334, 333, 667 and 2003 units
    unit = math.ldexp(1.0, -1074)
    report = log_dini_test(ModulusFamily(lambda u: math.log(334 * unit) - u), n_max=3)
    for n, res in enumerate(report.results):
        assert res.converged and res.value == 334 * math.factorial(n) * unit


@pytest.mark.parametrize("c, eps", [(1.0, 0.5), (2.0, 0.3), (0.5, 0.8)])
def test_log_dini_stretched_exponential(c, eps):
    report = log_dini_test(ModulusFamily.stretched_exponential(c, eps), n_max=6)
    assert report.log_dini
    assert all(v == "converged" for v in report.verdicts)
    # int_0^inf u^n e^{-c u^q} du = Gamma((n + 1)/q) / (q c^{(n + 1)/q})
    q = 1.0 - eps
    for n, res in enumerate(report.results):
        oracle = math.gamma((n + 1) / q) / (q * c ** ((n + 1) / q))
        assert abs(res.value - oracle) <= 1e-12 * oracle, n


@pytest.mark.parametrize("eta", [-0.25, -0.1, 0.1, 0.25])
@pytest.mark.parametrize("n", [0, 2])
def test_log_dini_verdict_on_both_sides_of_the_threshold(n, eta):
    # omega(e^-u) = u^-p above u = 1: int u^n omega du is finite iff
    # p > n + 1.  Closer to the threshold the 400 halvings of the
    # integrator stop short: at eta = 0.02 they reach u ~ 2^400, where
    # u^-eta is still 0.004, and the verdict reads "diverged".
    p = n + 1 + eta
    omega = ModulusFamily(lambda u: -p * np.log(np.maximum(u, 1.0)))
    report = log_dini_test(omega, n_max=n)
    assert report.verdicts[n] == ("converged" if eta > 0.0 else "diverged")


def test_log_dini_log_reciprocal_diverges_at_zero():
    report = log_dini_test(ModulusFamily.log_reciprocal(), n_max=2)
    assert report.verdicts[0] == "diverged"
    assert not report.log_dini


def test_log_dini_accepts_plain_callable():
    report = log_dini_test(ModulusFamily.of(lambda x: x), n_max=3)
    assert report.log_dini


def test_log_dini_plain_callable_keeps_divergence():
    # read through a plain callable, 1/log(1/x) is sampled down to the
    # smallest normal double and held there; a modulus that read 0 at tiny
    # x would end the divergent tail and report a converged partial sum
    omega = ModulusFamily.log_reciprocal()
    assert omega(1e-320) > 0.0
    report = log_dini_test(ModulusFamily.of(lambda x: omega(x)), n_max=1)
    assert report.verdicts == ("diverged", "diverged")


# the levels each block of an endpoint integral adds: 16, 32, 64, 128, 128, 32
BLOCK_ENDS = (16, 48, 112, 240, 368, 400)


@pytest.mark.parametrize("omega", [
    ModulusFamily.holder(0.5),
    ModulusFamily.stretched_exponential(1.0, 0.5),
    ModulusFamily.log_reciprocal(),
])
def test_log_dini_calls_the_log_form_once_per_block_for_all_orders(omega):
    # each piece evaluates the blocks up to the farthest level any order
    # reads, every open order in the same call of the log form
    calls = []
    counting = ModulusFamily(lambda u: calls.append(u.size) or omega.log_modulus(u))
    report = log_dini_test(counting, n_max=6)
    assert report.results == log_dini_test(omega, n_max=6).results
    head = [integrate_endpoint(lambda u: np.exp(n * np.log(u) + omega.log_modulus(u)), 0.0, 1.0)
            for n in range(7)]
    tail = [integrate_endpoint(lambda t: np.exp(omega.log_modulus(1.0 / t) - (n + 2) * np.log(t)),
                               0.0, 1.0) for n in range(7)]
    blocks = [1 + sum(end < max(res.refinement_levels for res in piece) for end in BLOCK_ENDS)
              for piece in (head, tail)]
    assert len(calls) == sum(blocks)


def test_majorant_log_form_on_a_modulus_is_not_read():
    # omega is read through its values; a Majorant's log form, the density
    # of int Phi dx, must not stand in for log omega(e^-u)
    maj = lambda x: math.sqrt(x)
    maj.log_form = Majorant(maj, 0.5).log_form
    report = log_dini_test(ModulusFamily.of(maj), n_max=3)
    for n, res in enumerate(report.results):
        # int_0^inf u^n e^{-u/2} du
        assert res.value == pytest.approx(math.factorial(n) * 2 ** (n + 1), rel=1e-8)
    plain = ModulusFamily.of(lambda x: math.sqrt(x))
    assert pz_bound(ModulusFamily.of(maj), 0.1, 1.0) == pz_bound(plain, 0.1, 1.0)


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
