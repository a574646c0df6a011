"""Quadrature engine: density values, moment identities, identity resolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs.fock import SubspaceSpec
from landau_bgcs.measure import (
    QuadratureGrid,
    build_grid,
    integrate,
    integrate_radial,
    measure_density,
    radial_moment_check,
    resolution_of_identity_check,
)
from landau_bgcs.specfun import DomainError, EvaluationError, ln_bessel_i, ln_factorial

# density values frozen from a 40-digit reference evaluation
_DENSITY_CASES = [
    (1.0, 0, 0.165286099742625313457),
    (2.5, 3, 0.0545350808404076699044),
]


@pytest.fixture(scope="module")
def grid():
    return build_grid(max_degree=24, max_mode=32)


@pytest.fixture(scope="module")
def deep_grid():
    return build_grid(max_degree=36, max_mode=16)


# ---------------------------------------------------------------- density

@pytest.mark.parametrize("r,m,want", _DENSITY_CASES)
def test_density_frozen_values(r, m, want):
    assert measure_density(r, m) == pytest.approx(want, rel=1e-14)


def test_density_at_origin():
    assert measure_density(0.0, 0) == math.inf
    assert measure_density(0.0, 2) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert measure_density(0.0, 7) == pytest.approx(1.0 / (7.0 * math.pi), rel=1e-15)


def test_density_scaled_route_continuous():
    lo = measure_density(40.0 - 1e-9, 1)
    hi = measure_density(40.0 + 1e-9, 1)
    assert lo == pytest.approx(hi, rel=1e-10)


def test_density_negative_order_rejected():
    with pytest.raises(DomainError):
        measure_density(1.0, -1)


def test_density_out_of_range_raises():
    # I_200(1) underflows to 0 while K_200(1) overflows: the product would be NaN
    with pytest.raises(EvaluationError, match="order-200"):
        measure_density(0.5, 200)
    assert measure_density(0.0, 200) == pytest.approx(1.0 / (200.0 * math.pi), rel=1e-15)


def test_density_array_route_is_the_scalar_route():
    # an array of radii (or complex labels) gives, element by element, the
    # bits of the scalar call, the origin limit included
    r = np.array([0.0, 1e-3, 1.0, 2.5, 39.9, 40.1, 250.0])
    for m in (0, 3):
        got = measure_density(r, m)
        assert np.array_equal(got, [measure_density(float(v), m) for v in r])
        assert np.array_equal(measure_density(r * np.exp(0.4j), m), got)
    with pytest.raises(EvaluationError, match="order-200"):
        measure_density(np.array([3.0, 0.5]), 200)


@pytest.mark.parametrize("m", [0, 1, 4, 12])
def test_density_vs_mpmath_across_radii(m):
    # the large e^{2r} and e^{-2r} of I_m and K_m never enter the sum, so the
    # density keeps a few ulps out to the thermal cutoffs
    mpmath = pytest.importorskip("mpmath")
    r = np.array([1e-3, 0.1, 1.0, 7.0, 15.0, 22.5, 30.0, 40.0, 41.0, 60.0,
                  100.0, 150.0, 300.0])
    with mpmath.workdps(30):
        want = np.array([float(2 / mpmath.pi * mpmath.besseli(m, 2 * mpmath.mpf(v))
                               * mpmath.besselk(m, 2 * mpmath.mpf(v))) for v in r])
    assert np.max(np.abs(measure_density(r, m) / want - 1.0)) <= 1e-14


def test_radial_density_flattens_at_large_radius():
    # r * density * 2 pi -> 1: the plane carries mass linearly in the cutoff
    val = 2.0 * math.pi * 80.0 * measure_density(80.0, 0)
    assert abs(val - 1.0) < 0.01


def test_total_mass_grows_with_cutoff():
    # the measure is not normalizable: doubling the cutoff adds ~R/2 of mass,
    # exactly as for the flat Glauber phase-space measure
    one = lambda u: np.ones_like(u)
    small = build_grid(max_degree=0, max_mode=0, cutoff=20.0).nodes  # sanity: builds
    m1 = integrate(one, 0, build_grid(max_degree=0, max_mode=0, cutoff=20.0),
                   vectorized=True).real
    m2 = integrate(one, 0, build_grid(max_degree=0, max_mode=0, cutoff=40.0),
                   vectorized=True).real
    assert small.size > 0
    assert m2 > m1 > 10.0
    assert 15.0 < m2 - m1 < 25.0


# ---------------------------------------------------------------- integrate

def test_pure_harmonic_integrates_to_zero(grid):
    val = integrate(lambda u: u / np.abs(u), 0, grid, vectorized=True)
    assert abs(val) < 1e-14 * grid.cutoff


def test_moment_function_reduces_to_radial_identity(grid):
    # |z|^2 / I_0(2|z|) strips the I_0 factor from the measure, leaving the
    # degree-3 radial moment whose exact value is Gamma(2)^2 = 1
    f = lambda u: np.abs(u) ** 2 / np.exp(ln_bessel_i(0, 2.0 * np.abs(u)))
    val = integrate(f, 0, grid, vectorized=True)
    assert val.real == pytest.approx(1.0, abs=1e-8)
    assert abs(val.imag) < 1e-12


def test_integrate_scalar_and_vectorized_agree():
    g = build_grid(max_degree=4, max_mode=4, cutoff=20.0, points_per_panel=8,
                   n_angular=32)
    # |u|^2 spelled without pow or abs, so a scalar and an array sample of
    # the same node round identically and only the two routes are compared
    f = lambda u: u.real * u.real + u.imag * u.imag
    a = integrate(f, 1, g)
    b = integrate(f, 1, g, vectorized=True)
    assert a == b


def test_integrate_rejects_nonfinite_samples(grid):
    def bad(u):
        out = np.ones_like(u)
        out[3, 5] = np.nan
        return out
    with pytest.raises(Exception) as err:
        integrate(bad, 0, grid, vectorized=True)
    assert "non-finite" in str(err.value)


def test_integrate_radial_is_integrate_of_a_radial_profile(grid):
    r = grid.nodes
    vals = r ** 3 * np.exp(-r)
    want = integrate(lambda u: np.broadcast_to(vals[:, None], u.shape), 2, grid,
                     vectorized=True)
    assert integrate_radial(vals, 2, grid) == pytest.approx(want.real, rel=1e-14)


def test_integrate_radial_rejects_bad_samples(grid):
    vals = np.ones(grid.nodes.size)
    vals[7] = np.inf
    with pytest.raises(EvaluationError, match="non-finite"):
        integrate_radial(vals, 0, grid)
    with pytest.raises(ValueError):
        integrate_radial(np.ones(grid.nodes.size + 1), 0, grid)


def test_integrate_out_of_range_sector_raises(grid):
    with pytest.raises(EvaluationError):
        integrate(lambda u: np.ones_like(u), 200, grid, vectorized=True)


def test_integrate_deterministic(grid):
    f = lambda u: np.exp(-np.abs(u)) * (1.0 + 0.3j * u / (1.0 + np.abs(u)))
    assert integrate(f, 2, grid, vectorized=True) \
        == integrate(f, 2, grid, vectorized=True)


# ---------------------------------------------------------------- moments

def test_radial_moment_simplest(grid):
    assert radial_moment_check(0, 0, grid) < 1e-8


def test_radial_moment_gamma_product_arithmetic():
    assert math.exp(ln_factorial(3) + ln_factorial(5)) == pytest.approx(720.0, rel=1e-14)


@pytest.mark.parametrize("n,m", [(5, 2), (8, 0), (12, 3)])
def test_radial_moment_midrange(n, m, grid):
    assert radial_moment_check(n, m, grid) < 1e-8


def test_radial_moment_deep(deep_grid):
    assert radial_moment_check(20, 5, deep_grid) < 1e-8


def test_radial_moment_validation(grid):
    with pytest.raises(DomainError):
        radial_moment_check(1, 2, grid)
    with pytest.raises(ValueError):
        radial_moment_check(40, 0, grid)


# ---------------------------------------------------------------- identity

def test_identity_resolution_m0(grid):
    dev = resolution_of_identity_check(SubspaceSpec(0, depth=12), 8, grid)
    assert dev < 1e-6


def test_identity_resolution_m4(grid):
    dev = resolution_of_identity_check(SubspaceSpec(4, depth=10), 6, grid)
    assert dev < 1e-6


def test_identity_resolution_auto_depth(grid):
    dev = resolution_of_identity_check(SubspaceSpec(1, depth=None), 5, grid)
    assert dev < 1e-6


def test_identity_offdiagonal_killed_by_angle_sums(grid):
    # coarse radial sampling cannot disturb the off-diagonal zeros: those
    # vanish through the angular sums alone
    coarse = build_grid(max_degree=24, max_mode=32, points_per_panel=6)
    for d in (1, 2, 5, 9):
        s = np.exp(1j * d * coarse.angles).sum() * (2.0 * math.pi / coarse.n_angular)
        assert abs(s) < 1e-12


def test_identity_grid_convergence():
    g1 = build_grid(max_degree=20, max_mode=16)
    g2 = build_grid(max_degree=20, max_mode=16, panel_width=1.0)
    sp = SubspaceSpec(0, depth=12)
    a = resolution_of_identity_check(sp, 8, g1)
    b = resolution_of_identity_check(sp, 8, g2)
    assert abs(a - b) < 1e-8


def test_identity_validation(grid):
    with pytest.raises(ValueError):
        resolution_of_identity_check(SubspaceSpec(0, depth=8), 7, grid)
    with pytest.raises(ValueError):
        resolution_of_identity_check(SubspaceSpec(0, depth=40), 30, grid)
    small = build_grid(max_degree=6, max_mode=4)
    with pytest.raises(ValueError):
        resolution_of_identity_check(SubspaceSpec(0, depth=12), 8, small)


# ---------------------------------------------------------------- grid API

def test_grid_basic_properties(grid):
    assert np.all(grid.weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0
    assert grid.nodes[-1] <= grid.cutoff
    assert grid.angles.size == grid.n_angular


def test_grid_angular_autoraise():
    g = build_grid(max_degree=4, max_mode=100)
    assert g.n_angular == 408


def test_grid_explicit_cutoff_respected():
    g = build_grid(max_degree=4, max_mode=4, cutoff=25.0)
    assert g.cutoff == 25.0


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        build_grid(max_degree=30, max_mode=4, cutoff=10.0)  # tail impossible
    with pytest.raises(ValueError):
        build_grid(max_degree=-1)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]),
                       cutoff=30.0, n_angular=64, max_degree=0, max_mode=4)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]),
                       cutoff=30.0, n_angular=64, max_degree=0, max_mode=4)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, 1.0]),
                       cutoff=30.0, n_angular=8, max_degree=0, max_mode=4)


def test_grid_arrays_read_only(grid):
    with pytest.raises(ValueError):
        grid.nodes[0] = 5.0


def test_radial_weight_cached_read_only():
    g = build_grid(max_degree=8, max_mode=4, points_per_panel=8)
    w = g.radial_weight(3)
    assert g.radial_weight(3) is w
    density = np.array([measure_density(r, 3) for r in g.nodes])
    assert np.array_equal(w, g.weights * g.nodes * density)
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert g.radial_weight(0) is not w


def test_radial_weight_cache_is_per_instance():
    a = build_grid(max_degree=8, max_mode=4, points_per_panel=8)
    b = build_grid(max_degree=8, max_mode=4, points_per_panel=8)
    w = a.radial_weight(1)
    assert b.radial_weight(1) is not w
    assert np.array_equal(b.radial_weight(1), w)
    # True hashes like 1 but is no order: the cache must not answer for it
    with pytest.raises(DomainError):
        a.radial_weight(True)
    assert "_radial_weights" not in repr(a)


# ---------------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=30))
def test_harmonic_orthogonality_property(k):
    g = build_grid(max_degree=0, max_mode=32, cutoff=15.0, points_per_panel=8)
    val = integrate(lambda u: (u / np.abs(u)) ** k, 1, g, vectorized=True)
    assert abs(val) < 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=10), m=st.integers(min_value=0, max_value=4))
def test_radial_moment_property(n, m, grid):
    assert radial_moment_check(max(n, m), m, grid) < 1e-8
