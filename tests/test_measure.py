"""Quadrature engine: density values, moment identities, identity resolution."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs import checks, cli, measure, quantize, thermo
from landau_bgcs.bgcs import _node_amplitudes
from landau_bgcs.fock import PhysicalParams, SubspaceSpec
from landau_bgcs.quantize import SymbolSpec, quantize_by_quadrature
from landau_bgcs.measure import (
    QuadratureGrid,
    build_grid,
    integrate,
    integrate_radial,
    measure_density,
    radial_moment_check,
    resolution_of_identity_check,
)
from landau_bgcs.specfun import (
    DomainError,
    EvaluationError,
    ln_bessel_i,
    ln_bessel_k,
    ln_factorial,
)
from conftest import panel_grid

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
    g = panel_grid(8, max_degree=4, cutoff=20.0, n_angular=32)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf),
                                 complex(np.nan, 0.0)])
def test_integrate_names_the_nonfinite_sample(grid, bad):
    def f(u):
        out = np.ones_like(u)
        out[3, 5] = bad
        return out
    where = f"r = {grid.nodes[3]:.6g}, phi = {2.0 * math.pi * 5 / grid.n_angular:.6g}"
    with pytest.raises(EvaluationError, match=f"non-finite integrand sample at {where}"):
        integrate(f, 0, grid, vectorized=True)


def test_finite_samples_whose_sum_overflows_raise(grid):
    # each sample is finite, but a row of 256 of them sums past DBL_MAX
    with pytest.raises(EvaluationError, match="overflows"):
        integrate(lambda u: np.full(u.shape, 1e308), 0, grid, vectorized=True)
    with pytest.raises(EvaluationError, match="overflows"):
        integrate_radial(np.full(grid.nodes.shape, 1e308), 0, grid)


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


# ------------------------------------------------------- integrate workspace

def _angular_integrand(u):
    return np.exp(-np.abs(u)) * (1.0 + 0.3j * u / (1.0 + np.abs(u)))


def _fresh_integrate(f, m, grid):
    # integrate with a freshly allocated node matrix, the formula before the
    # workspace: the result and the matrix f receives
    angles = 2.0 * math.pi * np.arange(grid.n_angular) / grid.n_angular
    z_nodes = grid.nodes[:, None] * np.exp(1j * angles)[None, :]
    vals = np.asarray(f(z_nodes), dtype=np.complex128)
    angular = vals.sum(axis=1) * (2.0 * math.pi / grid.n_angular)
    return complex((grid.radial_weight(m) * angular).sum()), z_nodes


# build_grid (max_degree, cutoff) rules of 608, 448, 576, 608, 2688 and 448
# radial nodes; at degree 934 no panel widens, and its cutoff-600 grid is the
# largest that build_grid makes
_WORKSPACE_GRIDS = [(24, 292.0, 608), (24, 42.0, 448), (24, 120.0, 576),
                    (24, 600.0, 608), (934, 600.0, 2688), (24, 42.0, 448)]


def test_workspace_grows_and_is_reused_bit_for_bit():
    measure._WORKSPACE.rows = None
    largest = 0
    for degree, cutoff, n_radial in _WORKSPACE_GRIDS:
        g = build_grid(max_degree=degree, cutoff=cutoff)
        assert g.nodes.size == n_radial
        seen = []

        def f(u):
            seen.append(u.tobytes())
            return _angular_integrand(u)
        got = integrate(f, 2, g, vectorized=True)
        want, z_nodes = _fresh_integrate(_angular_integrand, 2, g)
        assert repr(got) == repr(want)
        assert seen == [z_nodes.tobytes()]
        largest = max(largest, n_radial * g.n_angular)
        assert measure._WORKSPACE.rows.buffer.size == largest
    assert largest == measure._WORKSPACE_ENTRIES


def test_growing_workspace_frees_the_smaller_buffer_first():
    measure._WORKSPACE.rows = None
    integrate(_angular_integrand, 0, build_grid(cutoff=42.0), vectorized=True)
    smaller = weakref.ref(measure._WORKSPACE.rows.buffer)
    alive = []

    def f(u):
        alive.append(smaller() is not None)
        return _angular_integrand(u)
    integrate(f, 0, build_grid(cutoff=292.0), vectorized=True)
    assert alive == [False]


def test_workspace_larger_than_the_bound_is_not_kept():
    g = build_grid(max_degree=934, max_mode=64, cutoff=600.0)
    assert g.nodes.size * g.n_angular > measure._WORKSPACE_ENTRIES
    measure._WORKSPACE.rows = None
    want, _ = _fresh_integrate(_angular_integrand, 0, g)
    assert repr(integrate(_angular_integrand, 0, g, vectorized=True)) == repr(want)
    assert measure._WORKSPACE.rows is None


# the distinct thermal cutoffs (608/576/512/448 radial nodes), which share
# every row up to the degree's cutoff 42, then the cutoff-600 grid (608) and
# the smallest again
_CYCLE_CUTOFFS = (292.0, 130.0, 60.0, 42.0, 600.0, 42.0)


def _seen_and_result(m, grid):
    seen = []

    def f(u):
        seen.append(u.tobytes())
        return _angular_integrand(u)
    return seen, integrate(f, m, grid, vectorized=True)


def test_kept_rows_give_the_fresh_bits_across_grids_and_angle_counts():
    measure._WORKSPACE.rows = None
    coarse = panel_grid(8, max_degree=4, cutoff=20.0, n_angular=32)
    # the same radii at another angle count share no row
    narrow = dataclasses.replace(build_grid(cutoff=42.0), n_angular=32)
    grids = [build_grid(cutoff=c) for c in _CYCLE_CUTOFFS] + [coarse, narrow]
    inner = build_grid(cutoff=60.0)
    for _ in range(2):
        for g in grids:
            seen, got = _seen_and_result(1, g)
            want, z_nodes = _fresh_integrate(_angular_integrand, 1, g)
            assert repr(got) == repr(want)
            assert seen == [z_nodes.tobytes()]
        # a nested call fills rows of its own and leaves the outer ones whole
        outer_grid = grids[0]
        _, z_outer = _fresh_integrate(_angular_integrand, 1, outer_grid)

        def outer(u):
            seen, c = _seen_and_result(1, inner)
            want, z_inner = _fresh_integrate(_angular_integrand, 1, inner)
            assert repr(c) == repr(want) and seen == [z_inner.tobytes()]
            assert u.tobytes() == z_outer.tobytes()
            return _angular_integrand(u) * c
        c = _fresh_integrate(_angular_integrand, 1, inner)[0]
        want = _fresh_integrate(lambda u: _angular_integrand(u) * c, 1, outer_grid)[0]
        assert repr(integrate(outer, 1, outer_grid, vectorized=True)) == repr(want)


def _mark_first_row():
    # write a value no fill produces into the kept buffer's first entry
    buf = measure._WORKSPACE.rows.buffer
    buf.flags.writeable = True
    buf[0] = -7.0
    buf.flags.writeable = False


def _first_entry(grid):
    # the first node integrate hands its integrand on grid
    seen = []
    integrate(lambda u: seen.append(u[0, 0]) or _angular_integrand(u), 0, grid,
              vectorized=True)
    return seen[0]


def test_warm_repeat_on_the_same_grid_recomputes_no_row():
    g = build_grid(cutoff=292.0)
    integrate(_angular_integrand, 0, g, vectorized=True)
    _mark_first_row()
    assert _first_entry(g) == -7.0
    # a grid that shares the first radius keeps that row too, and a changed
    # radius or angle count refills it
    assert _first_entry(build_grid(cutoff=42.0)) == -7.0
    coarse = panel_grid(8, max_degree=4, cutoff=20.0, n_angular=256)
    assert _first_entry(coarse) == coarse.nodes[0]
    _mark_first_row()
    assert _first_entry(dataclasses.replace(coarse, n_angular=32)) == coarse.nodes[0]


def test_integrand_cannot_make_its_argument_writeable(grid):
    def write(u):
        u.flags.writeable = True
        u[0, 0] = 1.0
        return u
    with pytest.raises(ValueError):
        integrate(write, 0, grid, vectorized=True)
    want, _ = _fresh_integrate(_angular_integrand, 0, grid)
    assert repr(integrate(_angular_integrand, 0, grid, vectorized=True)) == repr(want)


def _scale_in_place(u):
    u *= 2.0
    return u


def _set_in_place(u):
    u[0, 0] = 1.0
    return u


@pytest.mark.parametrize("write", [_scale_in_place, _set_in_place,
                                   lambda u: np.exp(u, out=u)])
def test_integrand_argument_is_read_only(grid, write):
    with pytest.raises(ValueError, match="read-only"):
        integrate(write, 0, grid, vectorized=True)


def test_nested_integrate_gets_its_own_workspace(grid):
    inner_grid = panel_grid(8, max_degree=4, cutoff=20.0, n_angular=32)
    inner = integrate(_angular_integrand, 1, inner_grid, vectorized=True)
    _, z_nodes = _fresh_integrate(_angular_integrand, 1, grid)

    def outer(u):
        before = u.tobytes()
        c = integrate(_angular_integrand, 1, inner_grid, vectorized=True)
        assert repr(c) == repr(inner)
        assert u.tobytes() == before == z_nodes.tobytes()
        return _angular_integrand(u) * c
    flat = integrate(lambda u: _angular_integrand(u) * inner, 0, grid, vectorized=True)
    assert repr(integrate(outer, 0, grid, vectorized=True)) == repr(flat)


def test_threads_never_share_a_workspace():
    grids = [build_grid(cutoff=c) for c in (42.0, 120.0, 292.0)]
    serial = [integrate(_angular_integrand, 3, g, vectorized=True) for g in grids]
    start = threading.Barrier(len(grids), timeout=60.0)
    got = [[] for _ in grids]

    def run(i):
        start.wait()
        for _ in range(30):
            got[i].append(integrate(_angular_integrand, 3, grids[i], vectorized=True))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grids))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, values in zip(serial, got):
        assert [repr(v) for v in values] == [repr(want)] * 30


def test_integrate_after_a_raising_integrand(grid):
    def fails(u):
        raise RuntimeError("integrand failed")
    with pytest.raises(RuntimeError, match="integrand failed"):
        integrate(fails, 0, grid, vectorized=True)
    want, _ = _fresh_integrate(_angular_integrand, 0, grid)
    assert repr(integrate(_angular_integrand, 0, grid, vectorized=True)) == repr(want)


def test_warm_integrate_allocates_no_node_matrix():
    g = build_grid(cutoff=292.0)
    col = (np.exp(-g.nodes) + 0j)[:, None]
    f = lambda u: np.broadcast_to(col, u.shape)
    want = integrate(f, 0, g, vectorized=True)
    tracemalloc.start()
    try:
        got = integrate(f, 0, g, vectorized=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < g.nodes.size * g.n_angular * 16 / 4


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
    for n, m, name in ((2.5, 1, "n"), (True, 0, "n"), (2, 1.5, "m"), (2, True, "m")):
        with pytest.raises(DomainError, match=f"^{name} must be an integer >= 0"):
            radial_moment_check(n, m, grid)


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
    coarse = panel_grid(6, max_degree=24)
    angles = 2.0 * math.pi * np.arange(coarse.n_angular) / coarse.n_angular
    for d in (1, 2, 5, 9):
        s = np.exp(1j * d * angles).sum() * (2.0 * math.pi / coarse.n_angular)
        assert abs(s) < 1e-12


def test_identity_is_the_radial_gram_diagonal():
    # 2 pi sum_r w a_nu^2 against 1, whatever the angular sampling
    wide = build_grid(max_degree=24, max_mode=16)
    narrow = dataclasses.replace(build_grid(max_degree=24), n_angular=4)
    for m in (0, 3):
        sp = SubspaceSpec(m, depth=12)
        got = resolution_of_identity_check(sp, 8, wide)
        assert got == resolution_of_identity_check(sp, 8, narrow)
        amp = _node_amplitudes(m, wide, 9)
        gram = [integrate_radial(amp[:, nu] ** 2, m, wide) for nu in range(9)]
        # both are rounding residuals, summed in different orders
        assert abs(got - max(abs(g - 1.0) for g in gram)) <= 4e-15
        assert got < 1e-13


def test_identity_grid_convergence():
    g1 = build_grid(max_degree=20, max_mode=16)
    g2 = panel_grid(32, width=1.0, max_degree=20)
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
    for n_check in (-1, True, 1.5):
        with pytest.raises(DomainError, match="^n_check must be an integer >= 0"):
            resolution_of_identity_check(SubspaceSpec(0, depth=12), n_check, grid)


# ---------------------------------------------------------------- grid API

def test_grid_basic_properties(grid):
    assert np.all(grid.weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0
    assert grid.nodes[-1] <= grid.cutoff
    assert grid.n_angular == 256


def test_grid_angular_autoraise():
    g = build_grid(max_degree=4, max_mode=100)
    assert g.n_angular == 408


def test_build_grid_panel_edges():
    # graded panels up to _PANEL_WIDTH / 4, then [_PANEL_WIDTH / 4,
    # 2 _PANEL_WIDTH], then uniform panels _FAR_PANEL_WIDTH wide, the last
    # cut short at the cutoff, 32 points each: moving an edge moves every grid
    g = build_grid(max_degree=24)
    half = g.weights.reshape(-1, 32).sum(axis=1) / 2.0
    mid = g.nodes.reshape(-1, 32).mean(axis=1)
    edges = np.append(mid - half, mid[-1] + half[-1])
    want = np.concatenate(([0.0], 2.0 * 4.0 ** np.arange(-8.0, 0.0),
                           [4.0, 12.0, 20.0, 28.0, 36.0, 42.0]))
    assert g.cutoff == 42.0
    np.testing.assert_allclose(edges, want, rtol=1e-13, atol=1e-16)


def test_library_grids_are_the_plain_radial_grids(monkeypatch):
    # every grid the library builds (three suites, identity at n_check 40,
    # two thermal cutoffs) is build_grid(max_degree, cutoff), with its 256
    # angles: no caller asks for angles of its own.  Its nodes and weights
    # are the 32-point panels laid out anew by the tests' panel_grid, bit
    # for bit, so sharing the grids moved none of them
    built = []

    def recording(*args, **kw):
        built.append(build_grid(*args, **kw))
        return built[-1]
    monkeypatch.setattr(checks, "build_grid", recording)
    monkeypatch.setattr(cli, "build_grid", recording)
    for suite in ("identity", "kernel", "quantize"):
        checks.run_suite(suite)
    assert cli.main(["identity", "--m", "0", "--n-check", "40"]) == 0
    assert len(built) == 6 and built[-1].max_degree == 82
    thermal = [thermo.thermal_grid(thermo.ThermalSpec(PhysicalParams(), beta=b,
                                                      gap_energy=1.0))
               for b in (0.1, 3.0)]
    assert [g.cutoff for g in thermal] == [292.0, 42.0]
    assert thermo._THERMAL_MIN_CUTOFF == 42.0
    for g in built + thermal:
        assert g is build_grid(max_degree=g.max_degree, cutoff=g.cutoff)
        want = panel_grid(32, far_width=measure._FAR_PANEL_WIDTH, widen=True,
                          max_degree=g.max_degree, cutoff=g.cutoff)
        assert g.nodes.tobytes() == want.nodes.tobytes()
        assert g.weights.tobytes() == want.weights.tobytes()
        assert g.n_angular == want.n_angular == 256


# ------------------------------------------------------ wide far panels

# the 8-wide panels past r = 4 hold every radial moment, the frame at its
# largest n_check and the thermal P normalisation where it is hardest; a
# sector's lowest moment, n = m, has degree m + 1
_MOMENT_CASES = [(d, m) for d in (24, 82, 200, 801) for m in (0, 1, 5, 20, 36)
                 if m + 1 <= d]


@pytest.mark.parametrize("degree,m", _MOMENT_CASES)
def test_far_panels_keep_every_radial_moment(degree, m):
    # every (n, m) moment of degree <= max_degree, Gamma-exact to the
    # log-space rounding of its target (9.1e-13 at degree 801)
    g = build_grid(max_degree=degree)
    last = (degree + m - 1) // 2
    assert max(radial_moment_check(n, m, g) for n in range(m, last + 1)) <= 1e-12


@pytest.mark.parametrize("m", [0, 1, 5, 20, 36])
def test_far_panels_keep_the_frame_at_n_check_400(m):
    # the Gram diagonal up to nu = 400 sums log-space amplitudes whose
    # rounding alone reaches about 1e-12 at this degree
    g = build_grid(max_degree=801 + m)
    assert resolution_of_identity_check(SubspaceSpec(m, depth=None), 400, g) <= 2e-12


# p_normalization_check on the 2-wide far panels, where the P profile is
# steepest; its mass sits near the origin, so the far width moves no bit
_P_NORM_2_WIDE = {
    (6.0, 0): 3.377298440909726e-13, (6.0, 1): 9.992007221626409e-16,
    (6.0, 4): 5.551115123125783e-16, (10.0, 0): 1.8489876296712282e-11,
    (10.0, 1): 3.3306690738754696e-16, (10.0, 4): 2.220446049250313e-15,
    (20.0, 0): 4.072821477851818e-07, (20.0, 1): 5.896394483784206e-13,
    (20.0, 4): 3.6637359812630166e-15,
}


@pytest.mark.parametrize("beta_gap,m", sorted(_P_NORM_2_WIDE))
def test_far_panels_keep_the_p_normalization(beta_gap, m):
    params = PhysicalParams(omega0=1.0, omega_c=1.0)
    ts = thermo.ThermalSpec(params, beta=beta_gap / params.epsilon_gap, m=m)
    got = thermo.p_normalization_check(ts, thermo.thermal_grid(ts))
    assert got <= _P_NORM_2_WIDE[beta_gap, m]


# ------------------------------------------ panels past the degree's cutoff

# beta gap of the hot thermal grids: cutoffs 596, 292, 130 and 60 against the
# degree-24 cutoff 42
_HOT_BETA_GAPS = (0.0495, 0.1, 0.227, 0.514)


def _thermal(beta_gap, m=0):
    return thermo.ThermalSpec(PhysicalParams(), beta=beta_gap, m=m, gap_energy=1.0)


def _mp_gauss_legendre(n):
    # the n-point Gauss-Legendre rule to the working precision: numpy's
    # nodes refined by Newton steps on P_n
    import mpmath as mp
    nodes, weights = [], []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        t = mp.mpf(x0)
        for _ in range(4):
            dp = n * (t * mp.legendre(n, t) - mp.legendre(n - 1, t)) / (t * t - 1)
            t -= mp.legendre(n, t) / dp
        dp = n * (t * mp.legendre(n, t) - mp.legendre(n - 1, t)) / (t * t - 1)
        nodes.append(t)
        weights.append(2 / ((1 - t * t) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("beta_gap", _HOT_BETA_GAPS)
def test_widened_panels_hold_the_moments_and_the_thermal_decay(beta_gap):
    # on each panel past 42, the 32-point rule misses r^p e^{-2r} (p <= 24)
    # and r e^{-c r}, at the grid's Husimi and P rates c, by at most 1e-16
    # of the integral over (0, inf)
    import mpmath as mp
    with mp.workdps(40):
        x, w = _mp_gauss_legendre(32)
        g = thermo.thermal_grid(_thermal(beta_gap))
        assert g.cutoff > 42.0 and g.max_degree == 24
        mids = g.nodes.reshape(-1, 32).mean(axis=1)
        halves = g.weights.reshape(-1, 32).sum(axis=1) / 2.0
        panels = [(mp.mpf(c) - h, mp.mpf(c) + h) for c, h in zip(mids, halves)
                  if c - h > 42.0 - 1e-9]
        assert len(panels) >= 2 and panels[-1][1] == pytest.approx(g.cutoff)
        a = 0.5 * beta_gap
        cases = [(p, mp.mpf(2)) for p in range(25)]
        cases += [(1, mp.mpf(2.0 * (1.0 - math.exp(-a)))), (1, mp.mpf(2.0 * math.expm1(a)))]
        for p, c in cases:
            full = mp.factorial(p) / c ** (p + 1)
            for lo, hi in panels:
                mid, half = (lo + hi) / 2, (hi - lo) / 2
                rule = half * mp.fsum(wi * (mid + half * xi) ** p * mp.exp(-c * (mid + half * xi))
                                      for xi, wi in zip(x, w))
                exact = mp.gammainc(p + 1, c * lo, c * hi) / c ** (p + 1)
                assert abs(rule - exact) <= 1e-16 * full, (p, c, lo, hi)


def _thermal_routes(ts, g):
    return {"husimi_norm": thermo.husimi_normalization_check(ts, g),
            "p_norm": thermo.p_normalization_check(ts, g),
            "occupancy": thermo.thermal_mean_n_quadrature(ts, g),
            "g": thermo.thermal_g_quadrature(ts, g),
            "q2": thermo.thermal_q2_three_ways(ts, g).p_quadrature,
            "population_0": thermo.fock_population_reconstruction(0, ts, g),
            "population_5": thermo.fock_population_reconstruction(5, ts, g),
            "wehrl": thermo.wehrl_entropy(ts, g).quadrature}


@pytest.mark.parametrize("beta_gap", _HOT_BETA_GAPS)
@pytest.mark.parametrize("m", [0, 1, 4, 20, 36])
def test_thermal_routes_on_widened_panels_agree_with_8_wide_panels(beta_gap, m):
    # the same routes on 8-wide panels all the way to the cutoff: the two
    # normalisation residuals to 1e-13, every other value to 1e-13 relative
    ts = _thermal(beta_gap, m)
    g = thermo.thermal_grid(ts)
    full = panel_grid(32, far_width=8.0, max_degree=24, cutoff=g.cutoff)
    assert full.nodes.size >= g.nodes.size
    assert full.nodes[-32:].tobytes() != g.nodes[-32:].tobytes()
    got, want = _thermal_routes(ts, g), _thermal_routes(ts, full)
    for name, value in want.items():
        scale = 1.0 if name.endswith("_norm") else abs(value)
        assert abs(got[name] - value) <= 1e-13 * scale, name


def test_thermal_grids_stop_growing_with_the_temperature():
    # beta gap 0.0492 needs the 600 cap; past 42 no cutoff lays more than
    # six widened panels, so no thermal grid has more than 20 panels
    sizes = {}
    for beta_gap in np.geomspace(0.0492, 1.0, 200).tolist():
        g = thermo.thermal_grid(_thermal(beta_gap))
        sizes[g.cutoff] = g.nodes.size
    assert max(sizes) == 600.0 and min(sizes) == 42.0
    assert max(sizes.values()) <= 640
    assert sizes[600.0] == sizes[292.0] == 608 and sizes[42.0] == 448


def test_cold_grid_nodes_are_a_prefix_of_every_hot_grid():
    # the panels up to the degree's cutoff 42 are the cold grid's, bit for
    # bit, at every even cutoff a thermal grid takes
    cold = build_grid(max_degree=24)
    assert cold.cutoff == 42.0
    n = cold.nodes.size
    for cutoff in range(44, 601, 2):
        g = build_grid(max_degree=24, cutoff=float(cutoff))
        assert g.nodes[:n].tobytes() == cold.nodes.tobytes(), cutoff
        assert g.weights[:n].tobytes() == cold.weights.tobytes(), cutoff
        assert g.nodes[n] > 42.0


def test_no_panel_is_a_sliver():
    # 42 + 4 (8 x 176.4 / 42) rounds to within 1e-9 of the cutoff 176.4: that
    # edge is the cutoff, not the start of a panel 3e-14 wide
    g = build_grid(max_degree=24, cutoff=176.4)
    halves = g.weights.reshape(-1, 32).sum(axis=1) / 2.0
    assert g.nodes.size == 576 and halves.min() > 1e-5
    assert g.nodes.tobytes() == panel_grid(32, far_width=8.0, widen=True,
                                           max_degree=24, cutoff=176.4).nodes.tobytes()


# ------------------------------------------------------------- shared grids

def test_grid_is_shared_per_rule():
    g = build_grid(max_degree=24)
    assert build_grid(24, 32, 42) is g and build_grid(max_degree=24, cutoff=42) is g
    assert thermo.thermal_grid(thermo.ThermalSpec(PhysicalParams(), beta=3.0,
                                                  gap_energy=1.0)) is g
    # max_mode only moves the rule once it raises the angle count past 256
    for d in (0, 8, 40):
        for k in (0, 10, 62):
            assert build_grid(d, max_mode=k) is build_grid(d)
        assert build_grid(d, max_mode=63) is not build_grid(d)
        assert build_grid(d, max_mode=63).n_angular == 260
    assert build_grid(24, cutoff=44.0) is not g


def test_grid_memo_is_bounded():
    # ten distinct cutoffs, each its own rule, and the oldest ones dropped
    grids = [build_grid(max_degree=4, cutoff=c) for c in range(30, 50, 2)]
    info = measure._shared_grid.cache_info()
    assert info.currsize <= info.maxsize == measure._SHARED_GRIDS == 8
    assert build_grid(max_degree=4, cutoff=48) is grids[-1]
    assert build_grid(max_degree=4, cutoff=30) is not grids[0]


def test_identity_command_twice_reads_the_warm_grid(kernel_calls, capsys):
    argv = ["identity", "--m", "3", "--n-check", "40"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    cold = dict(kernel_calls)
    assert cold["i"] + cold["k"] > 0
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert kernel_calls == cold


def test_suites_twice_give_the_same_results():
    first = [r.as_dict() for r in checks.run_suite("all")]
    assert [r.as_dict() for r in checks.run_suite("all")] == first


def test_grid_explicit_cutoff_respected():
    g = build_grid(max_degree=4, max_mode=4, cutoff=25.0)
    assert g.cutoff == 25.0


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        build_grid(max_degree=30, max_mode=4, cutoff=10.0)  # tail impossible
    with pytest.raises(ValueError):
        build_grid(max_degree=-1)
    for degree, mode, name in ((2.5, 2, "max_degree"), (True, 2, "max_degree"),
                               (4, 2.5, "max_mode"), (4, True, "max_mode")):
        with pytest.raises(DomainError, match=f"^{name} must be an integer >= 0"):
            build_grid(max_degree=degree, max_mode=mode)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]),
                       cutoff=30.0, n_angular=64, max_degree=0)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]),
                       cutoff=30.0, n_angular=64, max_degree=0)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, 1.0]),
                       cutoff=30.0, n_angular=0, max_degree=0)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 0.0, -1.0, 600.5])
def test_build_grid_rejects_bad_cutoffs(cutoff):
    # checked before any panel is laid: an inf cutoff would never stop
    with pytest.raises(DomainError, match=r"^cutoff must be in \(0, 600\]"):
        build_grid(max_degree=8, cutoff=cutoff)


def test_build_grid_accepts_the_cutoff_bound():
    assert measure._MAX_CUTOFF == 600.0
    assert build_grid(max_degree=8, cutoff=600.0).cutoff == 600.0
    with pytest.raises(DomainError, match="cannot satisfy tail tolerance"):
        build_grid(max_degree=1200)


def _two_node_grid(**kw):
    args = dict(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, 1.0]),
                cutoff=30.0, n_angular=64, max_degree=0)
    return QuadratureGrid(**{**args, **kw})


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_cutoff(cutoff):
    with pytest.raises(ValueError, match="^cutoff must be finite"):
        _two_node_grid(cutoff=cutoff)


@pytest.mark.parametrize("degree", [-3, 2.5, True])
def test_grid_max_degree_is_an_order(degree):
    with pytest.raises(DomainError, match="^max_degree must be an integer >= 0"):
        _two_node_grid(max_degree=degree)


def test_grid_max_degree_is_stored_as_int():
    g = _two_node_grid(max_degree=np.int64(4))
    assert type(g.max_degree) is int and g.max_degree == 4


def test_tail_check_needs_the_cutoff_past_the_moment_peak():
    # R^p e^{-2R} bounds the tail only past r = p / 2: at R = 42 and p = 200
    # it would pass although the grid misses the degree-199 moment entirely
    assert measure._ln_relative_tail(42.0, 200) == math.inf
    assert measure._ln_relative_tail(100.0, 200) == math.inf
    assert measure._ln_relative_tail(101.0, 200) < math.inf
    with pytest.raises(ValueError, match="too small for degree 200"):
        build_grid(max_degree=200, cutoff=42.0)
    with pytest.raises(ValueError, match="too small for degree 1000000000"):
        _two_node_grid(max_degree=1e9)
    # every grid _required_cutoff picks starts 10 past the peak
    for degree in (0, 24, 200, 800):
        assert measure._required_cutoff(degree) >= 0.5 * degree + 10.0


def test_grid_arrays_read_only(grid):
    with pytest.raises(ValueError):
        grid.nodes[0] = 5.0


def test_radial_weight_cached_read_only():
    g = panel_grid(8, max_degree=8)
    w = g.radial_weight(3)
    assert g.radial_weight(3) is w
    density = np.array([measure_density(r, 3) for r in g.nodes])
    assert np.array_equal(w, g.weights * g.nodes * density)
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert g.radial_weight(0) is not w


def test_radial_weight_cache_is_per_instance():
    # a dataclasses.replace copy of a shared grid has a cache of its own
    a = build_grid(max_degree=8, max_mode=4)
    b = dataclasses.replace(a)
    w = a.radial_weight(1)
    assert b._profiles == {}
    assert b.radial_weight(1) is not w
    assert np.array_equal(b.radial_weight(1), w)
    # True hashes like 1 but is no order: the cache must not answer for it
    with pytest.raises(DomainError):
        a.radial_weight(True)
    assert "_radial_weights" not in repr(a)


# ---------------------------------------------------- Bessel profile cache

def _small_grid():
    return panel_grid(8, max_degree=8)


@pytest.mark.parametrize("m", [0, 1, 2, 4, 9])
def test_cached_bessel_logs_are_the_kernel_bits(m):
    g = _small_grid()
    for factor in (1.0, math.exp(-0.05), math.exp(3.0)):
        x = (2.0 * g.nodes) * factor
        want_i, want_k = ln_bessel_i(m, x), ln_bessel_k(m, x)
        for _ in range(2):  # cold, then read back from the cache
            assert np.array_equal(g._ln_bessel("i", m, factor), want_i)
            assert np.array_equal(g._ln_bessel("k", m, factor), want_k)


def test_profile_cache_is_per_instance_and_bounded():
    a = dataclasses.replace(build_grid(max_degree=8))
    b = dataclasses.replace(a)
    first = a._ln_bessel("k", 0, 1.0)
    assert len(a._profiles) == 1 and len(b._profiles) == 0
    assert "_profiles" not in repr(a)
    cap = measure._PROFILE_CACHE_SIZE
    for j in range(cap + 5):
        a._ln_bessel("i", j % 7, 1.0 + 0.01 * j)
    assert len(a._profiles) <= cap
    # the oldest entry went first, and comes back with the same bits
    assert ("k", 0, 1.0) not in a._profiles
    assert np.array_equal(a._ln_bessel("k", 0, 1.0), first)
    assert np.array_equal(b._ln_bessel("k", 0, 1.0), first)


def test_quadrature_amplitudes_are_built_once_per_grid_sector_and_depth(monkeypatch):
    g = dataclasses.replace(build_grid(max_degree=2 * 8 + 3 + 3))
    builds = []

    def counted(m, grid, n):
        builds.append((m, n))
        return _node_amplitudes(m, grid, n)
    monkeypatch.setattr(quantize, "_node_amplitudes", counted)
    sym, spec = SymbolSpec("q_sq"), SubspaceSpec(3, depth=8)
    cold = quantize_by_quadrature(sym, spec, g)
    warm = quantize_by_quadrature(sym, spec, g)
    assert builds == [(3, 9)]
    assert cold.entries.tobytes() == warm.entries.tobytes()
    amp = g._profiles[("amp", 3, 9)]
    assert amp.tobytes() == _node_amplitudes(3, g, 9).tobytes() and not amp.flags.writeable
    # the Gram diagonal is cached itself and keeps no amplitude entry
    resolution_of_identity_check(SubspaceSpec(3, depth=10), 8, g)
    assert [k for k in g._profiles if k[0] == "amp"] == [("amp", 3, 9)]


def test_profile_cache_input_rules(monkeypatch):
    g = _small_grid()
    for factor in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            g._ln_bessel("i", 2, factor)
    g._ln_bessel("i", 1, 1)
    g._ln_bessel("i", 1, 1.0)
    assert list(g._profiles) == [("i", 1, 1.0)]
    assert not g._profiles[("i", 1, 1.0)].flags.writeable
    # True hashes like 1 but is no order: it must not read the entry for 1
    with pytest.raises(DomainError):
        g._ln_bessel("i", True, 1.0)

    calls = []

    def failing(m, x):
        calls.append(m)
        raise EvaluationError("no convergence")
    monkeypatch.setattr(measure, "_ln_bessel_k_scaled", failing)
    for _ in range(2):
        with pytest.raises(EvaluationError):
            g._ln_bessel("k", 3, 1.0)
    assert len(calls) == 2 and ("k", 3, 1.0) not in g._profiles


def test_radial_weight_out_of_range_is_not_cached():
    g = _small_grid()
    for _ in range(2):
        with pytest.raises(EvaluationError, match="order-200"):
            g.radial_weight(200)
    assert ("weight", 200) not in g._profiles


def test_identity_suite_evaluates_each_profile_once(kernel_calls):
    # frame identity at m = 0, 2, 4 reads ln I_m and ln K_m; the moment
    # family reads ln K_m for m = 0..5: nine distinct profiles on one grid
    checks.run_suite("identity")
    assert kernel_calls["i"] + kernel_calls["k"] <= 9, kernel_calls


# ---------------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=30))
def test_harmonic_orthogonality_property(k):
    g = panel_grid(8, cutoff=15.0)
    val = integrate(lambda u: (u / np.abs(u)) ** k, 1, g, vectorized=True)
    assert abs(val) < 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=10), m=st.integers(min_value=0, max_value=4))
def test_radial_moment_property(n, m, grid):
    assert radial_moment_check(max(n, m), m, grid) < 1e-8
