"""Thermal-state routes: partition sums, diagonal densities, entropy, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs.bgcs import CoherentLabel, _ln_bessel_i, mean_k3, mean_n, mean_n_sq
from landau_bgcs.fock import DomainError, PhysicalParams
from landau_bgcs.measure import integrate
from landau_bgcs.specfun import bessel_k_scaled, ln_factorial
from landau_bgcs.thermo import (
    SecondMomentReport,
    ThermalSpec,
    WehrlReport,
    fock_population_reconstruction,
    husimi_normalization_check,
    husimi_thermal,
    husimi_thermal_strong_field,
    level_weight,
    p_function,
    p_normalization_check,
    partition_function,
    partition_function_direct,
    partition_function_hypergeometric,
    thermal_average,
    thermal_g,
    thermal_g_quadrature,
    thermal_grid,
    thermal_mean_n,
    thermal_mean_n_quadrature,
    thermal_mean_n_sq,
    thermal_mean_n_sq_quadrature,
    thermal_q2_closed,
    thermal_q2_three_ways,
    thermal_summary,
    wehrl_entropy,
)

# mpmath oracle values of -int h ln h d(measure), 30-digit working precision
_W_20 = 0.8803135643650416
_W_30 = 0.7518842581881834
_W_40 = 0.7060396666367903
_W_21 = 0.9507458597833718
_W_32 = 0.8816164897914433
# zero-temperature limit at m = 0: 4 int r K_0(2r) ln I_0(2r) dr
_W_COLD_0 = 0.6796114980565471

_PARAMS = PhysicalParams(omega0=1.0, omega_c=1.0)
_GAP = _PARAMS.epsilon_gap


def _ts(beta_gap, m=0, **kw):
    return ThermalSpec(_PARAMS, beta=beta_gap / _GAP, m=m, **kw)


@pytest.fixture(scope="module")
def grids():
    return {bg: thermal_grid(_ts(bg)) for bg in (0.5, 1.0, 3.0)}


# ------------------------------------------------------------------ spec type

def test_spec_validation():
    with pytest.raises(DomainError):
        ThermalSpec(_PARAMS, beta=0.0)
    with pytest.raises(DomainError):
        ThermalSpec(_PARAMS, beta=math.inf)
    with pytest.raises(DomainError):
        ThermalSpec(_PARAMS, beta=1.0, m=-1)
    with pytest.raises(DomainError):
        ThermalSpec(_PARAMS, beta=1.0, m=True)
    for fast_index in (-2, -1, True):
        with pytest.raises(DomainError):
            ThermalSpec(_PARAMS, beta=1.0, fast_index=fast_index)
    with pytest.raises(DomainError):
        ThermalSpec(_PARAMS, beta=1.0, gap_energy=0.0)


def test_spec_rejects_unconfined_field():
    bare = PhysicalParams(omega0=0.0, omega_c=1.0)
    with pytest.raises(DomainError, match="Omega > omega_c"):
        ThermalSpec(bare, beta=1.0)


def test_spec_derived_quantities():
    ts = _ts(math.log(2.0))
    assert ts.boltzmann_factor == pytest.approx(0.5, rel=1e-15)
    assert ts.occupancy == pytest.approx(1.0, rel=1e-14)
    assert ts.gap == _GAP
    assert ts.level_energy(3) - ts.level_energy(0) == pytest.approx(3 * _GAP)


def test_gap_override_changes_ladder_only():
    ts = ThermalSpec(_PARAMS, beta=2.0, gap_energy=0.25)
    assert ts.gap == 0.25
    assert ts.beta_gap == 0.5
    assert ts.ground_energy == ThermalSpec(_PARAMS, beta=2.0).ground_energy


# ------------------------------------------------------- partition function

def test_partition_closed_form_halving_case():
    ts = _ts(math.log(2.0), m=0)
    p = ts.params
    prefactor = math.exp(0.5 * ts.beta * p.hbar * 0.5 * (p.omega + p.omega_c))
    assert partition_function(ts) * prefactor == pytest.approx(
        math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("beta_gap", [0.1, 0.5, 1.0, 2.5, 5.0])
def test_partition_three_routes_agree(beta_gap):
    ts = _ts(beta_gap, m=2)
    z_closed = partition_function(ts)
    assert partition_function_direct(ts) == pytest.approx(z_closed, rel=1e-12)
    assert partition_function_hypergeometric(ts) == pytest.approx(
        z_closed, rel=1e-12)


def test_partition_ground_state_dominance():
    # Z e^{beta E_0} = 1/(1 - y) -> 1 once excited weights die off
    ts = _ts(40.0, fast_index=1)
    residual = partition_function(ts) * math.exp(ts.beta * ts.ground_energy)
    assert residual == pytest.approx(1.0, abs=1e-15)


def test_level_weights_sum_to_one():
    ts = _ts(0.7)
    y = ts.boltzmann_factor
    head = math.fsum(level_weight(nu, ts) for nu in range(200))
    tail = level_weight(200, ts) * y / (1.0 - y)
    assert head + tail == pytest.approx(1.0, rel=1e-14)
    for nu in (-1, True):
        with pytest.raises(DomainError):
            level_weight(nu, ts)


# ----------------------------------------------------------- Husimi diagonal

@pytest.mark.parametrize("m", [0, 1, 4])
def test_husimi_origin_value(m):
    ts = _ts(1.3, m=m)
    want = -math.expm1(-ts.beta_gap)
    assert husimi_thermal(0.0, ts) == pytest.approx(want, rel=1e-14)


def test_husimi_bounded_and_decaying():
    ts = _ts(1.0, m=2)
    vals = [husimi_thermal(complex(r, 0.0), ts) for r in (0.0, 0.5, 2.0, 8.0, 25.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_husimi_accepts_label_types():
    from landau_bgcs.bgcs import CoherentLabel
    ts = _ts(2.0, m=1)
    a = husimi_thermal(CoherentLabel.from_polar(1.5, 0.4), ts)
    b = husimi_thermal(1.5 * complex(math.cos(0.4), math.sin(0.4)), ts)
    assert a == pytest.approx(b, rel=1e-15)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("beta_gap", [0.5, 1.0, 3.0])
def test_husimi_normalization(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    assert husimi_normalization_check(ts, grids[beta_gap]) < 1e-6


# ------------------------------------------------------------- P-function

def test_p_function_positive_and_singular_origin():
    ts = _ts(1.0, m=2)
    assert p_function(0.7 + 0.2j, ts) > 0.0
    with pytest.raises(DomainError):
        p_function(0.0, ts)


def test_p_function_small_radius_limit():
    # K-ratio flattens to e^{-a m}, cancelling the e^{a m} prefactor
    ts = _ts(2.0, m=3)
    want = math.expm1(ts.beta_gap)
    assert p_function(1e-7 + 0j, ts) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("m,beta_gap", [(1, 1.0), (0, 0.5), (3, 3.0)])
def test_p_normalization(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    assert p_normalization_check(ts, grids[beta_gap]) < 1e-6


def test_population_reconstruction_ground(grids):
    ts = _ts(1.0, m=1)
    got = fock_population_reconstruction(0, ts, grids[1.0])
    assert abs(got - level_weight(0, ts)) < 1e-6


def test_population_reconstruction_cold_excited():
    ts = _ts(4.0, m=0)
    grid = thermal_grid(ts)
    got = fock_population_reconstruction(1, ts, grid)
    want = -math.expm1(-ts.beta_gap) * ts.boltzmann_factor
    assert abs(got - want) < 1e-6


# ------------------------------------------------------------ thermal means

@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_mean_occupancy_quadrature(m, grids):
    ts = _ts(1.0, m=m)
    got = thermal_mean_n_quadrature(ts, grids[1.0])
    assert got == pytest.approx(thermal_mean_n(ts), rel=1e-6)


def test_mean_occupancy_sector_independent(grids):
    base = thermal_mean_n_quadrature(_ts(1.0, m=0), grids[1.0])
    high = thermal_mean_n_quadrature(_ts(1.0, m=4), grids[1.0])
    assert abs(base - high) < 1e-6


def test_second_moment_quadrature(grids):
    ts = _ts(0.5, m=2)
    got = thermal_mean_n_sq_quadrature(ts, grids[0.5])
    nbar = ts.occupancy
    assert got == pytest.approx(nbar + 2.0 * nbar * nbar, rel=1e-6)


@pytest.mark.parametrize("m,beta_gap", [(0, 0.5), (2, 1.0), (4, 3.0)])
def test_intensity_correlation_is_chaotic(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    assert thermal_g(ts) == pytest.approx(2.0, rel=1e-14)
    assert thermal_g_quadrature(ts, grids[beta_gap]) == pytest.approx(
        2.0, rel=1e-6)


def test_odd_quadrature_component_vanishes(grids):
    ts = _ts(1.0, m=1)

    def mean_q(z):
        return math.sqrt(2.0) * np.abs(z) * np.cos(np.angle(z))
    got = thermal_average(mean_q, ts, grids[1.0])
    assert abs(got) < 1e-10


# ------------------------------------------------- quadrature second moment

@pytest.mark.parametrize("m,beta_gap", [(1, 1.0), (0, 0.5), (2, 3.0)])
def test_q2_three_routes(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    rep = thermal_q2_three_ways(ts, grids[beta_gap])
    assert isinstance(rep, SecondMomentReport)
    nbar = ts.occupancy
    # independent polynomial form of the same moment
    want = 2.0 * nbar * nbar + (m + 2.0) * nbar + 0.5 * (m + 1.0)
    assert rep.closed_form == pytest.approx(want, rel=1e-12)
    assert rep.quadrature_vs_trace < 1e-5
    assert rep.closed_vs_trace < 1e-10
    assert rep.closed_form_consistent
    assert rep.second_component_quadrature == pytest.approx(
        rep.p_quadrature, rel=1e-10)


def test_q2_report_serializable(grids):
    rep = thermal_q2_three_ways(_ts(1.0, m=1), grids[1.0])
    d = rep.as_dict()
    assert d["m"] == 1 and d["closed_form_consistent"] is True
    assert d["trace_depth"] == rep.trace_depth


def test_q2_closed_small_temperature_floor():
    # beta -> infinity leaves only the vacuum width (m+1)/2
    ts = _ts(45.0, m=3)
    assert thermal_q2_closed(ts) == pytest.approx(2.0, rel=1e-12)


# ------------------------------------------------------------ Wehrl entropy

@pytest.mark.parametrize("beta_gap,m,want", [
    (2.0, 0, _W_20),
    (3.0, 0, _W_30),
    (4.0, 0, _W_40),
    (2.0, 1, _W_21),
    (3.0, 2, _W_32),
])
def test_wehrl_quadrature_oracle(beta_gap, m, want):
    rep = wehrl_entropy(_ts(beta_gap, m=m))
    assert isinstance(rep, WehrlReport)
    assert rep.quadrature == pytest.approx(want, rel=1e-9)


def test_wehrl_approximation_fields():
    ts = _ts(3.0)
    rep = wehrl_entropy(ts)
    assert rep.approximation == pytest.approx(
        -math.log1p(-math.exp(-3.0)), rel=1e-15)
    assert rep.scaled is None
    # the small-label surrogate undershoots the defining integral badly at
    # low temperature; only the one-sided bound survives
    assert rep.quadrature > rep.approximation
    assert rep.quadrature / rep.approximation > 5.0


def test_wehrl_cold_limit():
    rep = wehrl_entropy(_ts(14.0, m=0))
    assert rep.quadrature == pytest.approx(_W_COLD_0, abs=5e-6)


def test_wehrl_cold_oracle_recomputed():
    # _W_COLD_0 is the floor of criterion 9's surrogate as well; rebuild it
    # from the Bessel integral so the frozen value has a live check
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(20):
        floor = mp.quad(lambda x: x * mp.besselk(0, x) * mp.log(mp.besseli(0, x)),
                        [0, 1, 10, 40, mp.inf])
    assert abs(float(floor) - _W_COLD_0) < 1e-15


def test_wehrl_scaled_offset():
    ts = _ts(2.0)
    cell = 2.0 * math.pi * ts.params.slow_length ** 2
    rep = wehrl_entropy(ts, area=cell * math.e)
    assert rep.scaled == pytest.approx(rep.quadrature + 1.0, rel=1e-12)
    with pytest.raises(DomainError):
        wehrl_entropy(ts, area=-1.0)


def test_wehrl_strong_field_surrogate_value():
    ts = _ts(2.0)
    rep = wehrl_entropy(ts)
    b = ts.beta * ts.params.hbar * ts.params.omega0 ** 2 / ts.params.omega_c
    want = (0.5 * b - math.log(b)) * b / (2.0 * math.sinh(0.5 * b))
    assert rep.strong_field_approximation == pytest.approx(want, rel=1e-15)


def test_wehrl_strong_field_absent_without_field():
    confined = PhysicalParams(omega0=1.0, omega_c=0.0)
    rep = wehrl_entropy(ThermalSpec(confined, beta=2.0 / confined.epsilon_gap))
    assert rep.strong_field_approximation is None


# ------------------------------------------------------- strong-field Husimi

def test_strong_field_husimi_in_its_regime():
    p = PhysicalParams(omega0=0.02, omega_c=1.0)
    ts = ThermalSpec(p, beta=0.1 / p.epsilon_gap, m=1)
    worst = max(
        abs(husimi_thermal_strong_field(complex(r, 0.0), ts)
            - husimi_thermal(complex(r, 0.0), ts)) / husimi_thermal(complex(r, 0.0), ts)
        for r in (0.0, 0.3, 1.0, 3.0, 8.0))
    assert worst < 1e-3


def test_strong_field_husimi_floor_at_wider_ratio():
    # at omega0/omega_c = 0.05 the surrogate's relative floor is
    # (omega0/omega_c)^2 = 2.5e-3; sub-1e-3 agreement is not attainable
    p = PhysicalParams(omega0=0.05, omega_c=1.0)
    ts = ThermalSpec(p, beta=0.1 / p.epsilon_gap, m=1)
    worst = max(
        abs(husimi_thermal_strong_field(complex(r, 0.0), ts)
            - husimi_thermal(complex(r, 0.0), ts)) / husimi_thermal(complex(r, 0.0), ts)
        for r in (0.0, 0.3, 1.0, 3.0, 8.0))
    assert 1e-3 < worst < 5e-3


def test_strong_field_needs_cyclotron_term():
    confined = PhysicalParams(omega0=1.0, omega_c=0.0)
    ts = ThermalSpec(confined, beta=1.0 / confined.epsilon_gap)
    with pytest.raises(DomainError):
        husimi_thermal_strong_field(1.0 + 0j, ts)


# ------------------------------------------------------------ grid and sweep

def test_thermal_grid_tracks_decay():
    hot = thermal_grid(_ts(0.5))
    cold = thermal_grid(_ts(3.0))
    assert hot.cutoff > cold.cutoff
    with pytest.raises(DomainError):
        thermal_grid(_ts(0.01))


def test_summary_row_schema(grids):
    row = thermal_summary(_ts(1.0, m=1), grids[1.0])
    assert list(row) == ["beta", "m", "Z", "N_mean", "N2_mean", "g",
                         "W_quad", "W_approx", "Q2", "P2"]
    assert row["Q2"] == row["P2"]
    assert row["g"] == pytest.approx(2.0, rel=1e-14)
    assert row["N_mean"] == pytest.approx(thermal_mean_n(_ts(1.0, m=1)), rel=1e-15)


# ------------------------------------- per-node scalar reference routes
#
# The routes above integrate radial profiles built by the array kernels.
# These references are the earlier integrands: every profile evaluated node
# by node with the scalar Bessel kernels, spread over the angles and summed
# by the full 2-D integrate.

def _ref_ln_bessel_k(m, r):
    # ln K_m(2r)
    return math.log(bessel_k_scaled(m, 2.0 * r)) - 2.0 * r


def _ref_profiles(ts, grid):
    m = ts.m
    a = ts.half_beta_gap
    p = ts.params
    a_sf = 0.5 * ts.beta * p.hbar * p.omega0 ** 2 / p.omega_c
    out = {key: [] for key in ("ln_h", "ln_h_sf", "ln_p", "n", "n_sq", "k3", "sq_amp1")}
    for r in map(float, grid.nodes):
        ln_i = _ln_bessel_i(m, r)
        out["ln_h"].append(math.log(2.0 * math.sinh(a)) + a * (m - 1)
                           + _ln_bessel_i(m, r * math.exp(-a)) - ln_i)
        out["ln_h_sf"].append(math.log(2.0 * a_sf) + a_sf * (m - 1)
                              + _ln_bessel_i(m, r * math.exp(-a_sf)) - ln_i)
        out["ln_p"].append(math.log(math.expm1(ts.beta_gap)) + a * m
                           + _ref_ln_bessel_k(m, r * math.exp(a)) - _ref_ln_bessel_k(m, r))
        lab = CoherentLabel(r)
        out["n"].append(mean_n(lab, m))
        out["n_sq"].append(mean_n_sq(lab, m))
        out["k3"].append(mean_k3(lab, m))
        out["sq_amp1"].append(math.exp((m + 2) * math.log(r) - ln_i
                                       - ln_factorial(1) - ln_factorial(1 + m)))
    return {key: np.array(v) for key, v in out.items()}


def _ref_integral(vals, ts, grid, angular=None):
    def f(z):
        col = vals[:, None]
        return np.broadcast_to(col, z.shape) if angular is None else angular(col, z)
    return integrate(f, ts.m, grid, vectorized=True).real


@pytest.fixture(scope="module")
def reference_routes():
    cache = {}

    def get(beta_gap, m):
        if (beta_gap, m) not in cache:
            ts = _ts(beta_gap, m=m)
            grid = thermal_grid(ts)
            cache[beta_gap, m] = ts, grid, _ref_profiles(ts, grid)
        return cache[beta_gap, m]
    return get


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("beta_gap", [0.1, 1.0, 6.0])
def test_array_routes_match_scalar_reference(beta_gap, m, reference_routes):
    ts, grid, ref = reference_routes(beta_gap, m)
    h = np.exp(ref["ln_h"])
    p = np.exp(ref["ln_p"])

    def q2(trig):
        return _ref_integral(p, ts, grid, lambda col, z: col * (
            ref["k3"][:, None] + 2.0 * np.abs(z[:, :1]) ** 2
            * trig(np.angle(z[0, :]))[None, :] ** 2))

    pairs = [
        (husimi_normalization_check(ts, grid), abs(_ref_integral(h, ts, grid) - 1.0)),
        (husimi_normalization_check(ts, grid, strong_field=True),
         abs(_ref_integral(np.exp(ref["ln_h_sf"]), ts, grid) - 1.0)),
        (p_normalization_check(ts, grid), abs(_ref_integral(p, ts, grid) - 1.0)),
        (wehrl_entropy(ts, grid).quadrature,
         -_ref_integral(np.where(h < 1e-300, 0.0, h * ref["ln_h"]), ts, grid)),
        (thermal_mean_n_quadrature(ts, grid), _ref_integral(p * ref["n"], ts, grid)),
        (thermal_mean_n_sq_quadrature(ts, grid), _ref_integral(p * ref["n_sq"], ts, grid)),
        (fock_population_reconstruction(1, ts, grid),
         _ref_integral(p * ref["sq_amp1"], ts, grid)),
    ]
    rep = thermal_q2_three_ways(ts, grid)
    pairs += [(rep.p_quadrature, q2(np.cos)),
              (rep.second_component_quadrature, q2(np.sin))]
    for i, (got, want) in enumerate(pairs):
        # the normalization residuals are |integral - 1| with integral ~ 1
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (i, got, want)


def test_point_profiles_match_scalar_reference():
    ts = _ts(1.3, m=2)
    for r in (1e-4, 0.7, 3.0, 45.0):
        want_h = math.exp(math.log(2.0 * math.sinh(ts.half_beta_gap))
                          + ts.half_beta_gap
                          + _ln_bessel_i(2, r * math.exp(-ts.half_beta_gap))
                          - _ln_bessel_i(2, r))
        want_p = math.exp(math.log(math.expm1(ts.beta_gap)) + 2.0 * ts.half_beta_gap
                          + _ref_ln_bessel_k(2, r * math.exp(ts.half_beta_gap))
                          - _ref_ln_bessel_k(2, r))
        assert husimi_thermal(complex(r, 0.0), ts) == pytest.approx(want_h, rel=1e-13)
        assert p_function(complex(r, 0.0), ts) == pytest.approx(want_p, rel=1e-13)


# --------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(beta_gap=st.floats(min_value=0.1, max_value=5.0),
       m=st.integers(min_value=0, max_value=8))
def test_partition_routes_property(beta_gap, m):
    ts = _ts(beta_gap, m=m)
    z_closed = partition_function(ts)
    assert partition_function_direct(ts) == pytest.approx(z_closed, rel=1e-12)
    assert partition_function_hypergeometric(ts) == pytest.approx(
        z_closed, rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(beta_gap=st.floats(min_value=0.05, max_value=30.0))
def test_occupancy_consistency_property(beta_gap):
    ts = _ts(beta_gap)
    y = ts.boltzmann_factor
    assert ts.occupancy == pytest.approx(y / (1.0 - y), rel=1e-12)
    # assembling g cancels nbar against nbar + 2 nbar^2, losing
    # eps / (2 nbar) of precision; keep the identity check where the
    # occupancy is not yet vanishing
    if beta_gap <= 8.0:
        assert thermal_g(ts) == pytest.approx(2.0, rel=1e-12)
