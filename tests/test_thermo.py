"""Thermal-state routes: partition sums, diagonal densities, entropy, moments."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs.bgcs import CoherentLabel, _ln_bessel_i, mean_k3, mean_n, mean_n_sq
from landau_bgcs import thermo
from landau_bgcs.fock import DomainError, PhysicalParams, SubspaceSpec, level_energy
from landau_bgcs.measure import build_grid, integrate
from landau_bgcs.quantize import SymbolSpec, quantize_closed_form
from landau_bgcs.specfun import (EvaluationError, bessel_k_scaled, ln_bessel_i,
                                 ln_bessel_k, ln_factorial)
from landau_bgcs.thermo import (
    SecondMomentReport,
    ThermalSpec,
    WehrlReport,
    fock_population_reconstruction,
    husimi_normalization_check,
    husimi_thermal,
    level_weight,
    p_function,
    p_normalization_check,
    partition_function,
    partition_function_direct,
    thermal_g,
    thermal_g_quadrature,
    thermal_grid,
    thermal_mean_n,
    thermal_mean_n_quadrature,
    thermal_mean_n_sq,
    thermal_q2_closed,
    thermal_q2_three_ways,
    thermal_summary,
    wehrl_entropy,
)
from oracles import gauss_2f1

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


def _partition_resummed(ts):
    # the ground Boltzmann factor times 2F1(m+1, 1; m+1; y) = 1 / (1 - y),
    # summed term by term by the test oracle
    y = ts.boltzmann_factor
    return math.exp(-ts.beta * ts.ground_energy) * gauss_2f1(ts.m + 1.0, 1.0, ts.m + 1.0, y)


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


def test_gap_and_area_must_be_finite():
    for gap in (math.inf, math.nan):
        with pytest.raises(DomainError, match="gap_energy"):
            ThermalSpec(_PARAMS, beta=1.0, gap_energy=gap)
    for route in (wehrl_entropy, thermal_summary):
        with pytest.raises(DomainError, match="area"):
            route(_ts(2.0), area=math.inf)


# e^{-beta gap} rounds to 1 below about 5.6e-17; past ln(DBL_MAX) the
# occupancy 1 / (e^{beta gap} - 1) overflows
_LN_DBL_MAX = math.log(sys.float_info.max)


@pytest.mark.parametrize("beta_gap", [1e-300, 5e-17, math.nextafter(_LN_DBL_MAX, math.inf),
                                      710.0, 741.6])
def test_spec_rejects_beta_gap_outside_the_double_range(beta_gap):
    with pytest.raises(DomainError, match="beta gap"):
        _ts(beta_gap)


@pytest.mark.parametrize("beta_gap", [_LN_DBL_MAX, 700.0])
def test_coldest_admissible_spec_gives_finite_closed_forms(beta_gap):
    ts = _ts(beta_gap)
    assert 0.0 < ts.occupancy < 1e-300
    assert thermal_q2_closed(ts) == 0.5
    row = thermal_summary(ts)
    assert all(math.isfinite(v) for v in row.values())
    assert row["g"] == 2.0
    assert row["W_quad"] == pytest.approx(_W_COLD_0, rel=1e-14)


@pytest.mark.parametrize("beta_gap", [6e-17, 1e-16, 1.1e-16])
def test_window_rejects_beta_gap_with_no_decay(beta_gap):
    # the spec holds, but e^{-beta gap / 2} rounds to 1: no decay to cover
    ts = _ts(beta_gap)
    assert 0.0 < ts.boltzmann_factor < 1.0
    assert math.isfinite(partition_function(ts))
    with pytest.raises(DomainError, match="quadrature window"):
        thermal_grid(ts)


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


@pytest.mark.parametrize("params", [PhysicalParams(),
                                    PhysicalParams(omega0=0.7, omega_c=2.3, hbar=1.3, mass=0.6)])
def test_thermal_ladder_is_n_minus_at_frozen_n_plus(params):
    # level nu of the ensemble is the Fock level n_+ = fast_index, n_- = nu,
    # that is Landau index n = n_+ and sector m = n_+ - nu
    for n_plus in range(7):
        ts = ThermalSpec(params, beta=1.0, fast_index=n_plus)
        for nu in range(n_plus + 1):
            assert ts.level_energy(nu) == pytest.approx(
                level_energy(n_plus, n_plus - nu, params), rel=1e-14)


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
    assert _partition_resummed(ts) == pytest.approx(z_closed, rel=1e-12)


# the direct sums before the up-front refusal, bit for bit
@pytest.mark.parametrize("beta_gap,want", [
    (3e-4, 3332.0245608392856),
    (1e-3, 998.6917977825264),
    (1.0, 0.259151654770953),
    (6.0, 1.937319522229279e-05),
])
def test_partition_direct_keeps_its_bits(beta_gap, want):
    assert repr(partition_function_direct(_ts(beta_gap))) == repr(want)


@pytest.mark.parametrize("beta_gap", [2e-4, 1e-6])
def test_partition_direct_refuses_up_front(beta_gap):
    # ln(1e-16 (1 - y)) / ln y terms exceed the cap: refused before summing
    with pytest.raises(EvaluationError, match="needs more than 200000 terms") as err:
        partition_function_direct(_ts(beta_gap))
    assert err.value.partial is None
    assert err.value.terms == thermo._PARTITION_MAX_TERMS


def test_partition_ground_state_dominance():
    # Z e^{beta E_0} = 1/(1 - y) -> 1 once excited weights die off
    ts = _ts(40.0, fast_index=1)
    residual = partition_function(ts) * math.exp(ts.beta * ts.ground_energy)
    assert residual == pytest.approx(1.0, abs=1e-15)


# 25 log-spaced beta gaps from 1e-15 to 1e-3, where e^{-beta gap} rounds
# near 1, then both sides of ln 2, where ln(1 - e^{-beta gap}) switches from
# expm1 to log1p, and a few larger ones
_LN_2 = math.log(2.0)
_SMALL_BETA_GAPS = [1e-15 * 1e12 ** (k / 24) for k in range(25)] + [
    0.5, _LN_2, math.nextafter(_LN_2, 1.0), 1.0, 5.0, 40.0]


@pytest.mark.parametrize("beta_gap", _SMALL_BETA_GAPS)
def test_partition_and_wehrl_surrogate_near_zero_beta_gap(beta_gap):
    # Error budget, at most one ulp (eps relative) per rounding.  L =
    # ln(1 - e^{-beta gap}): expm1 and log, or exp and log1p, stay within
    # 3 eps of L.  Z = exp(u), u = ln_pref - (beta gap / 2 + L): u gathers
    # 3 eps |L| from L and one rounding per product and sum, at most
    # 4 eps (1 + |u|) absolute, which exp turns into relative error and adds
    # one rounding: 5 eps (1 + |u|).  Rounding e^{-beta gap} before taking
    # 1 - e^{-beta gap}, as log1p(-y) does, misses by 8e-4 at 1e-15.
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    ts = _ts(beta_gap, m=1)
    p = ts.params
    with mpmath.workdps(40):
        a = mpmath.mpf(ts.beta_gap)
        ln_one_minus = mpmath.log(-mpmath.expm1(-a))
        ln_z = (-mpmath.mpf(ts.beta) * p.hbar * (ts.fast_index + 0.5)
                * (mpmath.mpf(p.omega) + p.omega_c) / 2 - a / 2 - ln_one_minus)
        err_l = float(abs(ts.ln_one_minus_boltzmann / ln_one_minus - 1))
        err_z = float(abs(partition_function(ts) / mpmath.exp(ln_z) - 1))
    assert err_l <= 3.0 * eps, err_l
    assert err_z <= 5.0 * eps * (1.0 + abs(float(ln_z))), err_z
    if beta_gap > 0.05:  # thermal_grid's window
        assert wehrl_entropy(ts).approximation == -ts.ln_one_minus_boltzmann


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


@pytest.mark.parametrize("m,beta_gap", [(0, 0.5), (2, 1.0), (4, 3.0)])
def test_intensity_correlation_is_chaotic(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    assert thermal_g(ts) == pytest.approx(2.0, rel=1e-14)
    assert thermal_g_quadrature(ts, grids[beta_gap]) == pytest.approx(
        2.0, rel=1e-6)


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("beta_gap", [6.0, 15.0, 20.0])
def test_g_quadrature_holds_at_low_temperature(beta_gap, m):
    # <n(n-1)> and <n> are each one integral, so nothing cancels as nbar
    # vanishes.  1e-9 is three decades above the grid's 1e-12 tail
    # tolerance, for the P profile's own error at the cold end; past
    # beta gap 25 the P route itself is not resolved
    ts = _ts(beta_gap, m=m)
    assert thermal_g_quadrature(ts, thermal_grid(ts)) == pytest.approx(2.0, rel=1e-9)


# ------------------------------------------------- quadrature second moment

@pytest.mark.parametrize("m,beta_gap", [(1, 1.0), (0, 0.5), (2, 3.0)])
def test_q2_three_routes(m, beta_gap, grids):
    ts = _ts(beta_gap, m=m)
    rep = thermal_q2_three_ways(ts, grids[beta_gap])
    assert isinstance(rep, SecondMomentReport)
    nbar = ts.occupancy
    # the polynomial in nbar, written out term by term
    want = 2.0 * nbar * nbar + (m + 2.0) * nbar + 0.5 * (m + 1.0)
    assert rep.closed_form == pytest.approx(want, rel=1e-12)
    assert rep.quadrature_vs_trace < 1e-5
    assert rep.closed_vs_trace < 1e-10
    assert rep.closed_form_consistent
    assert rep.second_component_quadrature == pytest.approx(
        rep.p_quadrature, rel=1e-10)


def test_q2_exact_angular_mean_is_the_trapezoid_mean(grids):
    # the q^2 quadrature weights 2 r^2 by the exact angular mean 1/2 of cos^2
    # and sin^2; the trapezoid mean over the 256 angles the thermal grids
    # sampled is that same double, so the exact form moves no bit
    phi = (2.0 * math.pi) * np.arange(256) / 256
    assert np.mean(np.cos(phi) ** 2) == 0.5
    assert np.mean(np.sin(phi) ** 2) == 0.5
    for beta_gap, grid in grids.items():
        rep = thermal_q2_three_ways(_ts(beta_gap, m=1), grid)
        assert rep.second_component_quadrature == rep.p_quadrature


def test_q2_report_serializable(grids):
    rep = thermal_q2_three_ways(_ts(1.0, m=1), grids[1.0])
    d = rep.as_dict()
    assert d["m"] == 1 and d["closed_form_consistent"] is True
    assert d["trace_depth"] == rep.trace_depth


@pytest.mark.parametrize("beta_gap", [20.0, 40.0, 400.0, 700.0])
def test_thermal_g_is_exact_at_low_temperature(beta_gap):
    assert thermal_g(_ts(beta_gap)) == 2.0


def test_q2_closed_small_temperature_floor():
    # beta -> infinity leaves only the vacuum width (m+1)/2
    ts = _ts(45.0, m=3)
    assert thermal_q2_closed(ts) == pytest.approx(2.0, rel=1e-12)


# 48 log-spaced beta gaps from 1e-15 up to, not including, ln(DBL_MAX), and
# ln(DBL_MAX) itself: all that ThermalSpec admits but the sliver from about
# 1.1e-16, where e^{-beta gap} stops rounding to 1, to 1e-15
_Q2_BETA_GAPS = [1e-15 * (_LN_DBL_MAX / 1e-15) ** (k / 48) for k in range(48)] + [_LN_DBL_MAX]


@pytest.mark.parametrize("m", [0, 1, 4, 20, 36, 100, 171, 1000])
def test_q2_closed_is_the_polynomial_in_nbar_over_the_admitted_range(m):
    # Error budget, at most one ulp (eps relative) per rounding: nbar =
    # 1 / expm1 carries expm1 and the division, 2 eps; the square doubles that
    # and rounds, 5 eps; nbar + 2 nbar^2 adds one, 6 eps; (m+1)(nbar + 1/2)
    # gathers 2 + 1 + 1 = 4 eps; the last sum of positive terms adds one,
    # 7 eps.  8 eps leaves one for the second-order terms.
    mpmath = pytest.importorskip("mpmath")
    tol = 8.0 * sys.float_info.epsilon
    for beta_gap in _Q2_BETA_GAPS:
        ts = _ts(beta_gap, m=m)
        got = thermal_q2_closed(ts)
        assert math.isfinite(got), beta_gap
        with mpmath.workdps(40):
            nbar = 1 / mpmath.expm1(mpmath.mpf(ts.beta_gap))
            want = 2 * nbar ** 2 + (m + 2) * nbar + mpmath.mpf(m + 1) / 2
            err = float(abs(got - want) / want)
        assert err <= tol, (beta_gap, err)
        # the former 2F1 expression, where the oracle's 2048-term series
        # converges; term k is the product of k recurrence steps of five
        # roundings, so its error may grow to about 5 * 2048 * eps / 2 = 1.1e-12
        y = ts.boltzmann_factor
        try:
            hyp = gauss_2f1(m + 2.0, 2.0, m + 1.0, y)
        except EvaluationError:
            continue
        old = math.expm1(ts.beta_gap) * y * y * (m + 1.0) * hyp \
            + ts.occupancy + 0.5 * (m + 1.0)
        assert got == pytest.approx(old, rel=2e-12), beta_gap


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("beta_gap", [0.03, 0.1, 1.0, 6.0])
def test_q2_trace_matches_dense_reference(beta_gap, m):
    # the trace route reads diag(q q) off the K- K+ diagonal; this reference
    # squares the dense quantized q matrix and takes the same
    # geometric-weighted trace
    ts = _ts(beta_gap, m=m)
    depth = thermo._q2_trace_depth(ts)
    q = quantize_closed_form(SymbolSpec("q"), SubspaceSpec(m, depth=max(16, depth))).entries
    diag = np.real(np.einsum("ij,ji->i", q, q))[:-1]
    weights = -math.expm1(-ts.beta_gap) * ts.boltzmann_factor ** np.arange(diag.size)
    want = float(np.sum((weights * diag)[::-1]))
    assert thermo._q2_fock_trace(ts, depth) == pytest.approx(want, rel=1e-14, abs=0.0)


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


# ------------------------------------------------------------ grid and sweep

def test_thermal_grid_tracks_decay():
    hot = thermal_grid(_ts(0.5))
    cold = thermal_grid(_ts(3.0))
    assert hot.cutoff > cold.cutoff
    with pytest.raises(DomainError):
        thermal_grid(_ts(0.01))


def test_thermal_grid_is_shared_per_cutoff():
    # beta gap 3 and 5.5 share cutoff 42 across sectors; 0.5 takes 62
    grid = thermal_grid(_ts(3.0))
    assert thermal_grid(_ts(5.5, m=2)) is grid
    assert thermal_grid(_ts(0.5)) is not grid
    assert thermal_grid(_ts(0.5)).cutoff == 62.0 and grid.cutoff == 42.0
    assert type(grid.cutoff) is float


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
    out = {key: [] for key in ("ln_h", "ln_p", "n", "n_sq", "k3", "sq_amp1")}
    for r in map(float, grid.nodes):
        ln_i = _ln_bessel_i(m, r)
        out["ln_h"].append(math.log(2.0 * math.sinh(a)) + a * (m - 1)
                           + _ln_bessel_i(m, r * math.exp(-a)) - ln_i)
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
        (p_normalization_check(ts, grid), abs(_ref_integral(p, ts, grid) - 1.0)),
        (wehrl_entropy(ts, grid).quadrature,
         -_ref_integral(np.where(h < 1e-300, 0.0, h * ref["ln_h"]), ts, grid)),
        (thermal_mean_n_quadrature(ts, grid), _ref_integral(p * ref["n"], ts, grid)),
        (thermal_g_quadrature(ts, grid),
         _ref_integral(p * (ref["n_sq"] - ref["n"]), ts, grid)
         / _ref_integral(p * ref["n"], ts, grid) ** 2),
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


@pytest.mark.parametrize("beta_gap", [0.1, 1.0, 6.0])
def test_point_functions_run_on_their_float(beta_gap):
    # at m = 30, rho = 12 the Husimi reads the I_m recurrence at 2 rho (and
    # at 2 rho e^{-a} for small a): the point value on the float radius has
    # the bits of that radius inside an array
    ts = _ts(beta_gap, m=30)
    r = np.array([0.5, 12.0, 40.0])
    husimi = np.exp(thermo._ln_husimi(ts, lambda f: ln_bessel_i(30, 2.0 * r * f)))
    p = np.exp(thermo._ln_p(ts, lambda f: ln_bessel_k(30, 2.0 * r * f)))
    assert husimi_thermal(12.0, ts).hex() == float(husimi[1]).hex()
    assert p_function(12.0, ts).hex() == float(p[1]).hex()


# ------------------------------------------------- per-grid profile cache

def _thermal_routes(ts):
    # the six thermal quadrature routes and the q2 report, by name
    return {
        "wehrl": lambda g: wehrl_entropy(ts, g).quadrature,
        "husimi_norm": lambda g: husimi_normalization_check(ts, g),
        "p_norm": lambda g: p_normalization_check(ts, g),
        "mean_n": lambda g: thermal_mean_n_quadrature(ts, g),
        "g": lambda g: thermal_g_quadrature(ts, g),
        "population": lambda g: fock_population_reconstruction(2, ts, g),
        "q2": lambda g: tuple(thermal_q2_three_ways(ts, g).as_dict().values()),
    }


@pytest.mark.parametrize("beta_gap,m", [(0.1, 0), (1.17, 2), (6.0, 9)])
def test_thermal_routes_same_bits_cold_warm_and_reversed(beta_gap, m):
    ts = _ts(beta_gap, m=m)
    routes = _thermal_routes(ts)
    # the cold sides read copies of the shared grid with empty caches
    def fresh():
        return dataclasses.replace(thermal_grid(ts))
    cold = {k: f(fresh()) for k, f in routes.items()}
    grid = fresh()
    in_order = {k: f(grid) for k, f in routes.items()}
    warm = {k: f(grid) for k, f in routes.items()}
    grid = fresh()
    reversed_order = {k: routes[k](grid) for k in reversed(list(routes))}
    assert {k: f(thermal_grid(ts)) for k, f in routes.items()} == cold
    assert in_order == cold
    assert warm == cold
    assert reversed_order == cold


def test_thermal_point_evaluates_each_profile_once(kernel_calls):
    # the benchmark's thermal point: I_m at 2r and 2r e^{-a}, I_{m+1} at 2r,
    # K_m at 2r and 2r e^{a}, each evaluated once on a fresh grid
    ts = _ts(1.17, m=2)
    grid = thermal_grid(ts)
    thermal_summary(ts, grid)
    husimi_normalization_check(ts, grid)
    p_normalization_check(ts, grid)
    thermal_mean_n_quadrature(ts, grid)
    fock_population_reconstruction(1, ts, grid)
    thermal_q2_three_ways(ts, grid)
    integrate(lambda z: np.abs(z) ** 2, 2, grid, vectorized=True)
    assert kernel_calls == {"i": 3, "k": 2}


def test_repeated_thermal_point_evaluates_no_kernel_array(kernel_calls):
    # the second identical point reads every profile from the shared grid
    def point():
        ts = _ts(1.17, m=2)
        thermal_summary(ts)
        grid = thermal_grid(ts)
        husimi_normalization_check(ts, grid)
        p_normalization_check(ts, grid)
        thermal_mean_n_quadrature(ts, grid)
        fock_population_reconstruction(1, ts, grid)
        thermal_q2_three_ways(ts)
        return wehrl_entropy(ts).quadrature
    first = point()
    assert kernel_calls == {"i": 3, "k": 2}
    assert point() == first
    assert kernel_calls == {"i": 3, "k": 2}


# --------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(beta_gap=st.floats(min_value=0.1, max_value=5.0),
       m=st.integers(min_value=0, max_value=8))
def test_partition_routes_property(beta_gap, m):
    ts = _ts(beta_gap, m=m)
    z_closed = partition_function(ts)
    assert partition_function_direct(ts) == pytest.approx(z_closed, rel=1e-12)
    assert _partition_resummed(ts) == pytest.approx(z_closed, rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(beta_gap=st.floats(min_value=0.05, max_value=30.0))
def test_occupancy_consistency_property(beta_gap):
    ts = _ts(beta_gap)
    y = ts.boltzmann_factor
    assert ts.occupancy == pytest.approx(y / (1.0 - y), rel=1e-12)
    assert thermal_g(ts) == pytest.approx(2.0, rel=1e-12)
