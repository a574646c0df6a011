"""Canonical-ensemble quantities in the coherent-state representation.

Within one fixed angular sector the Boltzmann weights over the radial ladder
form a geometric sequence with ratio exp(-beta * gap), where the ladder gap
is hbar (Omega - omega_c) / 2.  Everything here follows from that single
ratio: the partition function, the diagonal (Husimi) density, the diagonal
expansion weight (P-function), the moments of the ladder number and of the
quadratures, and Wehrl entropy.

The fast quantum number that offsets every ladder energy by a common
beta-linear amount is kept as an explicit external parameter; it cancels
from every normalized quantity and only rescales the partition function.

All closed forms carry an independent cross-route: direct Boltzmann sums,
phase-space quadrature against the diagonal weight, or a truncated-matrix
trace.  Disagreements between routes are reported, never silently
reconciled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bgcs import _as_label, _ln_amplitude
from .fock import PhysicalParams, lowering_band
from .measure import (_MAX_CUTOFF, QuadratureGrid, _required_cutoff, build_grid,
                      integrate_radial)
from .specfun import DomainError, EvaluationError, _Record, _order, ln_bessel_i, ln_bessel_k

__all__ = [
    "ThermalSpec",
    "SecondMomentReport",
    "WehrlReport",
    "partition_function",
    "partition_function_direct",
    "level_weight",
    "husimi_thermal",
    "p_function",
    "husimi_normalization_check",
    "p_normalization_check",
    "fock_population_reconstruction",
    "thermal_mean_n",
    "thermal_mean_n_sq",
    "thermal_g",
    "thermal_mean_n_quadrature",
    "thermal_g_quadrature",
    "thermal_q2_closed",
    "thermal_q2_three_ways",
    "wehrl_entropy",
    "thermal_grid",
    "thermal_summary",
]

_UNDERFLOW_FLOOR = 1e-300
# past ln(DBL_MAX) the occupancy 1 / (e^{beta gap} - 1) and the closed forms
# built on e^{beta gap} overflow
_MAX_BETA_GAP = math.log(sys.float_info.max)
# ln(1 - e^{-beta gap}) goes through expm1 up to here and log1p above
_LN_2 = math.log(2.0)
# the direct partition sum stops once its geometric tail is below this share
# of the first term
_PARTITION_TAIL_TOL = 1e-16
_PARTITION_MAX_TERMS = 200_000
# thermal grids resolve this radial degree, which alone sets the smallest
# thermal cutoff; _required_cutoff steps by 2 from 30, so it is even like
# the window of thermal_grid
_THERMAL_MAX_DEGREE = 24
_THERMAL_MIN_CUTOFF = _required_cutoff(_THERMAL_MAX_DEGREE)


@dataclass(frozen=True)
class ThermalSpec:
    """Canonical ensemble over one angular sector.

    fast_index is the frozen fast quantum number whose energy offset scales
    the partition function but cancels from all normalized quantities.
    The thermal ladder is n_- = nu at frozen n_+ = fast_index, so at the
    default gap level nu has E = hbar omega_+ n_+ + hbar omega_- n_- +
    hbar Omega / 2, omega_+- = (Omega +- omega_c) / 2, which is
    fock.level_energy(n_+, n_+ - nu, params) for nu <= n_+.
    gap_energy overrides the ladder quantum (defaults to the slow-ladder
    value hbar (Omega - omega_c) / 2 of params).  beta gap must keep the
    Boltzmann factor e^{-beta gap} in (0, 1) and be at most ln(DBL_MAX),
    about 709.78.
    """

    params: PhysicalParams
    beta: float
    m: int = 0
    fast_index: int = 0
    gap_energy: float | None = None

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta!r}")
        _order(self.m, "m")
        _order(self.fast_index, "fast_index")
        if self.params.omega_minus <= 0.0:
            raise DomainError(
                "thermal ensemble requires Omega > omega_c strictly; got "
                f"Omega = {self.params.omega:.6g}, omega_c = {self.params.omega_c:.6g}")
        if self.gap_energy is not None and not 0.0 < self.gap_energy < math.inf:
            raise DomainError(
                f"gap_energy must be positive and finite, got {self.gap_energy!r}")
        if not (0.0 < self.boltzmann_factor < 1.0 and self.beta_gap <= _MAX_BETA_GAP):
            raise DomainError(
                f"beta gap must give e^(-beta gap) in (0, 1) and be at most "
                f"ln(DBL_MAX) = {_MAX_BETA_GAP:.6g}, got {self.beta_gap!r}")

    @property
    def gap(self) -> float:
        """Effective ladder energy quantum."""
        if self.gap_energy is not None:
            return self.gap_energy
        return self.params.epsilon_gap

    @property
    def beta_gap(self) -> float:
        return self.beta * self.gap

    @property
    def half_beta_gap(self) -> float:
        return 0.5 * self.beta_gap

    @property
    def boltzmann_factor(self) -> float:
        """Weight ratio between adjacent ladder levels, in (0, 1)."""
        return math.exp(-self.beta_gap)

    @property
    def ln_one_minus_boltzmann(self) -> float:
        """ln(1 - e^{-beta gap}): log(-expm1(-beta gap)) up to beta gap = ln 2,
        where e^{-beta gap} rounds near 1, and log1p(-e^{-beta gap}) above,
        where expm1 rounds to -1 (Maechler, "Accurately computing
        log(1 - exp(-|a|))", Rmpfr vignette, 2012)."""
        if self.beta_gap <= _LN_2:
            return math.log(-math.expm1(-self.beta_gap))
        return math.log1p(-self.boltzmann_factor)

    @property
    def occupancy(self) -> float:
        """Bose mean occupancy 1 / (e^{beta gap} - 1)."""
        return 1.0 / math.expm1(self.beta_gap)

    @property
    def ground_energy(self) -> float:
        """Energy of the lowest ladder level at the frozen fast index."""
        p = self.params
        return 0.5 * p.hbar * (self.fast_index * (p.omega + p.omega_c) + p.omega)


# ------------------------------------------------------------------------
# partition function, two routes

def partition_function(ts: ThermalSpec) -> float:
    """Closed geometric form, assembled in log space.

    exp(-(beta hbar / 2)(fast_index + 1/2)(Omega + omega_c)) / (2 sinh(beta gap / 2)).
    """
    p = ts.params
    ln_pref = -0.5 * ts.beta * p.hbar * (ts.fast_index + 0.5) * (p.omega + p.omega_c)
    # 1 / (2 sinh a) = e^{-a} / (1 - e^{-2a})
    ln_sinh = ts.half_beta_gap + ts.ln_one_minus_boltzmann
    return math.exp(ln_pref - ln_sinh)


def partition_function_direct(ts: ThermalSpec) -> float:
    """Term-by-term Boltzmann sum over ladder levels until the tail is negligible.

    The sum stops at the first term t y^k whose geometric tail t y^(k+1) /
    (1 - y) is below _PARTITION_TAIL_TOL of the first term t, after about
    ln(tol (1 - y)) / ln y terms, y = e^{-beta gap}.  Where that count
    exceeds _PARTITION_MAX_TERMS (beta gap below about 2.3e-4) the sum is
    refused up front with EvaluationError (partial None).
    """
    y = ts.boltzmann_factor
    if math.log(_PARTITION_TAIL_TOL * (1.0 - y)) / math.log(y) <= _PARTITION_MAX_TERMS:
        term = math.exp(-ts.beta * ts.ground_energy)
        terms = []
        for _ in range(_PARTITION_MAX_TERMS):
            terms.append(term)
            # geometric tail bound: remaining mass = term * y / (1 - y)
            if term * y <= _PARTITION_TAIL_TOL * (1.0 - y) * terms[0]:
                return math.fsum(terms)
            term *= y
    raise EvaluationError(
        f"partition sum needs more than {_PARTITION_MAX_TERMS} terms "
        f"(beta gap = {ts.beta_gap:.3g})", partial=None, terms=_PARTITION_MAX_TERMS)


def level_weight(nu: int, ts: ThermalSpec) -> float:
    """Normalized population of ladder level nu: (1 - y) y^nu."""
    nu = _order(nu, "nu")
    y = ts.boltzmann_factor
    return -math.expm1(-ts.beta_gap) * y ** nu


# ------------------------------------------------------------------------
# diagonal density (Husimi) and diagonal expansion weight (P-function)
#
# Both depend on |z| alone.  Each profile is one formula over ln I_m or
# ln K_m at 2|z| times a factor (_ln_husimi, _ln_p): the quadrature routes
# read those logs from the grid's profile cache (_grid_ln_husimi, and
# _grid_p, which caches the P profile itself) and integrate in 1-D against
# its radial weight (integrate_radial); the point functions call specfun's
# ln_bessel_i and ln_bessel_k on the float x = 2 rho factor, which run the
# same kernels on a float.


def _husimi_exponents(ts: ThermalSpec) -> tuple[float, float]:
    # returns (decay exponent a, log prefactor excluding the e^{a(m-1)} factor)
    a = ts.half_beta_gap
    return a, math.log(2.0 * math.sinh(a))


def _ln_husimi(ts: ThermalSpec, ln_i) -> np.ndarray:
    # ln of 2 sinh(a) e^{a(m-1)} I_m(2r e^{-a}) / I_m(2r), r > 0
    a, ln_pref = _husimi_exponents(ts)
    return ln_pref + a * (ts.m - 1) + ln_i(math.exp(-a)) - ln_i(1.0)


def _ln_p(ts: ThermalSpec, ln_k) -> np.ndarray:
    # ln of (e^{beta gap} - 1) e^{a m} K_m(2r e^{a}) / K_m(2r), r > 0
    a = ts.half_beta_gap
    return math.log(math.expm1(ts.beta_gap)) + a * ts.m + ln_k(math.exp(a)) - ln_k(1.0)


def _grid_ln_husimi(ts: ThermalSpec, grid: QuadratureGrid) -> np.ndarray:
    return _ln_husimi(ts, partial(grid._ln_bessel, "i", ts.m))


def _grid_p(ts: ThermalSpec, grid: QuadratureGrid) -> np.ndarray:
    # the read-only P profile, formed once per (grid, sector, beta gap)
    return grid._cached(("p", ts.m, ts.beta_gap), lambda: np.exp(
        _ln_p(ts, partial(grid._ln_bessel, "k", ts.m))))


def _i_ratio(grid: QuadratureGrid, m: int, k: int) -> np.ndarray:
    # r^k I_{m+k}(2r) / I_m(2r) at the grid's nodes
    return grid.nodes ** k * np.exp(grid._ln_bessel("i", m + k) - grid._ln_bessel("i", m))


def husimi_thermal(label, ts: ThermalSpec) -> float:
    """Diagonal thermal density in the coherent-state representation.

    2 sinh(a) e^{a(m-1)} I_m(2|z| e^{-a}) / I_m(2|z|) with a = beta gap / 2;
    at the origin this is 1 - e^{-beta gap} for every m.  Values lie in
    (0, 1) and integrate to 1 against the reproducing measure.
    """
    rho = _as_label(label).rho
    if rho == 0.0:
        # at the origin the ratio I_m(2ru)/I_m(2r) -> u^m
        a, ln_pref = _husimi_exponents(ts)
        ln_h = ln_pref + a * (ts.m - 1) - a * ts.m
    else:
        ln_h = _ln_husimi(ts, lambda f: ln_bessel_i(ts.m, 2.0 * rho * f))
    return float(np.exp(ln_h))


def p_function(label, ts: ThermalSpec) -> float:
    """Diagonal expansion weight of the thermal state over projectors.

    (e^{beta gap} - 1) e^{a m} K_m(2|z| e^{a}) / K_m(2|z|), a = beta gap / 2.
    Positive, finite for |z| > 0, and normalized to 1 against the measure.
    """
    lab = _as_label(label)
    if lab.rho == 0.0:
        raise DomainError("diagonal weight undefined at z = 0")
    return float(np.exp(_ln_p(ts, lambda f: ln_bessel_k(ts.m, 2.0 * lab.rho * f))))


# ------------------------------------------------------------------------
# quadrature plumbing

def thermal_grid(ts: ThermalSpec) -> QuadratureGrid:
    """Quadrature grid whose window covers the slow thermal decay.

    The Husimi-type integrands fall off like exp(-2 r (1 - e^{-a})), much
    slower than the bare measure when a is small, so the cutoff must grow
    as the temperature rises.  The grid is build_grid's shared grid at that
    even cutoff, so every temperature and sector with the same cutoff reads
    the same profile cache; at cutoff 42 it is build_grid(max_degree=24).
    """
    a = ts.half_beta_gap
    rate = 2.0 * (1.0 - math.exp(-a))
    # e^{-a} rounds to 1 for beta gap below about 1.1e-16: no decay at all
    needed = (26.0 + math.log1p(1.0 / rate)) / rate if rate > 0.0 else math.inf
    if needed > _MAX_CUTOFF:
        raise DomainError(
            f"thermal decay rate {rate:.3g} needs cutoff {needed:.0f} > "
            f"{_MAX_CUTOFF:.0f}; beta gap is too small for the quadrature window")
    cutoff = max(_THERMAL_MIN_CUTOFF, 2 * math.ceil(needed / 2.0))
    return build_grid(max_degree=_THERMAL_MAX_DEGREE, cutoff=cutoff)


def husimi_normalization_check(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    """|integral of the diagonal density against the measure - 1|."""
    h = np.exp(_grid_ln_husimi(ts, grid))
    return abs(integrate_radial(h, ts.m, grid) - 1.0)


def p_normalization_check(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    """|integral of the diagonal weight against the measure - 1|."""
    return abs(integrate_radial(_grid_p(ts, grid), ts.m, grid) - 1.0)


def fock_population_reconstruction(nu: int, ts: ThermalSpec,
                                   grid: QuadratureGrid) -> float:
    """Ladder-level population recovered by quadrature of the diagonal weight.

    Integrates the weight times the squared level amplitude of the coherent
    state; the target is the geometric law (1 - y) y^nu.
    """
    nu = _order(nu, "nu")
    m = ts.m
    ln_sq_amp = 2.0 * _ln_amplitude(m, np.log(grid.nodes), nu, grid._ln_bessel("i", m))
    return integrate_radial(_grid_p(ts, grid) * np.exp(ln_sq_amp), m, grid)


# ------------------------------------------------------------------------
# closed-form averages and their quadrature counterparts

def thermal_mean_n(ts: ThermalSpec) -> float:
    """Bose occupancy of the radial ladder number."""
    return ts.occupancy


def thermal_mean_n_sq(ts: ThermalSpec) -> float:
    nbar = ts.occupancy
    return nbar + 2.0 * nbar * nbar


def thermal_g(ts: ThermalSpec) -> float:
    """Intensity correlation of the geometric populations: the chaotic value
    2, exact at every temperature and in every sector.

    Forming (<n^2> - <n>) / <n>^2 would cancel as <n> vanishes, so the
    closed form is returned; thermal_g_quadrature is its independent check.
    """
    return 2.0


def thermal_mean_n_quadrature(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    return integrate_radial(_grid_p(ts, grid) * _i_ratio(grid, ts.m, 1), ts.m, grid)


def thermal_g_quadrature(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    """<n(n-1)> / <n>^2 from the P profile: <n(n-1)> is the integral of P
    against the lower symbol r^2 I_{m+2}/I_m and <n> against r I_{m+1}/I_m.
    No difference of two near-equal integrals is formed, so the ratio stays
    resolved as <n> vanishes at low temperature."""
    n1 = thermal_mean_n_quadrature(ts, grid)
    return integrate_radial(_grid_p(ts, grid) * _i_ratio(grid, ts.m, 2), ts.m, grid) / (n1 * n1)


def thermal_q2_closed(ts: ThermalSpec) -> float:
    """Second moment of either quadrature operator, a polynomial in nbar.

    <nu^2> + (m+1) <nu> + (m+1)/2 = 2 nbar^2 + (m+2) nbar + (m+1)/2 under
    the geometric populations; identical for both quadrature components.
    """
    return thermal_mean_n_sq(ts) + (ts.m + 1) * (ts.occupancy + 0.5)


def _q2_trace_depth(ts: ThermalSpec) -> int:
    y = ts.boltzmann_factor
    depth = 16
    while y ** depth * (depth + ts.m + 2.0) ** 2 / (1.0 - y) > 1e-14:
        depth += 8
        if depth > 20_000:
            raise EvaluationError(
                f"trace truncation does not converge at beta gap {ts.beta_gap:.3g}",
                partial=None, terms=depth)
    return depth


def _q2_fock_trace(ts: ThermalSpec, depth: int) -> float:
    # q = (K- + K+) / sqrt(2), so (q q)[nu, nu] = (P(nu-1) + P(nu)) / 2 with
    # P(nu) = (nu+1)(nu+m+1) the diagonal of K- K+, exact in doubles; the
    # levels nu >= depth are left out, their weight being below the
    # truncation tolerance by construction
    p = lowering_band(ts.m, depth, 1, raising=1)
    diag = 0.5 * (p + np.concatenate(([0.0], p[:-1])))
    y = ts.boltzmann_factor
    weights = -math.expm1(-ts.beta_gap) * y ** np.arange(diag.size)
    return float(np.sum((weights * diag)[::-1]))


@dataclass(frozen=True)
class SecondMomentReport(_Record):
    """Three independent routes to the thermal quadrature second moment."""

    _derived = ("quadrature_vs_trace", "closed_vs_trace", "closed_form_consistent")

    m: int
    beta_gap: float
    closed_form: float
    p_quadrature: float
    fock_trace: float
    second_component_quadrature: float
    trace_depth: int

    @property
    def quadrature_vs_trace(self) -> float:
        return abs(self.p_quadrature - self.fock_trace) / abs(self.fock_trace)

    @property
    def closed_vs_trace(self) -> float:
        return abs(self.closed_form - self.fock_trace) / abs(self.fock_trace)

    @property
    def closed_form_consistent(self) -> bool:
        """Whether the closed form agrees with the trace route."""
        return self.closed_vs_trace < 1e-6


def thermal_q2_three_ways(ts: ThermalSpec,
                          grid: QuadratureGrid | None = None) -> SecondMomentReport:
    """Cross-validated thermal second moment of the quadrature operators.

    Routes: closed polynomial in nbar, quadrature of the diagonal weight
    times the coherent-state mean, and a geometric-weighted trace of the
    squared quadrature matrix.  The q and p components are one radial
    integral, since cos^2 and sin^2 have the same angular mean 1/2.
    """
    if grid is None:
        grid = thermal_grid(ts)
    depth = _q2_trace_depth(ts)
    # int P (k3 + 2 r^2 trig^2) dmeasure for trig = cos (q) and sin (p), with
    # trig^2 entering by its exact angular mean 1/2
    p = _grid_p(ts, grid)
    p_k3 = p * (_i_ratio(grid, ts.m, 1) + 0.5 * (ts.m + 1))
    p_r_sq = 2.0 * p * grid.nodes * grid.nodes
    quad = integrate_radial(p_k3 + 0.5 * p_r_sq, ts.m, grid)
    return SecondMomentReport(
        m=ts.m,
        beta_gap=ts.beta_gap,
        closed_form=thermal_q2_closed(ts),
        p_quadrature=quad,
        fock_trace=_q2_fock_trace(ts, depth),
        second_component_quadrature=quad,
        trace_depth=depth,
    )


# ------------------------------------------------------------------------
# Wehrl entropy

@dataclass(frozen=True)
class WehrlReport(_Record):
    """Phase-space entropy of the thermal diagonal density.

    quadrature is the defining integral -int h ln h against the measure;
    approximation is the small-label surrogate -ln(1 - e^{-beta gap});
    scaled shifts the quadrature value by ln(area / (2 pi l_minus^2)) when a
    container area is supplied; strong_field_approximation evaluates the
    dominant-field surrogate when omega_c > 0.
    """

    m: int
    beta_gap: float
    quadrature: float
    approximation: float
    scaled: float | None
    strong_field_approximation: float | None


def _wehrl_strong_field(ts: ThermalSpec) -> float | None:
    p = ts.params
    if p.omega_c <= 0.0 or p.omega0 <= 0.0:
        return None
    b = ts.beta * p.hbar * p.omega0 ** 2 / p.omega_c
    return (0.5 * b - math.log(b)) * b / (2.0 * math.sinh(0.5 * b))


def wehrl_entropy(ts: ThermalSpec, grid: QuadratureGrid | None = None,
                  area: float | None = None) -> WehrlReport:
    """Entropy -int h ln h of the diagonal thermal density, with surrogates.

    The integrand h ln h is set to zero wherever h underflows (correct
    limit x ln x -> 0).  The scaled variant needs the container area and is
    omitted when none is given.
    """
    if grid is None:
        grid = thermal_grid(ts)
    if area is not None and not 0.0 < area < math.inf:
        raise DomainError(f"area must be positive and finite, got {area!r}")

    ln_h = _grid_ln_husimi(ts, grid)
    h = np.exp(ln_h)
    h_ln_h = np.where(h < _UNDERFLOW_FLOOR, 0.0, h * ln_h)
    w_quad = -integrate_radial(h_ln_h, ts.m, grid)
    approx = -ts.ln_one_minus_boltzmann
    scaled = None
    if area is not None:
        cell = 2.0 * math.pi * ts.params.slow_length ** 2
        scaled = w_quad + math.log(area / cell)
    return WehrlReport(
        m=ts.m,
        beta_gap=ts.beta_gap,
        quadrature=w_quad,
        approximation=approx,
        scaled=scaled,
        strong_field_approximation=_wehrl_strong_field(ts),
    )


# ------------------------------------------------------------------------
# sweep support

def thermal_summary(ts: ThermalSpec, grid: QuadratureGrid | None = None,
                    area: float | None = None) -> dict:
    """One sweep row: partition function, moments, correlation, entropy."""
    if grid is None:
        grid = thermal_grid(ts)
    wehrl = wehrl_entropy(ts, grid, area=area)
    q2 = thermal_q2_closed(ts)
    return {
        "beta": ts.beta,
        "m": ts.m,
        "Z": partition_function(ts),
        "N_mean": thermal_mean_n(ts),
        "N2_mean": thermal_mean_n_sq(ts),
        "g": thermal_g(ts),
        "W_quad": wehrl.quadrature,
        "W_approx": wehrl.approximation,
        "Q2": q2,
        "P2": q2,
    }
