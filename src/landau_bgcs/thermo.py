"""Canonical-ensemble quantities in the coherent-state representation.

Within one fixed angular sector the Boltzmann weights over the radial ladder
form a geometric sequence with ratio exp(-beta * gap), where the ladder gap
is hbar (Omega - omega_c) / 2.  Everything here follows from that single
ratio: the partition function, the diagonal (Husimi) density, the diagonal
expansion weight (P-function), Wehrl entropy, and thermal averages.

The fast quantum number that offsets every ladder energy by a common
beta-linear amount is kept as an explicit external parameter; it cancels
from every normalized quantity and only rescales the partition function.

All closed forms carry an independent cross-route: direct Boltzmann sums,
hypergeometric resummation, phase-space quadrature against the diagonal
weight, or a truncated-matrix trace.  Disagreements between routes are
reported, never silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bgcs import _as_label, _ln_amplitude
from .fock import PhysicalParams, SubspaceSpec
from .measure import QuadratureGrid, build_grid, integrate, integrate_radial
from .specfun import (
    DomainError,
    EvaluationError,
    _order,
    gauss_2f1,
    ln_bessel_i,
    ln_bessel_k,
)

__all__ = [
    "ThermalSpec",
    "SecondMomentReport",
    "WehrlReport",
    "partition_function",
    "partition_function_direct",
    "partition_function_hypergeometric",
    "level_weight",
    "husimi_thermal",
    "husimi_thermal_strong_field",
    "p_function",
    "husimi_normalization_check",
    "p_normalization_check",
    "fock_population_reconstruction",
    "thermal_average",
    "thermal_mean_n",
    "thermal_mean_n_sq",
    "thermal_g",
    "thermal_mean_n_quadrature",
    "thermal_mean_n_sq_quadrature",
    "thermal_g_quadrature",
    "thermal_q2_closed",
    "thermal_q2_three_ways",
    "wehrl_entropy",
    "thermal_grid",
    "thermal_summary",
]

_UNDERFLOW_FLOOR = 1e-300
# the direct partition sum stops once its geometric tail is below this share
# of the first term
_PARTITION_TAIL_TOL = 1e-16
_PARTITION_MAX_TERMS = 200_000
# thermal grids resolve these radial degrees and angular modes, at
# build_grid's default tail tolerance
_THERMAL_MAX_DEGREE = 24
_THERMAL_MAX_MODE = 8


@dataclass(frozen=True)
class ThermalSpec:
    """Canonical ensemble over one angular sector.

    fast_index is the frozen fast quantum number whose energy offset scales
    the partition function but cancels from all normalized quantities.
    gap_energy overrides the ladder quantum (defaults to the slow-ladder
    value hbar (Omega - omega_c) / 2 of params).
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
        if self.gap_energy is not None and not self.gap_energy > 0.0:
            raise DomainError(f"gap_energy must be positive, got {self.gap_energy!r}")

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
    def occupancy(self) -> float:
        """Bose mean occupancy 1 / (e^{beta gap} - 1)."""
        return 1.0 / math.expm1(self.beta_gap)

    @property
    def ground_energy(self) -> float:
        """Energy of the lowest ladder level at the frozen fast index."""
        p = self.params
        return 0.5 * p.hbar * (self.fast_index * (p.omega + p.omega_c) + p.omega)

    def level_energy(self, nu: int) -> float:
        return self.ground_energy + self.gap * nu


# ------------------------------------------------------------------------
# partition function, three routes

def partition_function(ts: ThermalSpec) -> float:
    """Closed geometric form, assembled in log space.

    exp(-(beta hbar / 2)(fast_index + 1/2)(Omega + omega_c)) / (2 sinh(beta gap / 2)).
    """
    p = ts.params
    ln_pref = -0.5 * ts.beta * p.hbar * (ts.fast_index + 0.5) * (p.omega + p.omega_c)
    # 1 / (2 sinh a) = e^{-a} / (1 - e^{-2a})
    ln_sinh = ts.half_beta_gap + math.log1p(-ts.boltzmann_factor)
    return math.exp(ln_pref - ln_sinh)


def partition_function_direct(ts: ThermalSpec) -> float:
    """Term-by-term Boltzmann sum over ladder levels until the tail is negligible."""
    y = ts.boltzmann_factor
    term = math.exp(-ts.beta * ts.ground_energy)
    terms = []
    for _ in range(_PARTITION_MAX_TERMS):
        terms.append(term)
        # geometric tail bound: remaining mass = term * y / (1 - y)
        if term * y <= _PARTITION_TAIL_TOL * (1.0 - y) * terms[0]:
            return math.fsum(terms)
        term *= y
    raise EvaluationError(
        f"partition sum did not converge in {_PARTITION_MAX_TERMS} terms "
        f"(beta gap = {ts.beta_gap:.3g})", partial=math.fsum(terms),
        terms=_PARTITION_MAX_TERMS)


def partition_function_hypergeometric(ts: ThermalSpec) -> float:
    """Resummation route: geometric prefactor times 2F1(m+1, 1; m+1; y)."""
    pref = math.exp(-ts.beta * ts.ground_energy)
    return pref * gauss_2f1(ts.m + 1.0, 1.0, ts.m + 1.0, ts.boltzmann_factor)


def level_weight(nu: int, ts: ThermalSpec) -> float:
    """Normalized population of ladder level nu: (1 - y) y^nu."""
    nu = _order(nu, "nu")
    y = ts.boltzmann_factor
    return -math.expm1(-ts.beta_gap) * y ** nu


# ------------------------------------------------------------------------
# diagonal density (Husimi) and diagonal expansion weight (P-function)
#
# Both depend on |z| alone, so each is evaluated once over an array of radii
# with the array Bessel kernels; the quadrature routes integrate these
# profiles in 1-D against the grid's radial weight (integrate_radial).

def _husimi_exponents(ts: ThermalSpec, strong_field: bool) -> tuple[float, float]:
    # returns (decay exponent a, log prefactor excluding the e^{a(m-1)} factor)
    if strong_field:
        p = ts.params
        if p.omega_c <= 0.0:
            raise DomainError("strong-field form needs omega_c > 0")
        a = 0.5 * ts.beta * p.hbar * p.omega0 ** 2 / p.omega_c
        return a, math.log(2.0 * a)
    a = ts.half_beta_gap
    return a, math.log(2.0 * math.sinh(a))


def _ln_husimi(r: np.ndarray, ts: ThermalSpec, strong_field: bool = False) -> np.ndarray:
    a, ln_pref = _husimi_exponents(ts, strong_field)
    m = ts.m
    # at the origin the ratio I_m(2ru)/I_m(2r) -> u^m
    out = np.full(r.shape, ln_pref + a * (m - 1) - a * m)
    pos = r > 0.0
    x = 2.0 * r[pos]
    out[pos] = ln_pref + a * (m - 1) \
        + ln_bessel_i(m, x * math.exp(-a)) - ln_bessel_i(m, x)
    return out


def _ln_p(r: np.ndarray, ts: ThermalSpec) -> np.ndarray:
    # r > 0
    a = ts.half_beta_gap
    x = 2.0 * r
    return math.log(math.expm1(ts.beta_gap)) + a * ts.m \
        + ln_bessel_k(ts.m, x * math.exp(a)) - ln_bessel_k(ts.m, x)


def _i_ratio(m: int, k: int, r: np.ndarray) -> np.ndarray:
    # r^k I_{m+k}(2r) / I_m(2r)
    x = 2.0 * r
    return r ** k * np.exp(ln_bessel_i(m + k, x) - ln_bessel_i(m, x))


def husimi_thermal(label, ts: ThermalSpec) -> float:
    """Diagonal thermal density in the coherent-state representation.

    2 sinh(a) e^{a(m-1)} I_m(2|z| e^{-a}) / I_m(2|z|) with a = beta gap / 2;
    at the origin this is 1 - e^{-beta gap} for every m.  Values lie in
    (0, 1) and integrate to 1 against the reproducing measure.
    """
    lab = _as_label(label)
    return float(np.exp(_ln_husimi(np.array([lab.rho]), ts))[0])


def husimi_thermal_strong_field(label, ts: ThermalSpec) -> float:
    """Dominant-field limit of husimi_thermal.

    Replaces the decay exponent by beta hbar omega0^2 / (2 omega_c) and
    linearizes the sinh prefactor; accurate to a relative floor of order
    (omega0/omega_c)^2, which the caller should keep below the target
    tolerance.
    """
    lab = _as_label(label)
    return float(np.exp(_ln_husimi(np.array([lab.rho]), ts, strong_field=True))[0])


def p_function(label, ts: ThermalSpec) -> float:
    """Diagonal expansion weight of the thermal state over projectors.

    (e^{beta gap} - 1) e^{a m} K_m(2|z| e^{a}) / K_m(2|z|), a = beta gap / 2.
    Positive, finite for |z| > 0, and normalized to 1 against the measure.
    """
    lab = _as_label(label)
    if lab.rho == 0.0:
        raise DomainError("diagonal weight undefined at z = 0")
    return float(np.exp(_ln_p(np.array([lab.rho]), ts))[0])


# ------------------------------------------------------------------------
# quadrature plumbing

def thermal_grid(ts: ThermalSpec) -> QuadratureGrid:
    """Quadrature grid whose window covers the slow thermal decay.

    The Husimi-type integrands fall off like exp(-2 r (1 - e^{-a})), much
    slower than the bare measure when a is small, so the cutoff must grow
    as the temperature rises.
    """
    a = ts.half_beta_gap
    rate = 2.0 * (1.0 - math.exp(-a))
    needed = (26.0 + math.log1p(1.0 / rate)) / rate
    if needed > 600.0:
        raise DomainError(
            f"thermal decay rate {rate:.3g} needs cutoff {needed:.0f} > 600; "
            "beta gap is too small for the quadrature window")
    base = build_grid(max_degree=_THERMAL_MAX_DEGREE, max_mode=_THERMAL_MAX_MODE)
    if needed <= base.cutoff:
        return base
    return build_grid(max_degree=_THERMAL_MAX_DEGREE, max_mode=_THERMAL_MAX_MODE,
                      cutoff=2.0 * math.ceil(needed / 2.0))


def husimi_normalization_check(ts: ThermalSpec, grid: QuadratureGrid,
                               strong_field: bool = False) -> float:
    """|integral of the diagonal density against the measure - 1|."""
    h = np.exp(_ln_husimi(grid.nodes, ts, strong_field))
    return abs(integrate_radial(h, ts.m, grid) - 1.0)


def p_normalization_check(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    """|integral of the diagonal weight against the measure - 1|."""
    return abs(integrate_radial(np.exp(_ln_p(grid.nodes, ts)), ts.m, grid) - 1.0)


def fock_population_reconstruction(nu: int, ts: ThermalSpec,
                                   grid: QuadratureGrid) -> float:
    """Ladder-level population recovered by quadrature of the diagonal weight.

    Integrates the weight times the squared level amplitude of the coherent
    state; the target is the geometric law (1 - y) y^nu.
    """
    nu = _order(nu, "nu")
    m = ts.m
    r = grid.nodes
    ln_sq_amp = 2.0 * _ln_amplitude(m, np.log(r), nu, ln_bessel_i(m, 2.0 * r))
    return integrate_radial(np.exp(_ln_p(r, ts) + ln_sq_amp), m, grid)


def thermal_average(mean_fn, ts: ThermalSpec, grid: QuadratureGrid) -> complex:
    """Ensemble average by quadrature: weight times coherent-state mean.

    mean_fn receives the full complex node matrix and must return a
    like-shaped array of coherent-state mean values.
    """
    w = np.exp(_ln_p(grid.nodes, ts))[:, None]
    return integrate(lambda z: w * np.asarray(mean_fn(z)), ts.m, grid,
                     vectorized=True)


# ------------------------------------------------------------------------
# closed-form averages and their quadrature counterparts

def thermal_mean_n(ts: ThermalSpec) -> float:
    """Bose occupancy of the radial ladder number."""
    return ts.occupancy


def thermal_mean_n_sq(ts: ThermalSpec) -> float:
    nbar = ts.occupancy
    return nbar + 2.0 * nbar * nbar


def thermal_g(ts: ThermalSpec) -> float:
    """Intensity correlation (chaotic value 2, independent of the sector)."""
    n1 = thermal_mean_n(ts)
    return (thermal_mean_n_sq(ts) - n1) / (n1 * n1)


def thermal_mean_n_quadrature(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    r = grid.nodes
    vals = np.exp(_ln_p(r, ts)) * _i_ratio(ts.m, 1, r)
    return integrate_radial(vals, ts.m, grid)


def thermal_mean_n_sq_quadrature(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    r = grid.nodes
    vals = np.exp(_ln_p(r, ts)) * (_i_ratio(ts.m, 2, r) + _i_ratio(ts.m, 1, r))
    return integrate_radial(vals, ts.m, grid)


def thermal_g_quadrature(ts: ThermalSpec, grid: QuadratureGrid) -> float:
    n1 = thermal_mean_n_quadrature(ts, grid)
    n2 = thermal_mean_n_sq_quadrature(ts, grid)
    return (n2 - n1) / (n1 * n1)


def thermal_q2_closed(ts: ThermalSpec) -> float:
    """Second moment of either quadrature operator, hypergeometric route.

    (e^{beta gap} - 1) y^2 (m+1) 2F1(m+2, 2; m+1; y) + nbar + (m+1)/2 with
    y the Boltzmann factor; identical for both quadrature components.
    """
    y = ts.boltzmann_factor
    hyp = gauss_2f1(ts.m + 2.0, 2.0, ts.m + 1.0, y)
    return math.expm1(ts.beta_gap) * y * y * (ts.m + 1.0) * hyp \
        + ts.occupancy + 0.5 * (ts.m + 1.0)


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
    # lazy import; quantize itself imports nothing from here
    from .quantize import SymbolSpec, quantize_closed_form
    sp = SubspaceSpec(ts.m, depth=max(16, depth))
    q = quantize_closed_form(SymbolSpec("q"), sp).entries
    diag = np.real(np.einsum("ij,ji->i", q, q))
    y = ts.boltzmann_factor
    dim = diag.size
    # last diagonal entry is corrupted by truncation; weights there are
    # below the truncation tolerance by construction
    weights = -math.expm1(-ts.beta_gap) * y ** np.arange(dim - 1)
    return float(np.sum((weights * diag[:-1])[::-1]))


def _q2_quadratures(ts: ThermalSpec, grid: QuadratureGrid) -> tuple[float, float]:
    # int P (k3 + 2 r^2 trig^2) dmeasure for trig = cos (q) and sin (p): both
    # share the radial profile P k3; trig^2 enters through its angular mean
    # under the grid's trapezoid rule
    r = grid.nodes
    weight = np.exp(_ln_p(r, ts))
    p_k3 = weight * (_i_ratio(ts.m, 1, r) + 0.5 * (ts.m + 1))
    p_r_sq = 2.0 * weight * r * r
    phi = grid.angles
    return tuple(integrate_radial(p_k3 + np.mean(trig(phi) ** 2) * p_r_sq, ts.m, grid)
                 for trig in (np.cos, np.sin))


@dataclass(frozen=True)
class SecondMomentReport:
    """Three independent routes to the thermal quadrature second moment."""

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
        """Whether the hypergeometric route agrees with the trace route."""
        return self.closed_vs_trace < 1e-6

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "beta_gap": self.beta_gap,
            "closed_form": self.closed_form,
            "p_quadrature": self.p_quadrature,
            "fock_trace": self.fock_trace,
            "second_component_quadrature": self.second_component_quadrature,
            "trace_depth": self.trace_depth,
            "quadrature_vs_trace": self.quadrature_vs_trace,
            "closed_vs_trace": self.closed_vs_trace,
            "closed_form_consistent": self.closed_form_consistent,
        }


def thermal_q2_three_ways(ts: ThermalSpec,
                          grid: QuadratureGrid | None = None) -> SecondMomentReport:
    """Cross-validated thermal second moment of the quadrature operators.

    Routes: hypergeometric closed form, quadrature of the diagonal weight
    times the coherent-state mean, and a geometric-weighted trace of the
    squared quadrature matrix.  Both components are integrated; their
    closed forms coincide.
    """
    if grid is None:
        grid = thermal_grid(ts)
    depth = _q2_trace_depth(ts)
    first, second = _q2_quadratures(ts, grid)
    return SecondMomentReport(
        m=ts.m,
        beta_gap=ts.beta_gap,
        closed_form=thermal_q2_closed(ts),
        p_quadrature=first,
        fock_trace=_q2_fock_trace(ts, depth),
        second_component_quadrature=second,
        trace_depth=depth,
    )


# ------------------------------------------------------------------------
# Wehrl entropy

@dataclass(frozen=True)
class WehrlReport:
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

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "beta_gap": self.beta_gap,
            "quadrature": self.quadrature,
            "approximation": self.approximation,
            "scaled": self.scaled,
            "strong_field_approximation": self.strong_field_approximation,
        }


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
    if area is not None and not area > 0.0:
        raise DomainError(f"area must be positive, got {area!r}")

    ln_h = _ln_husimi(grid.nodes, ts)
    h = np.exp(ln_h)
    h_ln_h = np.where(h < _UNDERFLOW_FLOOR, 0.0, h * ln_h)
    w_quad = -integrate_radial(h_ln_h, ts.m, grid)
    approx = -math.log1p(-ts.boltzmann_factor)
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
