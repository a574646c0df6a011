"""Named verification suites with measured residuals against pinned tolerances.

Each suite re-runs a family of identities end to end (special functions,
frame identity, kernel idempotence, quantization cross-routes, commutator
closed forms, thermal routes) and reports one CheckResult per identity.
The command-line verify subcommand is a thin wrapper over run_suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bgcs import CoherentLabel, kernel_idempotence_check
from .fock import PhysicalParams, SubspaceSpec, ladder_matrix
from .measure import build_grid, radial_moment_check, resolution_of_identity_check
from .quantize import (
    SymbolSpec,
    energy_commutators,
    quantize_by_quadrature,
    quantize_closed_form,
)
from .specfun import DomainError, _Record, bessel_i, bessel_k
from .thermo import (
    ThermalSpec,
    fock_population_reconstruction,
    husimi_normalization_check,
    level_weight,
    p_normalization_check,
    partition_function,
    partition_function_direct,
    thermal_g_quadrature,
    thermal_grid,
    thermal_mean_n,
    thermal_mean_n_quadrature,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite",
           "suite_specfun", "suite_identity", "suite_kernel",
           "suite_quantize", "suite_commutators", "suite_thermo"]

# truncation depth of the operator suites
_OPERATOR_DEPTH = 16


@dataclass(frozen=True)
class CheckResult(_Record):
    """One verified identity: measured residual against its tolerance."""

    _derived = ("passed",)

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def suite_specfun(tol: float | None = None) -> list[CheckResult]:
    """Bessel cross-product identity x (I_m K_{m+1} + I_{m+1} K_m) = 1 for
    m = 0..8, from one evaluation of I_k and K_k, k = 0..9, per point."""
    tol = 1e-12 if tol is None else tol
    worst = 0.0
    for x in np.logspace(-2.0, math.log10(50.0), 20).tolist():
        i_n = [bessel_i(n, x) for n in range(10)]
        k_n = [bessel_k(n, x) for n in range(10)]
        for m in range(9):
            cross = i_n[m] * k_n[m + 1] + i_n[m + 1] * k_n[m]
            worst = max(worst, abs(x * cross - 1.0))
    return [CheckResult("bessel_cross_product_vs_inverse_argument", worst, tol)]


def suite_identity(tol: float | None = None) -> list[CheckResult]:
    """Frame identity per sector and the radial moment family."""
    tol = 1e-6 if tol is None else tol
    # degree covers both the frame check (2 n_check + m + 1) and the radial
    # moments up to n = 20
    grid = build_grid(max_degree=42)
    out = []
    for m in (0, 2, 4):
        res = resolution_of_identity_check(SubspaceSpec(m), 8, grid)
        out.append(CheckResult(f"frame_identity_m{m}", res, tol))
    worst = 0.0
    for n in range(21):
        for m in range(min(n, 5) + 1):
            worst = max(worst, radial_moment_check(n, m, grid))
    out.append(CheckResult("radial_moment_family", worst, min(tol, 1e-8)))
    return out


def suite_kernel(tol: float | None = None) -> list[CheckResult]:
    """Reproducing-kernel idempotence on random label pairs."""
    tol = 1e-6 if tol is None else tol
    grid = build_grid(max_degree=24)
    rng = np.random.default_rng(20240817)
    out = []
    for m in (0, 2):
        worst = 0.0
        for _ in range(5):
            r1, r2 = rng.uniform(0.05, 3.0, size=2)
            p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            res = kernel_idempotence_check(
                CoherentLabel.from_polar(r1, p1),
                CoherentLabel.from_polar(r2, p2), m, grid)
            worst = max(worst, res)
        out.append(CheckResult(f"kernel_idempotence_m{m}", worst, tol))
    return out


def suite_quantize(tol: float | None = None) -> list[CheckResult]:
    """Quadrature-built operators against their closed ladder forms, on the
    interior block: each diagonal but its last two entries."""
    tol = 1e-6 if tol is None else tol
    depth = _OPERATOR_DEPTH
    out = []
    for m in (0, 1, 3):
        sp = SubspaceSpec(m, depth=depth)
        grid = build_grid(max_degree=2 * depth + m + 3)
        worst = 0.0
        for tag in ("z", "z_bar", "abs_z_sq", "z_sq", "q_sq"):
            quad = quantize_by_quadrature(SymbolSpec(tag), sp, grid).diagonals
            closed = quantize_closed_form(SymbolSpec(tag), sp).diagonals
            for k, d in quad.items():
                worst = max(worst, float(np.max(np.abs(d - closed[k])[:-2])))
        out.append(CheckResult(f"quantization_cross_route_m{m}", worst, tol))
    return out


def suite_commutators(tol: float | None = None) -> list[CheckResult]:
    """Ladder commutator and the four energy-symbol commutators.

    [K-, K+] is diagonal: row t of the quantized z times z-bar is
    z[t] zb[t] and of z-bar times z is zb[t-1] z[t-1] (0 in row 0), checked
    against 2 K3 on the interior rows, all but the last."""
    tol = 1e-12 if tol is None else tol
    out = []
    for m in (0, 1, 3):
        sp = SubspaceSpec(m, depth=_OPERATOR_DEPTH)
        z_zb = quantize_closed_form(SymbolSpec("z"), sp).diagonals[1] \
            * quantize_closed_form(SymbolSpec("z_bar"), sp).diagonals[-1]
        want = 2.0 * ladder_matrix("k3", sp).diagonals[0][:-1]
        res = float(np.max(np.abs(np.diff(z_zb, prepend=0.0) - want)))
        out.append(CheckResult(f"lowering_raising_commutator_m{m}", res, tol))
        rep = energy_commutators(m, sp)
        out.append(CheckResult(f"energy_commutators_m{m}", rep.max_err, tol))
    return out


def suite_thermo(tol: float | None = None) -> list[CheckResult]:
    """Partition routes, diagonal normalizations, and thermal averages."""
    quad_tol = 1e-6 if tol is None else tol
    strict_tol = min(quad_tol, 1e-12)
    # unit frequencies at beta * gap = 1
    params = PhysicalParams(omega0=1.0, omega_c=1.0)
    beta = 1.0 / params.epsilon_gap
    out = []

    ts0 = ThermalSpec(params, beta=beta, m=0)
    grid = thermal_grid(ts0)
    z_closed = partition_function(ts0)
    out.append(CheckResult(
        "partition_closed_vs_direct",
        abs(partition_function_direct(ts0) - z_closed) / z_closed, strict_tol))

    for m in (0, 1):
        ts = ThermalSpec(params, beta=beta, m=m)
        out.append(CheckResult(
            f"husimi_normalization_m{m}",
            husimi_normalization_check(ts, grid), quad_tol))
        out.append(CheckResult(
            f"p_normalization_m{m}", p_normalization_check(ts, grid), quad_tol))

    got = {m: thermal_mean_n_quadrature(ThermalSpec(params, beta=beta, m=m), grid)
           for m in (0, 4)}
    want = thermal_mean_n(ts0)
    out.append(CheckResult(
        "thermal_occupancy_vs_bose",
        max(abs(v - want) / want for v in got.values()), quad_tol))
    out.append(CheckResult(
        "thermal_occupancy_sector_independent",
        abs(got[0] - got[4]), quad_tol))
    out.append(CheckResult(
        "thermal_intensity_correlation_chaotic",
        abs(thermal_g_quadrature(ts0, grid) - 2.0), quad_tol))

    ts1 = ThermalSpec(params, beta=beta, m=1)
    worst = max(
        abs(fock_population_reconstruction(nu, ts1, grid)
            - level_weight(nu, ts1)) for nu in (0, 1, 2))
    out.append(CheckResult("population_reconstruction_geometric", worst, quad_tol))
    return out


_SUITES = {
    "specfun": suite_specfun,
    "identity": suite_identity,
    "kernel": suite_kernel,
    "quantize": suite_quantize,
    "commutators": suite_commutators,
    "thermo": suite_thermo,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, tol: float | None = None) -> list[CheckResult]:
    """Run one named suite (or every suite for "all")."""
    if name == "all":
        out = []
        for fn in _SUITES.values():
            out.extend(fn(tol))
        return out
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](tol)
