"""Barut-Girardello coherent states on Landau levels.

Numerics for su(1,1) ladder operators on fixed angular-momentum subspaces,
the associated coherent states, their resolution of the identity, coherent
state (anti-Wick) quantization of elementary symbols, and canonical-ensemble
thermodynamics, with every closed form paired with an independent series or
quadrature route.

The curated surface below re-exports the everyday entry points; the
submodules keep the full APIs (specfun for the Bessel kernels, measure
for quadrature grids, quantize for operator construction, thermo for the
canonical ensemble, checks for the verification suites).
"""

from .bgcs import (
    CoherentLabel,
    StateVector,
    bgcs_state,
    evolve_label,
    fano,
    g2,
    mandel_q,
    mean_k3,
    mean_n,
    mean_n_sq,
    overlap,
    probability_density,
    snr,
)
from .checks import run_suite
from .fock import OperatorMatrix, PhysicalParams, SubspaceSpec, ladder_matrix
from .measure import build_grid, radial_moment_check, resolution_of_identity_check
from .quantize import (
    SymbolSpec,
    dispersions,
    energy_commutators,
    energy_operator_decomposition_check,
    quantize_by_quadrature,
    quantize_closed_form,
)
from .specfun import DomainError, EvaluationError
from .thermo import (
    ThermalSpec,
    husimi_thermal,
    p_function,
    partition_function,
    thermal_grid,
    thermal_q2_three_ways,
    thermal_summary,
    wehrl_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentLabel",
    "DomainError",
    "EvaluationError",
    "OperatorMatrix",
    "PhysicalParams",
    "StateVector",
    "SubspaceSpec",
    "SymbolSpec",
    "ThermalSpec",
    "bgcs_state",
    "build_grid",
    "dispersions",
    "energy_commutators",
    "energy_operator_decomposition_check",
    "evolve_label",
    "fano",
    "g2",
    "husimi_thermal",
    "ladder_matrix",
    "mandel_q",
    "mean_k3",
    "mean_n",
    "mean_n_sq",
    "overlap",
    "p_function",
    "partition_function",
    "probability_density",
    "quantize_by_quadrature",
    "quantize_closed_form",
    "radial_moment_check",
    "resolution_of_identity_check",
    "run_suite",
    "snr",
    "thermal_grid",
    "thermal_q2_three_ways",
    "thermal_summary",
    "wehrl_entropy",
    "__version__",
]
