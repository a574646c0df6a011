"""Result records: one serialisation rule, verification suite order."""

import pytest

from landau_bgcs.bgcs import CoherentLabel
from landau_bgcs.checks import SUITE_NAMES, CheckResult, run_suite
from landau_bgcs.fock import PhysicalParams, SubspaceSpec
from landau_bgcs.quantize import (
    CommutatorCheck,
    CommutatorReport,
    DecompositionReport,
    MatrixEntry,
    energy_commutators,
    energy_operator_decomposition_check,
)
from landau_bgcs.thermo import ThermalSpec, thermal_q2_three_ways, wehrl_entropy

_PARAMS = PhysicalParams()


def _ts(beta_gap, m):
    return ThermalSpec(_PARAMS, beta=beta_gap / _PARAMS.epsilon_gap, m=m)


def _schema(d):
    return [(k, type(v).__name__) for k, v in d.items()]


# ------------------------------------------------------------------ suites

def test_run_suite_all_gives_every_check_in_suite_order():
    assert [c.name for c in run_suite("all")] == [
        "bessel_cross_product_vs_inverse_argument",
        "frame_identity_m0", "frame_identity_m2", "frame_identity_m4",
        "radial_moment_family",
        "kernel_idempotence_m0", "kernel_idempotence_m2",
        "quantization_cross_route_m0", "quantization_cross_route_m1",
        "quantization_cross_route_m3",
        "lowering_raising_commutator_m0", "energy_commutators_m0",
        "lowering_raising_commutator_m1", "energy_commutators_m1",
        "lowering_raising_commutator_m3", "energy_commutators_m3",
        "partition_closed_vs_direct",
        "husimi_normalization_m0", "p_normalization_m0",
        "husimi_normalization_m1", "p_normalization_m1",
        "thermal_occupancy_vs_bose", "thermal_occupancy_sector_independent",
        "thermal_intensity_correlation_chaotic",
        "population_reconstruction_geometric",
    ]


def test_run_suite_unknown_name_lists_the_suites():
    with pytest.raises(ValueError) as err:
        run_suite("nope")
    assert str(err.value) == f"unknown suite 'nope'; choose from {SUITE_NAMES!r}"


# ----------------------------------------------------------------- records

def test_check_result_as_dict():
    d = CheckResult("x", 0.5, 1.0).as_dict()
    assert d == {"name": "x", "residual": 0.5, "tolerance": 1.0, "passed": True}
    assert _schema(d) == [("name", "str"), ("residual", "float"),
                          ("tolerance", "float"), ("passed", "bool")]


def test_decomposition_report_serialises_its_entries():
    rep = DecompositionReport(
        m=0, depth=8, interior=7, energy_split_max_err=0.0, symmetric_sum_max_err=0.0,
        residual_q_entries=(MatrixEntry(2, 0, 1.25), MatrixEntry(3, 1, -0.5)),
        residual_p_entries=(MatrixEntry(2, 0, -1.25),),
        max_interior_residual_q=1.25, max_interior_residual_p=1.25,
        edge_residual_q=2.5, claimed_entry=(2, 0), claimed_coefficient=1.0,
        computed_at_claimed_entry_q=1.25, matches_claimed_projectors=False)
    assert MatrixEntry(3, 1, -0.5).as_dict() == {"row": 3, "col": 1, "value": -0.5}
    assert rep.as_dict() == {
        "m": 0, "depth": 8, "interior": 7,
        "energy_split_max_err": 0.0, "symmetric_sum_max_err": 0.0,
        "residual_q_entries": [{"row": 2, "col": 0, "value": 1.25},
                               {"row": 3, "col": 1, "value": -0.5}],
        "residual_p_entries": [{"row": 2, "col": 0, "value": -1.25}],
        "max_interior_residual_q": 1.25, "max_interior_residual_p": 1.25,
        "edge_residual_q": 2.5, "claimed_entry": [2, 0],
        "claimed_coefficient": 1.0, "computed_at_claimed_entry_q": 1.25,
        "matches_claimed_projectors": False,
    }


def test_decomposition_report_schema():
    d = energy_operator_decomposition_check(1, SubspaceSpec(1, depth=8)).as_dict()
    assert _schema(d) == [
        ("m", "int"), ("depth", "int"), ("interior", "int"),
        ("energy_split_max_err", "float"), ("symmetric_sum_max_err", "float"),
        ("residual_q_entries", "list"), ("residual_p_entries", "list"),
        ("max_interior_residual_q", "float"), ("max_interior_residual_p", "float"),
        ("edge_residual_q", "float"), ("claimed_entry", "list"),
        ("claimed_coefficient", "float"), ("computed_at_claimed_entry_q", "float"),
        ("matches_claimed_projectors", "bool"),
    ]
    assert d["edge_residual_q"] == 90.0
    assert d["claimed_entry"] == [2, 0]


def test_commutator_report_keeps_max_err_before_its_checks():
    rep = energy_commutators(0, SubspaceSpec(0, depth=8))
    assert isinstance(rep, CommutatorReport)
    assert all(isinstance(c, CommutatorCheck) for c in rep.checks)
    d = rep.as_dict()
    assert _schema(d) == [("m", "int"), ("depth", "int"), ("max_err", "float"),
                          ("checks", "list")]
    assert d["checks"][0] == {"name": "[abs_z_sq, z]", "max_interior_err": 0.0,
                              "example_entry": [0, 1], "example_value": -3.0,
                              "expected_value": -3.0}
    assert [c["example_entry"] for c in d["checks"]] == [[0, 1], [2, 1], [0, 2], [2, 0]]


def test_second_moment_report_ends_with_its_derived_values():
    d = thermal_q2_three_ways(_ts(1.0, 1)).as_dict()
    assert _schema(d) == [
        ("m", "int"), ("beta_gap", "float"), ("closed_form", "float"),
        ("p_quadrature", "float"), ("fock_trace", "float"),
        ("second_component_quadrature", "float"), ("trace_depth", "int"),
        ("quadrature_vs_trace", "float"), ("closed_vs_trace", "float"),
        ("closed_form_consistent", "bool"),
    ]
    assert d["trace_depth"] == 48
    assert d["closed_form"] == 3.423323895284911


def test_wehrl_report_schema():
    ts = _ts(1.0, 1)
    d = wehrl_entropy(ts, area=10.0).as_dict()
    assert _schema(d) == [("m", "int"), ("beta_gap", "float"), ("quadrature", "float"),
                          ("approximation", "float"), ("scaled", "float"),
                          ("strong_field_approximation", "float")]
    assert d["quadrature"] == 1.3142687883073025
    assert d["scaled"] == 1.2977649898323993
    assert wehrl_entropy(ts).as_dict()["scaled"] is None


def test_coherent_label_as_dict():
    assert CoherentLabel(0.6, -0.8).as_dict() == {
        "re": 0.6, "im": -0.8, "rho": 1.0, "phi": 5.355890089177974}
    # from_polar keeps the supplied modulus and the reduced phase
    assert CoherentLabel.from_polar(2.0, -1.0).as_dict() == {
        "re": 1.080604611736279, "im": -1.6829419696157932,
        "rho": 2.0, "phi": 5.283185307179586}
