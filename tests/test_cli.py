"""End-to-end command-line runs: payload fidelity, formats, exit codes."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs import cli
from landau_bgcs.bgcs import CoherentLabel, g2, mandel_q, mean_k3, mean_n, mean_n_sq, snr
from landau_bgcs.cli import RunConfig, _build_config, _build_parser, main
from landau_bgcs.fock import PhysicalParams
from oracles import jsonify_reference

_GAP = PhysicalParams().epsilon_gap
_BETA_LN2 = math.log(2.0) / _GAP


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, *argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


# ----------------------------------------------------------------- stats

def test_stats_matches_library_fields(capsys):
    doc = _run_json(capsys, "stats", "--z", "3,0", "--m", "2")
    lab = CoherentLabel(3.0, 0.0)
    assert doc["mean_k3"] == mean_k3(lab, 2)
    assert doc["mean_n"] == mean_n(lab, 2)
    assert doc["mean_n_sq"] == mean_n_sq(lab, 2)
    assert doc["g2"] == g2(lab, 2)
    assert doc["mandel_q"] == mandel_q(lab, 2)
    assert doc["snr"] == snr(lab, 2)
    assert doc["dispersion_q_sq"] == doc["dispersion_p_sq"] == mean_k3(lab, 2)


def test_stats_serialization_is_byte_stable(capsys):
    rc1, out1, _ = _run(capsys, "stats", "--z", "1.7,0.3", "--m", "1")
    rc2, out2, _ = _run(capsys, "stats", "--z", "1.7,0.3", "--m", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    # floats carry 17 significant digits
    lab = CoherentLabel(1.7, 0.3)
    assert f"{mean_n(lab, 1):.17g}" in out1


def test_stats_small_label_antibunching(capsys):
    doc = _run_json(capsys, "stats", "--z", "0.001,0", "--m", "0")
    assert doc["g2"] == pytest.approx(0.5, abs=1e-4)
    assert doc["mandel_q"] < 0.0


def test_stats_vacuum_label_reports_null_ratios(capsys):
    doc = _run_json(capsys, "stats", "--z", "0,0", "--m", "1")
    assert doc["mandel_q"] is None
    assert doc["fano"] is None
    assert doc["mean_n"] == 0.0


def test_stats_requires_label(capsys):
    rc, _, err = _run(capsys, "stats", "--m", "1")
    assert rc == 2
    assert "--z" in err


@pytest.mark.parametrize("argv", [("stats", "--z=0,0", "--m", "-2"),
                                  ("stats", "--z=0,0", "--m", "-1"),
                                  ("evolve", "--z=0,0", "--t", "1", "--m", "-1")])
def test_negative_order_at_vacuum_is_usage_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: m must be an integer >= 0, got {argv[-1]}\n"


# ------------------------------------------------------- overlap and evolve

def test_overlap_fields(capsys):
    from landau_bgcs.bgcs import overlap
    doc = _run_json(capsys, "overlap", "--z", "1,0", "--z2", "0.5,0.5", "--m", "0")
    want = overlap(CoherentLabel(0.5, 0.5), CoherentLabel(1.0, 0.0), 0)
    assert doc["overlap"] == [want.real, want.imag]
    assert doc["overlap_abs"] <= 1.0


def test_large_order_edges_exit_without_traceback(capsys):
    doc = _run_json(capsys, "stats", "--z=2,0", "--m", "101")
    assert doc["g2"] == g2(CoherentLabel(2.0, 0.0), 101)
    doc = _run_json(capsys, "stats", "--z=0,0", "--m", "170")
    assert doc["g2"] == 171 / 172
    doc = _run_json(capsys, "overlap", "--z", "1,0", "--z2", "1,0.5", "--m", "150")
    assert 0.0 < doc["overlap_abs"] <= 1.0
    rc, out, err = _run(capsys, "overlap", "--z", "1,0", "--z2", "1,0.5", "--m", "200")
    assert rc == 2 and out == ""
    assert err.startswith("evaluation error")


def test_evolve_preserves_modulus(capsys):
    doc = _run_json(capsys, "evolve", "--z", "2,0", "--t", "0.7", "--m", "1")
    assert doc["final"]["rho"] == doc["initial"]["rho"]
    assert doc["mean_n_final"] == doc["mean_n_initial"]
    assert doc["rotation_rate"] == pytest.approx(_GAP, rel=1e-15)


def test_evolve_requires_time(capsys):
    rc, _, err = _run(capsys, "evolve", "--z", "1,0")
    assert rc == 2 and "--t" in err


# ------------------------------------------------- identity and commutators

def test_identity_check_passes(capsys):
    doc = _run_json(capsys, "identity", "--m", "0")
    assert doc["passed"] is True
    assert doc["residual"] < 1e-6


def test_identity_tight_tolerance_fails(capsys):
    rc, out, _ = _run(capsys, "identity", "--m", "0", "--tol", "1e-30")
    assert rc == 1
    assert json.loads(out)["passed"] is False


def test_quantize_emits_ladder_matrix(capsys):
    doc = _run_json(capsys, "quantize", "--symbol", "z", "--m", "0",
                    "--depth", "8")
    assert doc["band"] == 1
    assert doc["self_adjoint"] is False
    assert doc["entries"][0][1] == [1.0, 0.0]
    assert doc["entries"][1][0] == [0.0, 0.0]
    sym = _run_json(capsys, "quantize", "--symbol", "q", "--m", "0",
                    "--depth", "8")
    assert sym["self_adjoint"] is True


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 149. GiB for an array with shape (100001, 100001)",
     "error: Unable to allocate 149. GiB for an array with shape (100001, 100001)\n"),
    ("", "error: out of memory\n"),
])
def test_memory_exhaustion_exits_two_with_one_line(capsys, monkeypatch, message, line):
    # a stand-in for the dense matrix of quantize --depth 100000: nothing
    # this large is ever allocated here
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr("landau_bgcs.cli.quantize_closed_form", exhausted)
    rc, out, err = _run(capsys, "quantize", "--symbol", "z", "--depth", "100000")
    assert (rc, out, err) == (2, "", line)


def test_commutators_report(capsys):
    doc = _run_json(capsys, "commutators", "--m", "1", "--depth", "12")
    assert doc["passed"] is True
    assert doc["commutators"]["max_err"] < 1e-12
    assert doc["decomposition"]["matches_claimed_projectors"] is False


# ----------------------------------------------------------------- thermal

def test_thermal_row_values(capsys):
    doc = _run_json(capsys, "thermal", "--beta", f"{_BETA_LN2:.17g}", "--m", "0")
    assert doc["N_mean"] == pytest.approx(1.0, rel=1e-12)
    assert doc["g"] == pytest.approx(2.0, rel=1e-12)
    assert doc["beta_gap"] == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("argv,message", [
    (("thermal", "--beta", "1e-300"), "beta gap"),
    (("thermal", "--beta", "1e-16"), "quadrature window"),
    (("thermal", "--beta", "1200"), "beta gap"),
    (("thermal", "--beta", "1", "--gap", "inf"), "gap_energy"),
    (("wehrl", "--beta", "2", "--area", "inf"), "area"),
    (("stats", "--z=41,0", "--m", "1500"), "normal double range"),
    (("stats", "--z=1.3e154,0"), "overflows"),
    (("stats", "--z=1.4e154,0"), "overflows"),
    (("stats", "--z=1e300,0", "--m", "3"), "overflows"),
])
def test_extremes_exit_two_without_traceback(capsys, argv, message):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(("error:", "evaluation error:"))
    assert message in err


def test_stats_below_sqrt_dbl_max_keeps_its_bytes(capsys):
    rc, out, _ = _run(capsys, "stats", "--z=1e100,0")
    assert rc == 0
    assert out == """{
  "m": 0,
  "z": {
    "re": 1e+100,
    "im": 0,
    "rho": 1e+100,
    "phi": 0
  },
  "mean_k3": 1e+100,
  "mean_n": 1e+100,
  "mean_n_sq": 9.9999999999999997e+199,
  "g2": 1,
  "snr": 2e+100,
  "dispersion_q_sq": 1e+100,
  "dispersion_p_sq": 1e+100,
  "dispersion_product": 9.9999999999999997e+199,
  "mandel_q": 0,
  "fano": 1
}
"""


def test_thermal_at_low_temperature_is_exact(capsys):
    doc = _run_json(capsys, "thermal", "--beta", "1000")
    assert doc["g"] == 2.0
    assert 0.0 < doc["N_mean"] < 1e-268


def test_thermal_rejects_unconfined(capsys):
    rc, _, err = _run(capsys, "thermal", "--omega0", "0", "--beta", "1")
    assert rc == 2
    assert "Omega > omega_c" in err


def test_wehrl_reports_surrogates(capsys):
    beta = 3.0 / _GAP
    doc = _run_json(capsys, "wehrl", "--beta", f"{beta:.17g}", "--m", "0")
    assert doc["quadrature"] == pytest.approx(0.7518842581881834, rel=1e-9)
    assert doc["approximation"] == pytest.approx(
        -math.log1p(-math.exp(-3.0)), rel=1e-10)
    assert doc["scaled"] is None
    with_area = _run_json(capsys, "wehrl", "--beta", f"{beta:.17g}",
                          "--m", "0", "--area", "100")
    assert with_area["scaled"] is not None


# ------------------------------------------------------------------- sweep

def test_sweep_single_row_bose_unit(capsys):
    rc, out, err = _run(capsys, "sweep", "--beta-range",
                        f"{_BETA_LN2:.17g}:{_BETA_LN2:.17g}:1", "--m-list", "0")
    assert rc == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "beta,m,Z,N_mean,N2_mean,g,W_quad,W_approx,Q2,P2"
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(1.0, rel=1e-12)


def test_sweep_grid_of_rows(capsys):
    b0, b1 = 2.0 / _GAP, 4.0 / _GAP
    rc, out, err = _run(capsys, "sweep", "--beta-range",
                        f"{b0:.17g}:{b1:.17g}:3", "--m-list", "0,2")
    assert rc == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) == pytest.approx(2.0, abs=1e-6)
        assert cells[8] == cells[9]


def test_sweep_evaluates_factor_one_profiles_once_per_cutoff(capsys, kernel_calls):
    # beta gap 0.5 takes cutoff 62, and 3, 5.5 and 8 share cutoff 42: per
    # cutoff and sector one I_m and one K_m at 2r (the measure weight), per
    # temperature and sector one I_m at 2r e^{-a} (the Husimi profile)
    rc, out, err = _run(capsys, "sweep", "--beta-range",
                        f"{0.5 / _GAP:.17g}:{8.0 / _GAP:.17g}:4", "--m-list", "0,2")
    assert rc == 0, err
    assert len(out.strip().split("\n")) == 1 + 4 * 2
    assert kernel_calls == {"i": (2 + 4) * 2, "k": 2 * 2}


def test_sweep_json_variant(capsys):
    rows = _run_json(capsys, "sweep", "--beta-range",
                     f"{_BETA_LN2:.17g}:{_BETA_LN2:.17g}:1", "--m-list", "1",
                     "--format", "json")
    assert isinstance(rows, list) and rows[0]["m"] == 1


def test_sweep_requires_range(capsys):
    rc, _, err = _run(capsys, "sweep", "--m-list", "0")
    assert rc == 2 and "beta-range" in err


def test_sweep_empty_sector_list_is_usage_error(capsys):
    rc, out, err = _run(capsys, "sweep", "--beta-range", "1:2:2", "--m-list", "")
    assert rc == 2 and out == ""
    assert err == "error: --m-list: expected comma-separated integers, got ''\n"


# ------------------------------------------------------------------ verify

def test_verify_specfun_suite(capsys):
    doc = _run_json(capsys, "verify", "--suite", "specfun")
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert {c["name"] for c in doc["checks"]} == {
        "bessel_cross_product_vs_inverse_argument"}


def test_verify_csv_format(capsys):
    rc, out, _ = _run(capsys, "verify", "--suite", "kernel", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,residual,tolerance,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_tight_tolerance_exits_one(capsys):
    rc, out, _ = _run(capsys, "verify", "--suite", "identity", "--tol", "1e-30")
    assert rc == 1
    assert json.loads(out)["passed"] is False


def test_verify_unknown_suite_is_usage_error(capsys):
    rc, _, _ = _run(capsys, "verify", "--suite", "nope")
    assert rc == 2


# --------------------------------------------------------- config and output

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega0 = 0.5\nm = 3  # sector\nz = 1.5,0.5\n")
    doc = _run_json(capsys, "stats", "--config", str(cfg))
    assert doc["m"] == 3 and doc["z"]["re"] == 1.5
    doc2 = _run_json(capsys, "stats", "--config", str(cfg), "--m", "1")
    assert doc2["m"] == 1


# one non-default value per setting: (flag, text, parsed value)
_SETTING_VALUES = {
    "omega0": ("--omega0", "0.5", 0.5),
    "omega_c": ("--omega-c", "2.5", 2.5),
    "hbar": ("--hbar", "0.25", 0.25),
    "mass": ("--mass", "2", 2.0),
    "beta": ("--beta", "1.5", 1.5),
    "m": ("--m", "3", 3),
    "depth": ("--depth", "12", 12),
    "n0": ("--n0", "2", 2),
    "gap": ("--gap", "0.75", 0.75),
    "z": ("--z", "1.5,0.5", complex(1.5, 0.5)),
    "z2": ("--z2", "0.25", complex(0.25, 0.0)),
    "t": ("--t", "1e-3", 1e-3),
    "symbol": ("--symbol", "q_sq", "q_sq"),
    "area": ("--area", "100", 100.0),
    "n_check": ("--n-check", "4", 4),
    "tol": ("--tol", "1e-9", 1e-9),
    "fmt": ("--format", "csv", "csv"),
    "out": ("--out", "result.json", "result.json"),
    "beta_range": ("--beta-range", "1:2:3", (1.0, 2.0, 3)),
    "m_list": ("--m-list", "0,2", (0, 2)),
}


def test_every_setting_has_a_sample_value():
    assert set(_SETTING_VALUES) == {f.name for f in fields(RunConfig)} - {"suite"}


@pytest.mark.parametrize("name", sorted(_SETTING_VALUES))
def test_flag_and_config_key_give_the_same_setting(tmp_path, name):
    flag, text, want = _SETTING_VALUES[name]
    parser = _build_parser()
    from_flag = _build_config(parser.parse_args(["stats", flag, text]))
    assert getattr(from_flag, name) == want != getattr(RunConfig(), name)
    # the config file takes the field name and the flag without its dashes
    for key in (name, flag[2:]):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_file = _build_config(parser.parse_args(["stats", "--config", str(cfg)]))
        assert from_file == from_flag


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_value_names_its_flag(tmp_path, capsys, source):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = abc\n")
    argv = ["--m", "abc"] if source == "flag" else ["--config", str(cfg)]
    rc, out, err = _run(capsys, "stats", "--z", "1,0", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--m: invalid int value 'abc'" in err


def test_unknown_format_rejected_before_the_command(capsys):
    rc, out, err = _run(capsys, "stats", "--format", "xml")
    assert rc == 2 and out == ""
    assert err == "error: unknown format 'xml' (use json or csv)\n"


@pytest.mark.parametrize("argv,call", [
    (("identity", "--m", "0", "--n-check", "12"), "resolution_of_identity_check"),
    (("wehrl", "--beta", "1"), "wehrl_entropy"),
    (("commutators", "--depth", "8"), "energy_commutators"),
    (("stats", "--z", "1,0"), "dispersions"),
], ids=["identity", "wehrl", "commutators", "stats"])
def test_csv_rejected_before_the_command(capsys, monkeypatch, argv, call):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{call} ran")
    monkeypatch.setattr(f"landau_bgcs.cli.{call}", unreachable)
    rc, out, err = _run(capsys, *argv, "--format", "csv")
    assert rc == 2 and out == ""
    assert err == "error: csv output is only available for sweep and verify\n"


def test_repeated_main_is_byte_identical_after_a_bad_flag(capsys):
    argv = ("stats", "--z=0.3,0.2", "--m", "1")
    first = _run(capsys, *argv)
    rc, out, err = _run(capsys, "stats", "--bogus", "1")
    assert rc == 2 and out == "" and "unrecognized arguments: --bogus 1" in err
    assert _run(capsys, *argv) == first
    assert _build_parser() is _build_parser()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("bogus", "grid_R"):
        cfg.write_text(f"{key} = 50\n")
        rc, _, err = _run(capsys, "stats", "--config", str(cfg), "--z", "1,0")
        assert rc == 2 and f"unknown key {key!r}" in err


@pytest.mark.parametrize("flag", ["--grid-R", "--grid-panels", "--grid-angular"])
def test_grid_flags_are_unrecognised(capsys, flag):
    rc, out, err = _run(capsys, "wehrl", "--beta", "0.2", flag, "32")
    assert rc == 2 and out == ""
    assert f"unrecognized arguments: {flag} 32" in err


def test_config_file_missing(capsys):
    rc, _, err = _run(capsys, "stats", "--config", "/nonexistent.cfg",
                      "--z", "1,0")
    assert rc == 2 and "config" in err


def test_output_file_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["stats", "--z", "2,1", "--m", "2", "--out", str(a)]) == 0
    assert main(["stats", "--z", "2,1", "--m", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys, where):
    # a missing directory or a directory in place of the file: one stderr
    # line and exit 2, not a traceback
    rc, out, err = _run(capsys, "stats", "--z=1,0", "--out", str(tmp_path / where))
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1


def test_invalid_physical_parameters(capsys):
    rc, _, err = _run(capsys, "stats", "--z", "1,0", "--omega0", "-1")
    assert rc == 2 and "frequencies" in err


@pytest.mark.parametrize("flag,value", [("--omega0", "nan"), ("--omega-c", "inf"),
                                        ("--mass", "nan")])
def test_non_finite_physical_parameters(capsys, flag, value):
    rc, out, err = _run(capsys, "thermal", "--beta", "1", flag, value)
    field = flag[2:].replace("-", "_")
    assert rc == 2 and out == ""
    assert err == f"error: {field} must be finite, got {float(value)}\n"


def test_bad_label_syntax(capsys):
    rc, _, err = _run(capsys, "stats", "--z", "1;2")
    assert rc == 2 and "re,im" in err


# ---------------------------------------------------------------- writer

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310,
                     1e308, -1e308, 2.0 ** 63, 2 ** 63, -2 ** 64 - 1]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\ \n\u00e9{}[]:,')),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES, st.integers(min_value=0, max_value=3))
def test_writer_prints_what_the_reference_writer_prints(value, indent):
    assert cli._jsonify(value, indent) == jsonify_reference(value, indent)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1, 2}, [1.0, b"x"]])
def test_writer_refuses_what_the_reference_writer_refuses(value):
    with pytest.raises(TypeError) as want:
        jsonify_reference(value)
    with pytest.raises(TypeError) as got:
        cli._jsonify(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all"],
    ["quantize", "--symbol", "p_sq", "--m", "3", "--depth", "344"],
    ["sweep", "--beta-range", "1:8:4", "--m-list", "0,2", "--format", "csv"],
    ["stats", "--z=400,0", "--m", "1"],
])
def test_commands_print_the_reference_writer_bytes(capsys, monkeypatch, argv):
    want = _run(capsys, *argv)
    monkeypatch.setattr(cli, "_jsonify", jsonify_reference)
    assert _run(capsys, *argv) == want
