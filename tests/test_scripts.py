"""The experiment scripts in scripts/: each main() runs on small arguments,
exits 0 and prints its header and one row per requested point."""

import importlib.util
import math
from pathlib import Path

import pytest

from landau_bgcs.bgcs import CoherentLabel, g2, mandel_q, mean_n

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(capsys, name, *argv):
    rc = _load(name).main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out.splitlines()


def test_statistics_scan(capsys):
    lines = _run(capsys, "run_statistics_scan", "--sectors", "0,2",
                 "--rho-min", "0.01", "--rho-max", "45", "--points", "3")
    assert lines[0].split() == ["rho", "m", "mean_n", "g2", "plateau",
                                "mandel_q", "snr"]
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 2 * 3
    assert [int(r[1]) for r in rows] == [0, 0, 0, 2, 2, 2]
    # geometric points 0.01, 0.67, 45: the last lies beyond the switch from
    # the reduced series to the scaled Bessel functions
    rhos = [0.01, math.sqrt(0.01 * 45.0), 45.0] * 2
    for r, rho in zip(rows, rhos):
        m = int(r[1])
        assert float(r[0]) == pytest.approx(rho, rel=1e-3)
        lab = CoherentLabel.from_polar(rho, 0.0)
        assert float(r[2]) == pytest.approx(mean_n(lab, m), rel=1e-5)
        assert float(r[3]) == pytest.approx(g2(lab, m), abs=1e-6)
        assert float(r[5]) == pytest.approx(mandel_q(lab, m), rel=1e-3)
        assert float(r[5]) < 0.0


def test_entropy_comparison(capsys):
    lines = _run(capsys, "run_entropy_comparison", "--beta-gaps", "2,4")
    assert lines[0].startswith("# omega0=1 omega_c=1 ")
    assert lines[1].split() == ["beta*gap", "quadrature", "surrogate", "ratio",
                                "strong_field"]
    rows = [line.split() for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [2.0, 4.0]
    # the integrated entropy stays above the pure-state floor 0.6796...
    assert all(float(r[1]) > 0.679 for r in rows)


def test_thermal_sweep(capsys, tmp_path):
    lines = _run(capsys, "run_thermal_sweep", "--range", "1:3:2",
                 "--sectors", "0,1")
    assert lines[0] == "beta_gap,m,Z,N_mean,N2_mean,g,W_quad,W_approx,Q2"
    rows = [line.split(",") for line in lines[1:]]
    assert [(float(r[0]), int(r[1])) for r in rows] == [
        (1.0, 0), (1.0, 1), (3.0, 0), (3.0, 1)]
    # the occupancy is the Bose value in every sector
    for r in rows:
        assert float(r[3]) == pytest.approx(1.0 / math.expm1(float(r[0])),
                                            rel=1e-9)

    out = tmp_path / "sweep.csv"
    assert _load("run_thermal_sweep").main(
        ["--range", "1:3:2", "--sectors", "0,1", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == lines
