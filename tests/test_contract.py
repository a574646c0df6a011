"""The command-line exit contract over a fixed grid of sectors and labels:
every call returns 0 (a finite result) or 2 (a typed domain or evaluation
error), and none raises.  The table in cli_exit_codes.txt, which the CI
workflow also runs as separate processes, pins the wanted code per call."""

from pathlib import Path

import numpy as np
import pytest

from landau_bgcs.bgcs import StateVector
from landau_bgcs.checks import run_suite
from landau_bgcs.cli import main
from landau_bgcs.fock import OperatorMatrix, SubspaceSpec, ladder_matrix
from landau_bgcs.measure import (QuadratureGrid, build_grid, integrate_radial,
                                 radial_moment_check, resolution_of_identity_check)
from landau_bgcs.quantize import SymbolSpec
from landau_bgcs.specfun import DomainError

_ORDERS = (0, 1, 8, 36, 37, 170, 171, 200, 300)
_MODULI = ("1e-300", "1e-8", "0.5", "5", "41", "1e4", "1e100", "1.3e154", "1.4e154",
           "1e300")
# the sector edge of the grid routes: m = 36 is served, m = 37 refused
_GRID_ORDERS = (0, 36, 37, 100)

# stats calls that still end in a ZeroDivisionError: mandel_q at a tiny |z|
# and _step_ratios where 1/m! leaves double range
_ESCAPES = ({("stats", m, "1e-300") for m in (0, 1, 8, 36, 37, 200, 300)}
            | {("stats", m, z) for m in (200, 300) for z in ("1e-8", "0.5", "5")})
_ESCAPE = pytest.mark.xfail(
    strict=True, raises=ZeroDivisionError,
    reason="ROADMAP items 2 and 4: the small-|z| and large-m statistics; "
           "stats --z=1e-300,0 is the benchmark's cli_stats edge op")


def _label_cases():
    for command in ("stats", "overlap"):
        for m in _ORDERS:
            for z in _MODULI:
                argv = [command, f"--z={z},0", "--m", str(m)]
                if command == "overlap":
                    argv.append("--z2=0.5,0.25")
                marks = [_ESCAPE] if (command, m, z) in _ESCAPES else []
                yield pytest.param(argv, marks=marks, id=f"{command}-m{m}-z{z}")


def _grid_cases():
    for m in _GRID_ORDERS:
        for argv in (["identity", "--n-check", "4"], ["thermal", "--beta", "1.618"],
                     ["wehrl", "--beta", "1.618"]):
            yield pytest.param([*argv, "--m", str(m)], id=f"{argv[0]}-m{m}")


@pytest.mark.parametrize("argv", [*_label_cases(), *_grid_cases()])
def test_exit_code_is_0_or_2(argv, capsys):
    assert main(argv) in (0, 2)
    capsys.readouterr()


def _table_cases():
    # one "want args" line per call
    for line in Path(__file__).with_name("cli_exit_codes.txt").read_text().splitlines():
        want, *argv = line.split()
        yield pytest.param(argv, int(want), id="_".join(argv))


@pytest.mark.parametrize("argv,want", [*_table_cases()])
def test_exit_code_table(argv, want, capsys):
    assert main(argv) == want
    assert "Traceback" not in capsys.readouterr().err


def _grid(nodes=(1.0, 2.0), weights=(1.0, 1.0), cutoff=50.0, n_angular=4, max_degree=2):
    return QuadratureGrid(nodes=np.array(nodes), weights=np.array(weights), cutoff=cutoff,
                          n_angular=n_angular, max_degree=max_degree)


# one call per input check that refuses with a DomainError, not a bare ValueError
_REFUSALS = {
    "state-empty": lambda: StateVector(m=0, amplitudes=np.array([])),
    "suite-unknown": lambda: run_suite("nope"),
    "depth-missing": lambda: SubspaceSpec(0).require_depth(),
    "diagonal-length": lambda: OperatorMatrix(3, {0: [1.0, 2.0]}),
    "ladder-kind": lambda: ladder_matrix("bogus", SubspaceSpec(0, depth=8)),
    "grid-shapes": lambda: _grid(weights=(1.0,)),
    "grid-weights": lambda: _grid(weights=(1.0, 0.0)),
    "grid-nodes": lambda: _grid(nodes=(2.0, 1.0)),
    "grid-cutoff-finite": lambda: _grid(cutoff=float("inf")),
    "grid-cutoff-nodes": lambda: _grid(cutoff=1.5),
    "grid-angles": lambda: _grid(n_angular=0),
    "grid-cutoff-degree": lambda: _grid(cutoff=2.0),
    "grid-degree": lambda: radial_moment_check(8, 0, build_grid(max_degree=4)),
    "samples-shape": lambda: integrate_radial(np.ones(3), 0, _grid()),
    "identity-depth": lambda: resolution_of_identity_check(
        SubspaceSpec(0, depth=9), 10, build_grid(max_degree=21)),
    "symbol-no-terms": lambda: SymbolSpec("custom", terms=()),
    "symbol-unknown": lambda: SymbolSpec("bogus"),
    "symbol-named-terms": lambda: SymbolSpec("q", terms=((1, 0, 1.0),)),
}


@pytest.mark.parametrize("call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_input_checks_raise_domain_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is DomainError
