"""The command-line exit contract over a fixed grid of sectors and labels:
every call returns 0 (a finite result) or 2 (a typed domain or evaluation
error), and none raises."""

import pytest

from landau_bgcs.cli import main

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
