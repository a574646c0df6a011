"""Every bit of the coherent-state label route, pinned.

tests/label_bits.json holds float.hex values of the amplitudes (their
depth, first and last entries and a digest of all of them), mean_n,
mean_n_sq, g2, mandel_q, overlap and dispersions_matrix_route on a fixed
label set, of states built at the kernel check's tail 1e-300, and of
bessel_i_reduced at real and complex arguments; an input that raises is
pinned by its exception type and message.  The label set has m in
{0, 1, 8, 50} and rho in {1e-3, 0.5, 5, 39, 45}, so it covers auto depths
on both sides of m + depth = 256 (the end of the exact ln k! table: every
state at tail 1e-16 ends below it, the tail-1e-300 states at rho = 39 and
45 past it) and both sides of the reduced-series / scaled-Bessel switch at
rho = 40.

A change that is meant to move these bits regenerates the file with
``python tests/test_label_bits.py`` and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from landau_bgcs.bgcs import (CoherentLabel, bgcs_state, g2, mandel_q, mean_n,
                              mean_n_sq, overlap)
from landau_bgcs.fock import SubspaceSpec
from landau_bgcs.quantize import dispersions_matrix_route
from landau_bgcs.specfun import bessel_i_reduced

PINNED = Path(__file__).with_name("label_bits.json")

ORDERS = (0, 1, 8, 50)
RADII = (1e-3, 0.5, 5.0, 39.0, 45.0)
# bgcs_state at m = 170 and 200 and mandel_q at m = 200 (rho = 5) fail
# today (ROADMAP item 4); they must fail the same way until that is mended
EDGES = (("state", 170, 5.0), ("state", 200, 5.0), ("mandel_q", 200, 5.0))
REDUCED_ORDERS = (0, 1, 5, 30, 170)
REDUCED_REAL = (0.0, 1e-300, 1e-5, 0.3, 7.5, -12.0, 400.0, 1600.0)
REDUCED_COMPLEX = (3 + 4j, -20 + 1j, 1e-3j, 100 - 50j, -0.5 - 0.25j)


def _hex(v) -> str:
    if isinstance(v, complex):
        return f"{v.real.hex()} {v.imag.hex()}"
    if isinstance(v, tuple):
        return " ".join(_hex(x) for x in v)
    return float(v).hex()


def _pin(f, show=_hex) -> str:
    try:
        return show(f())
    except Exception as exc:  # the type and message are what is pinned
        return f"{type(exc).__name__}: {exc}"


def _amplitudes(state) -> str:
    a = state.amplitudes
    digest = hashlib.sha256(
        " ".join(_hex(complex(x)) for x in a).encode()).hexdigest()
    return f"depth {state.depth} {_hex(complex(a[0]))} {_hex(complex(a[-1]))} {digest}"


def _pin_state(label, m: int, tail_tol: float) -> str:
    return _pin(lambda: bgcs_state(label, SubspaceSpec(m), tail_tol=tail_tol), _amplitudes)


def record() -> dict:
    out = {}
    for m in ORDERS:
        for k, rho in enumerate(RADII):
            z = CoherentLabel.from_polar(rho, 0.7 + k)
            ket = CoherentLabel.from_polar(RADII[k - 1], 2.1)
            key = f"m={m} rho={rho!r}"
            out[f"{key} state"] = _pin_state(z, m, 1e-16)
            out[f"{key} state tail=1e-300"] = _pin_state(z, m, 1e-300)
            for name, f in (("mean_n", mean_n), ("mean_n_sq", mean_n_sq),
                            ("g2", g2), ("mandel_q", mandel_q)):
                out[f"{key} {name}"] = _pin(lambda: f(z, m))
            out[f"{key} overlap"] = _pin(lambda: overlap(z, ket, m))
            out[f"{key} dispersions"] = _pin(lambda: dispersions_matrix_route(z, m))
    for kind, m, rho in EDGES:
        z = CoherentLabel.from_polar(rho, 0.0)
        out[f"edge {kind} m={m} rho={rho!r}"] = (
            _pin_state(z, m, 1e-16) if kind == "state" else _pin(lambda: mandel_q(z, m)))
    for m in REDUCED_ORDERS:
        for w in REDUCED_REAL + REDUCED_COMPLEX:
            out[f"reduced m={m} w={w!r}"] = _pin(lambda: bessel_i_reduced(m, w))
    return out


# a missing file pins nothing, which test_pinned_cases_are_the_recorded_ones
# reports
_WANT = json.loads(PINNED.read_text()) if PINNED.exists() else {}


@pytest.fixture(scope="module")
def got():
    return record()


def test_pinned_cases_are_the_recorded_ones(got):
    assert sorted(got) == sorted(_WANT)


@pytest.mark.parametrize("key", sorted(_WANT))
def test_label_route_bits(got, key):
    assert got[key] == _WANT[key]


def test_pinned_set_spans_the_table_end_and_the_switch():
    # the two sides this file exists to pin are really in it
    depths = {(m, rho, tail): int(_WANT[f"m={m} rho={rho!r} state{tail}"].split()[1])
              for m in ORDERS for rho in RADII for tail in ("", " tail=1e-300")}
    assert any(m + d <= 256 for (m, _, _), d in depths.items())
    assert any(m + d > 256 for (m, _, _), d in depths.items())
    assert min(RADII) < 40.0 < max(RADII)


if __name__ == "__main__":
    # name every pinned value that moves before the file is rewritten
    fresh = record()
    for key in sorted(fresh.keys() | _WANT.keys()):
        if fresh.get(key) != _WANT.get(key):
            print(f"{key}: {_WANT.get(key)} -> {fresh.get(key)}")
    PINNED.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
