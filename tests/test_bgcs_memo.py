"""The per-label memos of bgcs: a hit equals a fresh build, each distinct
series value is evaluated once, and no exception is stored."""

import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from landau_bgcs import bgcs, checks, cli, fock, measure, quantize, specfun, thermo
from landau_bgcs.bgcs import CoherentLabel, StateVector, bgcs_state
from landau_bgcs.fock import SubspaceSpec
from landau_bgcs.specfun import EvaluationError

# the log grid crosses the ratio switch at rho = 40 and, for m = 19 and 50,
# reaches the ratio recurrence (2|z| in [20, 0.4 m^2)) past it
_ORDERS = (0, 1, 8, 19, 50)
_RHOS = tuple(np.geomspace(1e-3, 60.0, 12).tolist()) + (40.0, 41.9)
_MEMOS = (bgcs._reduced, bgcs._state)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    _clear_memos()
    yield
    _clear_memos()


def _enc(value):
    # bit-exact encoding of a route's result
    if isinstance(value, StateVector):
        return (value.m, value.tail_tol, repr(value.label), value.amplitudes.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return tuple(_enc(v) for v in value)


def _routes(rho, m):
    z = CoherentLabel.from_polar(rho, 0.7)
    z2 = CoherentLabel.from_polar(0.5 * rho + 0.1, 2.0)
    stats = [lambda f=f: f(z, m) for f in (
        bgcs.mean_n, bgcs.mean_n_sq, bgcs.mean_k3, bgcs.g2,
        bgcs.mandel_q, bgcs.fano, bgcs.snr)]
    return stats + [
        lambda: bgcs_state(z, SubspaceSpec(m)),
        lambda: bgcs_state(z, SubspaceSpec(m, depth=12)),
        lambda: bgcs.overlap(z2, z, m),
        lambda: quantize.dispersions_matrix_route(z, m),
        lambda: bgcs.probability_density(z, m, 3),
    ]


def _outcome(route):
    try:
        return _enc(route())
    except (ArithmeticError, ValueError, EvaluationError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("m", _ORDERS)
def test_warm_routes_equal_cold_routes_bitwise(m):
    for rho in _RHOS:
        cold = []
        for route in _routes(rho, m):
            _clear_memos()
            cold.append(_outcome(route))
        for _ in range(2):
            assert [_outcome(route) for route in _routes(rho, m)] == cold, rho


@pytest.fixture
def series_calls(monkeypatch):
    """(kernel, order, argument) of every series evaluation bgcs makes."""
    calls = []

    def counted(name, kernel):
        def call(k, w):
            calls.append((name, k, w))
            return kernel(k, w)
        return call
    for name in ("bessel_i_reduced", "bessel_i_scaled"):
        monkeypatch.setattr(bgcs, name, counted(name, getattr(bgcs, name)))
    return calls


@pytest.mark.parametrize("z", ["3,0.5"])
def test_stats_command_evaluates_each_series_once(series_calls, capsys, z):
    # mean_n, mean_n_sq, mean_k3, g2, snr, mandel_q, fano and the dispersions
    # each read orders m, m+1 and m+2 at one argument: 24 evaluations unmemoised
    assert cli.main(["stats", f"--z={z}", "--m", "2"]) == 0
    capsys.readouterr()
    assert len(series_calls) == len(set(series_calls)) == 3
    assert sorted(k for _, k, _ in series_calls) == [2, 3, 4]


def test_label_op_makes_at_most_five_evaluations(series_calls):
    z, z2, m = CoherentLabel.from_polar(3.2, 0.4), CoherentLabel.from_polar(1.1, 2.5), 3
    state = bgcs_state(z, SubspaceSpec(m))
    for f in (bgcs.mean_n, bgcs.mean_n_sq, bgcs.g2, bgcs.mandel_q):
        f(z, m)
    bgcs.overlap(z2, z, m)
    quantize.dispersions_matrix_route(z, m)
    # <z|A_z|z> on the state at its automatic depth, served by the state memo
    v = bgcs_state(z, SubspaceSpec(m)).amplitudes
    np.vdot(v, quantize.quantize_closed_form(
        quantize.SymbolSpec("z"), SubspaceSpec(m, depth=v.size - 1)).entries @ v)
    # R_m, R_{m+1}, R_{m+2} at |z|^2, R_m at |z2|^2 and the complex kernel
    assert len(series_calls) <= 5
    info = bgcs._state.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert bgcs_state(z, SubspaceSpec(m)) is state


def test_memos_are_bounded():
    for memo in _MEMOS:
        assert memo.cache_info().maxsize == 64
    for k in range(100):
        bgcs_state(CoherentLabel(0.01 * (k + 1), 0.0), SubspaceSpec(0))
    assert bgcs._state.cache_info().currsize == 64
    assert bgcs._reduced.cache_info().currsize == 64


@pytest.mark.parametrize("a,b", [
    (CoherentLabel(1.0, 0.0), CoherentLabel(1.0, -0.0)),
    (CoherentLabel(0.0, 0.0), CoherentLabel(0.0, -0.0)),
    (CoherentLabel.from_polar(0.0, 1.0), CoherentLabel.from_polar(-0.0, 1.0)),
])
def test_labels_differing_in_the_sign_of_zero_are_distinct_keys(a, b):
    assert a == b and hash(a) == hash(b)
    for lab in (a, b, a, b):
        got = bgcs_state(lab, SubspaceSpec(2))
        assert repr(got.label) == repr(lab)
        assert [math.copysign(1.0, v) for v in (got.label.re, got.label.im, got.label.rho)] \
            == [math.copysign(1.0, v) for v in (lab.re, lab.im, lab.rho)]
    assert bgcs._state.cache_info().currsize == 2


def test_argument_types_are_part_of_the_state_key():
    z = CoherentLabel(0.0, 0.0)
    assert type(bgcs_state(z, SubspaceSpec(2), tail_tol=1).tail_tol) is int
    assert type(bgcs_state(z, SubspaceSpec(2), tail_tol=1.0).tail_tol) is float
    assert type(bgcs_state(z, SubspaceSpec(2.0)).m) is int
    assert type(bgcs_state(z, SubspaceSpec(2)).m) is int


@pytest.mark.parametrize("call,exc", [
    (lambda: bgcs_state(CoherentLabel(5.0, 0.0), SubspaceSpec(200)), ValueError),
    (lambda: bgcs_state(CoherentLabel(5.0, 0.0), SubspaceSpec(170)), ValueError),
    (lambda: bgcs.mandel_q(CoherentLabel(5.0, 0.0), 200), ZeroDivisionError),
    (lambda: bgcs.mandel_q(CoherentLabel(1e-300, 0.0), 0), ZeroDivisionError),
    (lambda: bgcs.g2(CoherentLabel(0.5, 0.0), 170), EvaluationError),
    (lambda: bgcs.mean_n(CoherentLabel(41.0, 0.0), 1500), EvaluationError),
    (lambda: bgcs.overlap(1.0, 1.0 + 0.5j, 200), EvaluationError),
    (lambda: bgcs.mean_n_sq(CoherentLabel(1.4e154, 0.0), 0), EvaluationError),
])
def test_edge_inputs_raise_the_same_error_on_every_repeat(call, exc):
    stored = bgcs._state.cache_info().currsize
    messages = []
    for _ in range(3):
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert bgcs._state.cache_info().currsize == stored


@pytest.mark.parametrize("module", [specfun, fock, bgcs, measure, quantize, thermo, checks, cli])
def test_public_functions_stay_plain_functions(module):
    # the benchmark's tracer wraps only what inspect.isfunction accepts
    names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), name


@pytest.fixture
def fresh_ln_fact(monkeypatch):
    """bgcs's ln k! table as at import: the exact table through k = 256."""
    monkeypatch.setattr(bgcs, "_LN_FACT", np.array(specfun._LN_FACT_TABLE))


def _hexes(values):
    return [float(v).hex() for v in values]


def test_ln_factorials_past_256_are_the_scalar_kernel_bit_for_bit(fresh_ln_fact):
    assert bgcs._LN_FACT.size == 257 and bgcs._LN_FACT_BOUND == 512
    for top, size in ((261, 262), (400, 401), (700, 513)):
        k = np.arange(250, top + 1)
        got = bgcs._ln_factorials(k)
        assert _hexes(got) == [specfun.ln_factorial(j).hex() for j in k.tolist()]
        assert bgcs._LN_FACT.size == size
        assert _hexes(bgcs._LN_FACT[257:]) == \
            [specfun.ln_factorial(j).hex() for j in range(257, size)]
        # the state route's pairs ln nu! + ln (nu+m)! read the same entries
        m = 36
        pairs = bgcs._ln_fact_pairs(m, top - m + 1)
        assert _hexes(pairs) == [(specfun.ln_factorial(nu) + specfun.ln_factorial(nu + m)).hex()
                                 for nu in range(top - m + 1)]


def test_importing_the_library_grows_no_ln_factorial_table():
    code = ("import landau_bgcs.cli, landau_bgcs.bgcs as b; "
            "assert b._LN_FACT.size == 257, b._LN_FACT.size")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
