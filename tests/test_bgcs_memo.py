"""The memos of bgcs: a hit equals a fresh build, each distinct series value
is evaluated once, and no exception is stored."""

import inspect
import math

import numpy as np
import pytest

from landau_bgcs import bgcs, checks, cli, fock, measure, quantize, specfun, thermo
from landau_bgcs.bgcs import CoherentLabel, StateVector, bgcs_state
from landau_bgcs.fock import SubspaceSpec
from landau_bgcs.specfun import EvaluationError

from oracles import ln_amplitude_reference

# the log grid crosses the ratio switch at rho = 40 and, for m = 19 and 50,
# reaches the ratio recurrence (2|z| in [20, 0.4 m^2)) past it
_ORDERS = (0, 1, 8, 19, 50)
_RHOS = tuple(np.geomspace(1e-3, 60.0, 12).tolist()) + (40.0, 41.9)
_MEMOS = (bgcs._reduced, bgcs._series_triple, bgcs._state, bgcs._rows)


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
        z = CoherentLabel(0.01 * (k + 1), 0.0)
        bgcs_state(z, SubspaceSpec(0, depth=8 + k))
        bgcs.g2(z, 0)
    for memo in _MEMOS:
        assert memo.cache_info().currsize == 64


def test_amplitude_rows_are_read_only_and_capped():
    rows = bgcs._amplitude_rows(3, 40)
    assert rows is bgcs._amplitude_rows(3, 40)
    for row in rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0
    # past the cap of 1024 levels a set is built on each call, not stored
    n = bgcs._ROWS_MEMO_LEVELS + 1
    long = bgcs._amplitude_rows(3, n)
    assert long is not bgcs._amplitude_rows(3, n)
    assert [row.tobytes() for row in long] \
        == [row.tobytes() for row in bgcs._rows.__wrapped__(3, n)]
    assert bgcs._rows.cache_info().currsize == 1


@pytest.mark.parametrize("m", [0, 3, 50, 200, 300])
def test_ln_amplitude_from_the_memo_equals_the_one_expression(m):
    # float ln r and ln I, and columns over radii broadcast against the row;
    # cold, then twice warm.  n = 1100 runs past the memo's cap, and with
    # m >= 200 past the exact ln k! table
    ln_r, ln_i = math.log(2.5), 1.7
    cols = np.log(np.geomspace(0.01, 30.0, 7))[:, None], np.linspace(-3.0, 40.0, 7)[:, None]
    for n in (1, 9, 31, 97, 1100):
        for r, i in ((ln_r, ln_i), cols):
            want = ln_amplitude_reference(m, r, n, i).tobytes()
            for _ in range(3):
                assert bgcs._ln_amplitude(m, r, np.arange(n), i).tobytes() == want, n


def test_series_triple_is_one_lookup_per_statistic(series_calls):
    z, m = CoherentLabel.from_polar(2.1, 0.3), 4
    bgcs_state(z, SubspaceSpec(m))
    for f in (bgcs.mean_n, bgcs.mean_n_sq, bgcs.g2, bgcs.mandel_q, bgcs.fano):
        f(z, m)
    info = bgcs._series_triple.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    # R_m was stored by the state build and read again, never re-evaluated
    assert sorted(k for _, k, _ in series_calls) == [4, 5, 6]
    entry = bgcs._series_triple(m, z.rho * z.rho)
    assert type(entry) is tuple
    assert entry == tuple(specfun.bessel_i_reduced(m + k, z.rho * z.rho) for k in range(3))


def test_series_triple_stores_no_exception(monkeypatch):
    u, m = 2.25, 1
    real = bgcs.bessel_i_reduced

    def failing(k, w):
        raise EvaluationError("series failed")
    monkeypatch.setattr(bgcs, "bessel_i_reduced", failing)
    for _ in range(2):
        with pytest.raises(EvaluationError):
            bgcs.mean_n(CoherentLabel(1.5, 0.0), m)
    assert bgcs._series_triple.cache_info().currsize == 0
    monkeypatch.setattr(bgcs, "bessel_i_reduced", real)
    assert bgcs.mean_n(CoherentLabel(1.5, 0.0), m) == u * real(m + 1, u) / real(m, u)
    # at m = 200 the stored entry is three zeros, which _step_ratios divides by
    assert bgcs._series_triple(200, 25.0) == (0.0, 0.0, 0.0)


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
