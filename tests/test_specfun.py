"""Special-function kernels against independently computed references.

Reference values were produced ahead of time with 50-digit arithmetic
(mpmath): ascending partial sums with term recurrences for I-type series,
the integral representation K_m(x) = int_0^inf exp(-x cosh t) cosh(m t) dt
for K values, exact big-integer factorials for log-factorial, and raw
2000-term partial sums for the hypergeometric series.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs import checks, specfun as sf
from oracles import bessel_power_sum, gauss_2f1, reduced_series_reference

# (name, got, want, rel_tol)
_FROZEN = [
    ("I_1(2)", lambda: sf.bessel_i(1, 2.0), 1.5906368546373290634, 5e-15),
    ("I_0(0.001)", lambda: sf.bessel_i(0, 0.001), 1.0000002500000156, 5e-15),
    ("Ie_2(50)", lambda: sf.bessel_i_scaled(2, 50.0), 0.054321901691738376544, 5e-15),
    ("Ie_0(100)", lambda: sf.bessel_i_scaled(0, 100.0), 0.039944379299096682648, 5e-15),
    ("K_0(1)", lambda: sf.bessel_k(0, 1.0), 0.42102443824070833334, 5e-15),
    ("K_1(2)", lambda: sf.bessel_k(1, 2.0), 0.13986588181652242728, 5e-15),
    ("K_3(7)", lambda: sf.bessel_k(3, 7.0), 0.0007710751535668901623, 5e-15),
    ("K_5(0.2)", lambda: sf.bessel_k(5, 0.2), 1197004.9916872606007, 5e-15),
    ("K_0(0.01)", lambda: sf.bessel_k(0, 0.01), 4.7212447301610949651, 5e-15),
    ("K_8(30)", lambda: sf.bessel_k(8, 30.0), 6.0565817824131864255e-14, 5e-15),
    ("ln(200!)", lambda: sf.ln_factorial(200), 863.2319871924054734957, 5e-15),
    ("ln(300!)", lambda: sf.ln_factorial(300), 1414.905849945067988547, 5e-15),
    ("2F1(4,2;3;0.3)", lambda: gauss_2f1(4, 2, 3, 0.3), 2.6239067055393586006, 5e-15),
    ("2F1(3,1;5;-0.7)", lambda: gauss_2f1(3, 1, 5, -0.7), 0.71143824101739309922, 5e-15),
    ("S_2(0.7)", lambda: bessel_power_sum(2, 2, 0.7), 0.10320017527359436378, 5e-15),
    ("T_1(m=3,x=2)", lambda: bessel_power_sum(1, 3, 2.0), 0.35406892691339724746, 5e-15),
]


@pytest.mark.parametrize("name,fn,want,tol", _FROZEN, ids=[f[0] for f in _FROZEN])
def test_frozen_reference_values(name, fn, want, tol):
    got = fn()
    assert got == pytest.approx(want, rel=tol), name


def test_bessel_i_200_term_compensated_partial_sum():
    # independent in-test oracle: raw 200-term partial sum with Kahan updates
    x, m = 2.0, 1
    s = c = 0.0
    term = x / 2.0
    for nu in range(200):
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        term *= (x / 2.0) ** 2 / ((nu + 1.0) * (nu + 2.0))
    assert sf.bessel_i(m, x) == pytest.approx(s, rel=1e-15)


def test_wronskian_identity_log_grid():
    # e^{-x} I_m e^x K_{m+1} + e^{-x} I_{m+1} e^x K_m = 1/x on a log grid up
    # to 2 x0(m), so every branch of the scalar kernels takes part: the I
    # polynomial, ratio recurrence (m >= 8) and Hankel sum, the K polynomials,
    # trapezoid rule and Hankel sum
    for m in (*range(9), 12, 20, 30, 41, 60):
        for x in np.geomspace(1e-2, 2.0 * sf._hankel_switch(m), 24).tolist():
            w = sf.bessel_i_scaled(m, x) * sf.bessel_k_scaled(m + 1, x) \
                + sf.bessel_i_scaled(m + 1, x) * sf.bessel_k_scaled(m, x)
            assert abs(w * x - 1.0) < 1e-12, (m, x)


def test_i_recurrence_three_orders():
    # I_{m-1}(x) - I_{m+1}(x) = (2m/x) I_m(x)
    for m in (1, 2, 5, 9):
        for x in (0.05, 0.7, 3.0, 17.0, 55.0):
            lhs = sf.bessel_i(m - 1, x) - sf.bessel_i(m + 1, x)
            rhs = 2.0 * m / x * sf.bessel_i(m, x)
            assert lhs == pytest.approx(rhs, rel=2e-13)


def test_k_recurrence_three_orders():
    # K_{m+1}(x) - K_{m-1}(x) = (2m/x) K_m(x)
    for m in (1, 2, 5, 9):
        for x in (0.05, 0.7, 1.9, 2.1, 17.0, 55.0):
            lhs = sf.bessel_k(m + 1, x) - sf.bessel_k(m - 1, x)
            rhs = 2.0 * m / x * sf.bessel_k(m, x)
            assert lhs == pytest.approx(rhs, rel=2e-13)


def test_scaled_forms_consistent_with_plain():
    for m in (0, 1, 4):
        for x in (0.3, 2.0, 8.0, 39.0, 41.0, 120.0):
            assert sf.bessel_i_scaled(m, x) == pytest.approx(
                math.exp(-x) * sf.bessel_i(m, x), rel=5e-14)
            assert sf.bessel_k_scaled(m, x) == pytest.approx(
                math.exp(x) * sf.bessel_k(m, x), rel=5e-14)


def test_small_argument_limits():
    # I_m(x) ~ (x/2)^m / m!  and  2F1 at x=0 is 1
    for m in (0, 1, 3, 6):
        x = 1e-6
        assert sf.bessel_i(m, x) == pytest.approx(
            (x / 2.0) ** m / math.factorial(m), rel=1e-9)
    assert gauss_2f1(2.5, 1.5, 4.0, 0.0) == 1.0


def test_large_argument_asymptotics():
    # I_m(x) ~ e^x / sqrt(2 pi x), K_m(x) ~ sqrt(pi/(2x)) e^{-x}
    x = 300.0
    assert sf.bessel_i_scaled(0, x) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * x), rel=1e-3)
    assert sf.bessel_k_scaled(0, x) == pytest.approx(
        math.sqrt(math.pi / (2.0 * x)), rel=1e-3)


def test_reduced_series_matches_bessel_i():
    # I_m(2 sqrt(w)) = w^{m/2} R_m(w) for positive w, and the complex route
    for m in (0, 2, 5):
        for u in (0.09, 1.0, 16.0):
            lhs = sf.bessel_i(m, 2.0 * math.sqrt(u))
            rhs = u ** (m / 2.0) * sf.bessel_i_reduced(m, u)
            assert lhs == pytest.approx(rhs, rel=1e-13)
    w = complex(1.2, -3.4)
    direct = sf.bessel_i(2, w)
    via_reduced = (w / 2.0) ** 2 * sf.bessel_i_reduced(2, w * w / 4.0)
    assert abs(direct - via_reduced) <= 1e-14 * abs(direct)


def test_reduced_series_keeps_real_arithmetic():
    # a real w is summed in floats: a float with the bits of the real part
    # of the complex sum, on both sides of 0, where exp(-ln m!) goes
    # subnormal (m = 171) and where it is 0 (m = 178)
    ws = np.logspace(-300.0, 3.2, 60).tolist()
    for m in (*range(60), 100, 169, 170, 171, 177, 178, 200):
        for w in (0.0, *ws, *(-v for v in ws)):
            got = sf.bessel_i_reduced(m, w)
            assert type(got) is float
            assert got.hex() == sf.bessel_i_reduced(m, complex(w)).real.hex(), (m, w)
    assert sf.bessel_i_reduced(200, 5.0) == 0.0


def _reduced_outcome(fn, m, w):
    # the bits of a result, or the type, message, partial sum and term count
    # of the exception
    try:
        got = fn(m, w)
    except (sf.DomainError, sf.EvaluationError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "partial", None)), getattr(exc, "terms", None)
    return type(got), got.hex()


@pytest.mark.parametrize("m", [*range(61), 169, 170, 171, 177, 178, 200])
def test_reduced_series_on_a_nonnegative_float_keeps_the_general_bits(m):
    # the loop of a float w >= 0 against the one loop for every w; inf runs
    # out of terms and NaN takes the general loop, and both must raise
    # alike, as must 1.2345e6 where its terms overflow (m < 178)
    ws = (0.0, -0.0, 5e-324, 1e-300, 1e-5, 0.3, 7.5, 99.9, 400.0, 1600.0, 2500.0,
          1.2345e6, math.inf, math.nan)
    for w in ws:
        want = _reduced_outcome(reduced_series_reference, m, w)
        assert _reduced_outcome(sf.bessel_i_reduced, m, w) == want, (m, w)
    for w in (math.inf, math.nan):
        assert _reduced_outcome(sf.bessel_i_reduced, m, w)[0] is sf.EvaluationError


def test_horner_rounds_alike_on_a_float_and_an_array():
    # the float loop starts from 0 and runs the whole table, the array loop
    # starts from the first coefficient: the same bits at every q either
    # rule meets (h = x/2 with x < 20 for I_m, x <= 2 for K_0 and K_1)
    tables = [(sf._i_poly_coefs(m), 100.0) for m in range(61)]
    tables += [(coefs, 1.0) for coefs in (sf._K_I0, sf._K_PSI0, sf._K_I1, sf._K_PSI1)]
    for coefs, top in tables:
        qs = [0.0, 5e-324, 1e-300, *np.geomspace(1e-12, top, 40).tolist()]
        for q in qs:
            got = sf._horner(coefs, q)
            assert type(got) is float
            assert got.hex() == float(sf._horner(coefs, np.array([q]))[0]).hex(), q


def test_negative_real_axis_parity():
    for m in (0, 1, 2, 5):
        v = sf.bessel_i(m, 3.7)
        assert sf.bessel_i(m, -3.7) == (-v if m % 2 else v)


def test_moment_sum_order_zero_is_i_series():
    # S_0(x) = I_0(2x)
    for x in (0.2, 1.0, 4.0):
        assert bessel_power_sum(0, 0, x) == pytest.approx(
            sf.bessel_i(0, 2.0 * x), rel=1e-14)


def test_power_sum_assembles_k3_closed_form():
    # x I_{m+1}(2x)/I_m(2x) + (m+1)/2 against the weighted-series route
    x, m = 2.0, 3
    t0 = bessel_power_sum(0, m, x)
    t1 = bessel_power_sum(1, m, x)
    closed = x * sf.bessel_i(m + 1, 2 * x) / sf.bessel_i(m, 2 * x) + (m + 1) / 2.0
    assert t1 / t0 + (m + 1) / 2.0 == pytest.approx(closed, rel=1e-13)
    assert closed == pytest.approx(2.8487615658325752652, rel=1e-14)


def test_2f1_binomial_identity_grid():
    # 2F1(c, mu; c; x) = (1-x)^{-mu} for x in {0.1, 0.4, 0.8}
    for x in (0.1, 0.4, 0.8):
        for c, mu in ((3.0, 1.0), (5.0, 2.0), (2.5, 0.5)):
            assert gauss_2f1(c, mu, c, x) == pytest.approx(
                (1.0 - x) ** (-mu), rel=1e-12)


def test_2f1_terminating_polynomial_case():
    # b = -2 terminates: 2F1(a, -2; c; x) = 1 - 2ax/c + a(a+1)x^2/(c(c+1))
    a, c, x = 1.7, 3.2, 0.9
    want = 1.0 - 2.0 * a * x / c + a * (a + 1.0) * x * x / (c * (c + 1.0))
    assert gauss_2f1(a, -2.0, c, x) == pytest.approx(want, rel=1e-14)


def test_2f1_term_decay_past_threshold():
    # past k > max(|a|,|b|) |x| / (1-|x|) the term magnitudes must decrease
    a, b, c, x = 6.0, 2.0, 3.0, 0.8
    kmin = int(max(abs(a), abs(b)) * abs(x) / (1.0 - abs(x))) + 1
    term = 1.0
    terms = []
    for k in range(kmin + 40):
        terms.append(abs(term))
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
    for k in range(kmin, kmin + 39):
        assert terms[k + 1] < terms[k]


def test_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.bessel_k(0, 0.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_k(0, -1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_k(-1, 1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_i(-2, 1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_i_scaled(0, -0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(sf.DomainError):
            sf.bessel_i(0, bad)
        with pytest.raises(sf.DomainError):
            sf.bessel_i_scaled(0, bad)
    with pytest.raises(sf.DomainError):
        gauss_2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(sf.DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(sf.DomainError):
        sf.ln_factorial(-1)
    with pytest.raises(sf.DomainError):
        bessel_power_sum(-1, 0, 1.0)


class _Order(int):
    pass


@pytest.mark.parametrize("value,want", [
    (0, 0), (5, 5), (10 ** 30, 10 ** 30), (np.int64(3), 3), (2.0, 2),
    (_Order(4), 4), (True, None), (np.True_, None), (-1, None),
    (math.nan, None), (math.inf, None), (2.5, None), ("3", None)])
def test_order_accepts_exactly_the_integers_at_least_zero(value, want):
    # a plain int takes the short path; every other type, bool and int
    # subclasses included, is judged by comparison and returns a plain int
    if want is None:
        with pytest.raises(sf.DomainError, match=f"got {value!r}$"):
            sf._order(value)
    else:
        got = sf._order(value)
        assert type(got) is int and got == want


def test_unscaled_i_past_690_names_the_scaled_form():
    # I_0(700) ~ 1.5e302 is still finite, but bessel_i stops at x = 690;
    # the caller is sent to the scaled form instead of inf
    for x in (690.5, 700.0, -700.0, 1e6):
        with pytest.raises(sf.EvaluationError, match="bessel_i_scaled"):
            sf.bessel_i(0, x)


_LN_FACT_PINS = {257: "0x1.25339b50864b2p+10", 1000: "0x1.71820d04e2eb6p+12",
                 10 ** 6: "0x1.87193cc4f1ea6p+23", 10 ** 9: "0x1.25e649ce0e86ep+34"}


@pytest.mark.parametrize("n", list(_LN_FACT_PINS))
def test_ln_factorial_stirling_bits_pinned(n):
    # past the exact table ln n! is Stirling's series through _stirling_tail;
    # an edit to either that moves a bit fails here
    assert sf.ln_factorial(n).hex() == _LN_FACT_PINS[n]


def test_evaluation_error_carries_partial_estimate():
    with pytest.raises(sf.EvaluationError) as err:
        gauss_2f1(4.0, 2.0, 3.0, 0.999)
    assert err.value.partial is not None
    assert err.value.terms == 2048


@given(st.integers(0, 8),
       st.floats(1e-2, 50.0),
       st.floats(1e-2, 50.0))
@settings(max_examples=60, deadline=None)
def test_property_wronskian_random(m, x, _unused):
    w = sf.bessel_i(m, x) * sf.bessel_k(m + 1, x) \
        + sf.bessel_i(m + 1, x) * sf.bessel_k(m, x)
    assert abs(w * x - 1.0) < 1e-12


@given(st.integers(0, 6),
       st.floats(-6.0, 6.0),
       st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_property_conjugate_symmetry(m, re, im):
    w = complex(re, im)
    assert sf.bessel_i(m, w.conjugate()) == sf.bessel_i(m, w).conjugate()


@given(st.floats(0.05, 0.9), st.floats(0.2, 4.0), st.floats(1.1, 6.0))
@settings(max_examples=60, deadline=None)
def test_property_2f1_binomial(x, mu, c):
    assert gauss_2f1(c, mu, c, x) == pytest.approx(
        (1.0 - x) ** (-mu), rel=1e-12)


@given(st.integers(0, 6), st.floats(0.0, 40.0))
@settings(max_examples=60, deadline=None)
def test_property_scaled_i_bounded(m, x):
    # 0 <= e^{-x} I_m(x) <= 1 on the real axis
    v = sf.bessel_i_scaled(m, x)
    assert 0.0 <= v <= 1.0


# ------------------------------------------------- array ln I_m / ln K_m kernels

_ARRAY_ORDERS = (0, 1, 2, 4, 8, 30)
_ARRAY_X = np.geomspace(1e-6, 700.0, 41)


def _ln_err(got, want):
    # absolute error measured against max(1, |ln|)
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


@pytest.mark.parametrize("m", _ARRAY_ORDERS)
def test_ln_bessel_kernels_vs_mpmath(m):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want_i = np.array([float(mpmath.log(mpmath.besseli(m, mpmath.mpf(x))))
                           for x in _ARRAY_X])
        want_k = np.array([float(mpmath.log(mpmath.besselk(m, mpmath.mpf(x))))
                           for x in _ARRAY_X])
    assert _ln_err(sf.ln_bessel_i(m, _ARRAY_X), want_i).max() <= 1e-14
    assert _ln_err(sf.ln_bessel_k(m, _ARRAY_X), want_k).max() <= 1e-14


@pytest.mark.parametrize("m", _ARRAY_ORDERS)
def test_ln_bessel_kernels_vs_scipy(m):
    special = pytest.importorskip("scipy.special")
    want_i = np.log(special.ive(m, _ARRAY_X)) + _ARRAY_X
    want_k = np.log(special.kve(m, _ARRAY_X)) - _ARRAY_X
    assert _ln_err(sf.ln_bessel_i(m, _ARRAY_X), want_i).max() <= 1e-13
    assert _ln_err(sf.ln_bessel_k(m, _ARRAY_X), want_k).max() <= 1e-13


@pytest.mark.parametrize("m", [0, 3, 12, 30])
def test_ln_bessel_kernels_elementwise_independent(m):
    # each element takes its branch from (m, x) and runs to its own
    # convergence: alone or inside any array, in any order or shape, it gets
    # the same bits, on both sides of the Hankel switch x0(m) and of the
    # polynomial's end at x = 20 too
    x0 = sf._hankel_switch(m)
    x = np.concatenate([_ARRAY_X, [1.9, 2.0, np.nextafter(2.0, 3.0), 2.0 + 1e-12,
                                   2.1, 31.0, 33.0, 1200.0],
                        20.0 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
                        x0 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.9, 1.1])])
    for fn in (sf.ln_bessel_i, sf.ln_bessel_k):
        whole = fn(m, x)
        alone = np.array([fn(m, np.array([v]))[0] for v in x])
        assert np.array_equal(whole, alone)
        assert np.array_equal(fn(m, x[::-1])[::-1], whole)
        assert np.array_equal(fn(m, x[:46].reshape(2, 23)), whole[:46].reshape(2, 23))


# the K_0/K_1 trapezoid rule serves 2 < x < x0(m), so up to 360 at m = 30;
# it is checked to 700 and from the first double past the switch at 2
_K_RULE_X = np.concatenate([[np.nextafter(2.0, 3.0), 2.0 + 1e-12, 2.0 + 1e-6],
                            np.geomspace(2.001, 700.0, 120)])


def test_k01_trapezoid_rule_vs_mpmath():
    # 27 positive terms, each rounded a few times and added in order: 3e-15
    # is the a-priori bound of that sum; the rule's own error is about 1e-20
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = np.array([[float(mpmath.besselk(nu, mpmath.mpf(x)) * mpmath.exp(x))
                          for x in _K_RULE_X] for nu in (0, 1)])
    got = np.array(sf._k01_rule_scaled(_K_RULE_X))
    assert np.abs(got / want - 1.0).max() <= 3e-15


# the K_0/K_1 polynomials serve (0, 2]; checked from 1e-8 and densely on
# [1, 2], where the K_0 series cancels most (by about 12 at x = 2)
_K_SMALL_X = np.concatenate([np.geomspace(1e-8, 1.0, 60), np.linspace(1.0, 2.0, 101)])


def test_k01_small_polynomials_vs_mpmath():
    # within 3e-15 relative, the bound of the trapezoid rule above x = 2;
    # the cancellation in K_0 near x = 2 magnifies a few rounded terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = np.array([[float(mpmath.besselk(nu, mpmath.mpf(x))) for x in _K_SMALL_X]
                         for nu in (0, 1)])
    got = np.array(sf._k01_small(_K_SMALL_X))
    assert np.abs(got / want - 1.0).max() <= 3e-15


def test_i_polynomial_vs_scalar_series():
    # below x = 20 the scalar bessel_i_scaled evaluates the same polynomial on
    # one float; its log agrees with the array kernel at every order it serves
    x = np.concatenate([[1e-8, 1e-3], np.linspace(0.01, 20.0, 500)[:-1],
                        [np.nextafter(20.0, 0.0)]])
    for m in range(9):
        scalar = np.array([math.log(sf.bessel_i_scaled(m, v)) for v in x])
        assert _ln_err(sf._ln_bessel_i_scaled(m, x), scalar).max() <= 2e-15, m


def test_i_polynomial_vs_mpmath():
    # below x = 20 ln I_m is one fixed polynomial: on a log grid, densely on
    # a linear one and at the last double before 20
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([[1e-8], np.geomspace(1e-3, 20.0, 250)[:-1],
                        np.linspace(0.01, 20.0, 500)[:-1], [np.nextafter(20.0, 0.0)]])
    for m in (*range(9), 12):
        with mpmath.workdps(30):
            want = np.array([float(mpmath.log(mpmath.besseli(m, v) * mpmath.exp(-v)))
                             for v in map(mpmath.mpf, x)])
        assert _ln_err(sf._ln_bessel_i_scaled(m, x), want).max() <= 1e-15, m


@pytest.mark.parametrize("m", [171, 200])
def test_i_polynomial_past_factorial_range_vs_mpmath(m):
    # from m = 171, m! leaves double range and the scalar I_m below x = 20
    # is the exp of its log, so its relative error is that of a log of size
    # |ln I_m(x)|: (|ln I_m| + 1) 4 eps bounds it
    mpmath = pytest.importorskip("mpmath")
    for x in (5.0, 12.0, 19.0):
        with mpmath.workdps(30):
            want = mpmath.besseli(m, mpmath.mpf(x))
            ln_abs = abs(float(mpmath.log(want)))
            pairs = ((sf.bessel_i(m, x), want), (sf.bessel_i_scaled(m, x), want * mpmath.exp(-x)))
            bound = (ln_abs + 1.0) * 4.0 * sys.float_info.epsilon
            for got, exact in pairs:
                assert float(abs(got / exact - 1)) <= bound, (m, x)
    assert sf.bessel_i(300, 0.0) == 0.0


@pytest.mark.parametrize("m", [0, 1, 7, 8, 30, 299, 10**6])
def test_i_polynomial_truncation(m):
    # at x = 20 (q = 100), where the polynomial ends, the first term it
    # leaves out is below 1e-19 of the sum, for every order: the ratio falls
    # as m grows, and the sum's value is 1 or more
    coefs = sf._i_poly_coefs(m)
    n = len(coefs)
    total = sf._horner(coefs, np.array([100.0]))[0]
    omitted = coefs[0] * 100.0 ** n / (n * (m + n))
    assert omitted <= 1e-19 * total


@pytest.mark.parametrize("m", [12, 30])
def test_i_polynomial_recurrence_boundary_vs_mpmath(m):
    # for m >= 8 the polynomial hands over to the backward ratio recurrence
    # at x = 20, below x0(m); both sides stay within 2e-15 of max(1, |ln|),
    # about m/2 ulps of ln(x/2) that the prefix m ln(x/2) - ln m! carries
    mpmath = pytest.importorskip("mpmath")
    x = np.array([19.0, 20.0 * (1.0 - 1e-12), 20.0, 20.0 * (1.0 + 1e-12), 21.0])
    with mpmath.workdps(30):
        want = np.array([float(mpmath.log(mpmath.besseli(m, v) * mpmath.exp(-v)))
                         for v in map(mpmath.mpf, x)])
    assert _ln_err(sf._ln_bessel_i_scaled(m, x), want).max() <= 2e-15
    poly, rec = x[x < 20.0], x[x >= 20.0]
    assert np.array_equal(sf._ln_bessel_i_scaled(m, poly), sf._ln_i_poly_scaled(m, poly))
    assert np.array_equal(sf._ln_bessel_i_scaled(m, rec), sf._ln_i_recurrence_scaled(m, rec))


# the orders that reach the recurrence, 20 <= x < x0(m), with the worst
# relative error of the scalar bessel_i_scaled against mpmath that the
# peak-outward sum it replaced gave on the grid below
_RECURRENCE_ORDERS = {8: 3.4e-15, 9: 3.8e-15, 12: 5.2e-15, 16: 4.9e-15, 20: 8.3e-15,
                      30: 1.7e-14, 41: 2.8e-14, 50: 2.9e-14, 60: 3.4e-14, 100: 6.6e-14,
                      171: 8.8e-14, 300: 1.6e-13}


@pytest.mark.parametrize("m", sorted(_RECURRENCE_ORDERS))
def test_i_recurrence_vs_mpmath(m):
    # on a log grid of [20, x0(m)): the scaled log within 5e-16 of
    # max(1, |ln|), about two ulps (the peak-outward sum reached 3.5e-15 at
    # m = 300), and the scalar kernel's exp of it, where e^{-x} I_m is a
    # normal double, no less accurate than the peak-outward sum was
    mpmath = pytest.importorskip("mpmath")
    x = np.geomspace(20.0, sf._hankel_switch(m) * (1.0 - 1e-12), 24)
    with mpmath.workdps(30):
        exact = [mpmath.besseli(m, v) * mpmath.exp(-v) for v in map(mpmath.mpf, x)]
        want_ln = np.array([float(mpmath.log(v)) for v in exact])
        want = np.array([float(v) for v in exact])
    assert _ln_err(sf._ln_bessel_i_scaled(m, x), want_ln).max() <= 5e-16
    normal = want >= sys.float_info.min
    got = np.array([sf.bessel_i_scaled(m, v) for v in x[normal].tolist()])
    assert np.abs(got / want[normal] - 1.0).max() <= _RECURRENCE_ORDERS[m]


def test_ln_bessel_kernels_match_scalar_kernels():
    # the scalar kernels read the array kernels' tables and pick their
    # branch from (m, x) the same way: they agree to rounding at the polynomial
    # ends 2 and 20 and on both sides of the Hankel switch x0(m) (20 for
    # m <= 7, 57.6 for m = 12)
    for m in (0, 1, 5, 12):
        x0 = sf._hankel_switch(m)
        for x in (0.01, 1.5, 2.0, 2.5, 19.9, 20.0, 20.1, 40.0, 60.0, 250.0, 690.0,
                  x0 * (1.0 - 1e-12), x0 * (1.0 + 1e-12)):
            got_i = sf.ln_bessel_i(m, np.array([x]))[0]
            got_k = sf.ln_bessel_k(m, np.array([x]))[0]
            assert got_i == pytest.approx(math.log(sf.bessel_i_scaled(m, x)) + x,
                                          rel=1e-14, abs=1e-14)
            assert got_k == pytest.approx(math.log(sf.bessel_k_scaled(m, x)) - x,
                                          rel=1e-14, abs=1e-14)


def test_fixed_rules_round_alike_on_floats_and_arrays():
    # each fixed rule is one body, run on a float by the scalar kernels and
    # on an array by the array kernels: the same bits, but for the last bit
    # of ln(x/2) (math.log against numpy's), which reaches K_0/K_1 at x <= 2
    x = np.geomspace(1e-3, 2e3, 400)
    small, poly, large = x[x <= 2.0], x[x < 20.0], x[x >= 20.0]
    for m in (0, 5, 30):
        coefs = sf._i_poly_coefs(m)
        for rule, v in ((lambda u: sf._horner(coefs, 0.25 * u * u), poly),
                        (lambda u: sf._hankel_sum(m, u, -1.0), large),
                        (lambda u: sf._hankel_sum(m, u, 1.0), large)):
            assert np.array_equal(rule(v), [rule(u) for u in v.tolist()]), m
    # the I_m ratio recurrence takes its logs with math.log on a float
    for m in (8, 30, 171):
        v = x[(x >= 20.0) & (x < sf._hankel_switch(m))]
        alone = np.array([sf._ln_i_recurrence_scaled(m, u) for u in v.tolist()])
        assert _ln_err(sf._ln_i_recurrence_scaled(m, v), alone).max() <= 1e-15, m
    rule = x[x > 2.0]
    assert np.array_equal(sf._k01_rule_scaled(rule),
                          np.array([sf._k01_rule_scaled(u) for u in rule.tolist()]).T)
    alone = np.array([sf._k01_small(u) for u in small.tolist()]).T
    assert np.abs(np.array(sf._k01_small(small)) / alone - 1.0).max() <= 1e-15


def _bessel_k_unmemoised(m, x, scaled):
    # the scalar K kernel rebuilding K_0, K_1 on every call, as before the
    # pair memo
    if x >= sf._hankel_switch(m):
        ek = sf._hankel_sum(m, x, 1.0) * sf._SQRT_HALF_PI / math.sqrt(x)
        return ek if scaled else ek * math.exp(-x)
    if x <= 2.0:
        k0, k1 = sf._k01_small(x)
        scale = math.exp(x) if scaled else 1.0
    else:
        k0, k1 = sf._k01_rule_scaled(x)
        scale = 1.0 if scaled else math.exp(-x)
    return sf._k_upward(m, x, k0 * scale, k1 * scale)


# both sides of 2 and of x0(m) for orders on the fixed switch (20) and past it
_K_MEMO_X = np.geomspace(1e-3, 100.0, 24).tolist() + [
    v for x0 in (2.0,) + tuple(sf._hankel_switch(m) for m in (0, 8, 20, 40))
    for v in (math.nextafter(x0, 0.0), x0, math.nextafter(x0, math.inf), x0 * (1.0 - 1e-12))]


@pytest.mark.parametrize("orders", [range(41), range(40, -1, -1)], ids=["up", "down"])
def test_scalar_k_kernels_keep_the_bits_of_an_unmemoised_build(orders):
    sf._k01_pair.cache_clear()
    want = {(m, x): (_bessel_k_unmemoised(m, x, False).hex(),
                     _bessel_k_unmemoised(m, x, True).hex())
            for x in _K_MEMO_X for m in orders}
    for _ in ("cold", "warm"):
        for x in _K_MEMO_X:
            for m in orders:
                got = sf.bessel_k(m, x).hex(), sf.bessel_k_scaled(m, x).hex()
                assert got == want[m, x], (m, x)


def test_k_pair_memo_is_bounded():
    assert sf._k01_pair.cache_info().maxsize == 64
    for k in range(100):
        sf.bessel_k(3, 0.05 * (k + 1))
    assert sf._k01_pair.cache_info().currsize == 64


_HANKEL_ORDERS = (0, 1, 2, 4, 6, 8, 30)


@pytest.mark.parametrize("m", _HANKEL_ORDERS)
def test_hankel_switch_pinned_vs_mpmath(m):
    # the switch x0(m) is pinned from both sides (x0 (1 - 1e-12) is the
    # polynomial or recurrence route for I and the trapezoid rule for K,
    # x0 (1 + 1e-12) the Hankel one) and
    # on a log grid of the Hankel branch up to 6e4, in the ln and in the
    # scaled ln, where x itself no longer hides an error
    mpmath = pytest.importorskip("mpmath")
    x0 = sf._hankel_switch(m)
    x = np.concatenate([x0 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
                        np.geomspace(x0, 6e4, 24)])
    with mpmath.workdps(30):
        ln_i = [mpmath.log(mpmath.besseli(m, mpmath.mpf(v))) for v in x]
        ln_k = [mpmath.log(mpmath.besselk(m, mpmath.mpf(v))) for v in x]
        want_i, want_k = (np.array([float(v) for v in w]) for w in (ln_i, ln_k))
        scaled_i = np.array([float(w - v) for w, v in zip(ln_i, x)])
        scaled_k = np.array([float(w + v) for w, v in zip(ln_k, x)])
    assert _ln_err(sf.ln_bessel_i(m, x), want_i).max() <= 1e-14
    assert _ln_err(sf.ln_bessel_k(m, x), want_k).max() <= 1e-14
    err = np.maximum(_ln_err(sf._ln_bessel_i_scaled(m, x), scaled_i),
                     _ln_err(sf._ln_bessel_k_scaled(m, x), scaled_k))
    assert err.max() <= 1e-14
    # the Hankel branch keeps the scaled ln within 1e-15 (2.4e-16 at worst
    # here); an x0 of 0.15 m^2 would give 2.6e-15 at m = 30
    assert err[x >= x0].max() <= 1e-15


@pytest.mark.parametrize("x", [1e8, 1e12, 1e200, sys.float_info.max])
def test_ln_bessel_kernels_at_huge_arguments(x):
    # the Hankel prefactor is taken in logs: no overflow, no subnormal, no
    # warning up to DBL_MAX; the scaled logs are within a few ulps of mpmath
    # at 40 digits, and ln I_m, ln K_m and e^{-x} I_m are its rounded values
    # (e^{-x} I_m to the 1e-13 that exp makes of an ulp of a log near -350)
    mpmath = pytest.importorskip("mpmath")
    arr = np.array([x])
    for m in (0, 1, 6):
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            ln_ie = mpmath.log(mpmath.besseli(m, xm) * mpmath.exp(-xm))
            ln_ke = mpmath.log(mpmath.besselk(m, xm) * mpmath.exp(xm))
            want = [float(v) for v in (ln_ie, ln_ke, ln_ie + xm, ln_ke - xm,
                                       mpmath.exp(ln_ie))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_i = sf._ln_bessel_i_scaled(m, arr)[0]
            got_k = sf._ln_bessel_k_scaled(m, arr)[0]
            ln_i, ln_k = sf.ln_bessel_i(m, arr)[0], sf.ln_bessel_k(m, arr)[0]
            ie = sf.bessel_i_scaled(m, x)
        for got, ref in ((got_i, want[0]), (got_k, want[1])):
            assert abs(got - ref) <= 4 * math.ulp(ref), (m, got, ref)
        assert (ln_i, ln_k) == (want[2], want[3])
        assert math.isfinite(ie) and ie == pytest.approx(want[4], rel=1e-13)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-300])
def test_bessel_kernels_at_tiny_arguments_vs_mpmath(x):
    # where x/2 is subnormal (0 at x = 5e-324) ln(x/2) is taken as
    # ln x - ln 2, and where the K recurrence would leave double range the
    # array kernel takes the leading terms: the logs are finite and within
    # an ulp or two of mpmath, with no warning.  The scalar kernels give
    # the rounded value: 0 where it underflows, inf where K_m overflows
    mpmath = pytest.importorskip("mpmath")
    arr = np.array([x])
    for m in (0, 1, 2, 30):
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            i, k = mpmath.besseli(m, xm), mpmath.besselk(m, xm)
            want_ln = np.array([float(mpmath.log(i)), float(mpmath.log(k))])
            want = [float(i), float(i * mpmath.exp(-xm)), float(k), float(k * mpmath.exp(xm))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_ln = np.array([sf.ln_bessel_i(m, arr)[0], sf.ln_bessel_k(m, arr)[0]])
            got = [sf.bessel_i(m, x), sf.bessel_i_scaled(m, x),
                   sf.bessel_k(m, x), sf.bessel_k_scaled(m, x)]
        assert _ln_err(got_ln, want_ln).max() <= 1e-15, m
        for g, w in zip(got, want):
            assert g == w or g == pytest.approx(w, rel=1e-15, abs=5e-324), (m, g, w)


@pytest.mark.parametrize("m", [0, 2, 50])
def test_scaled_i_past_690_vs_mpmath(m):
    # past x = 690, where I_m itself leaves double range: the Hankel sum,
    # and for m = 50 below x0 = 1000 the backward ratio recurrence
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in (691.0, 1e3, 5e3, 1e5):
            want = mpmath.besseli(m, x) * mpmath.exp(-x)
            assert float(abs(sf.bessel_i_scaled(m, x) / want - 1)) <= 1e-14, x


def test_ln_bessel_kernels_stay_finite_at_extreme_orders():
    # I_200(1) underflows and K_200(1) overflows as plain doubles; their logs
    # do not, and the Wronskian-type product I_m K_m -> 1/(2m) holds
    x = np.array([1.0])
    total = sf.ln_bessel_i(200, x)[0] + sf.ln_bessel_k(200, x)[0]
    assert total == pytest.approx(math.log(1.0 / 400.0), abs=1e-3)


@pytest.mark.parametrize("m", [0, 3, 12, 30])
def test_ln_bessel_kernels_on_a_float(m, monkeypatch):
    # a Python float runs the float body and gives a float, a few ulps of
    # max(1, |ln|) from the same x inside an array (math.log against np.log)
    whole = {fn: fn(m, _ARRAY_X) for fn in (sf.ln_bessel_i, sf.ln_bessel_k)}
    monkeypatch.setattr(sf, "_positive_array", None)
    for fn, want in whole.items():
        got = [fn(m, x) for x in _ARRAY_X.tolist()]
        assert all(type(v) is float for v in got)
        assert _ln_err(np.array(got), want).max() <= 4e-16


def test_ln_bessel_kernels_domain():
    for fn in (sf.ln_bessel_i, sf.ln_bessel_k):
        for bad in ([0.0], [-1.0], [math.nan], [math.inf]):
            with pytest.raises(sf.DomainError):
                fn(0, np.array(bad))
            with pytest.raises(sf.DomainError, match="requires finite x > 0"):
                fn(0, bad[0])
        with pytest.raises(sf.DomainError):
            fn(-1, np.array([1.0]))
        assert fn(2, np.array([])).shape == (0,)


def test_specfun_suite_evaluates_each_kernel_value_once(monkeypatch):
    # I_k and K_k for k = 0..9 at each of the 20 points, the cross products
    # formed from them; the residual keeps its bits
    calls = {"bessel_i": 0, "bessel_k": 0}

    def counted(name):
        kernel = getattr(checks, name)

        def call(k, x):
            calls[name] += 1
            return kernel(k, x)
        return call
    for name in calls:
        monkeypatch.setattr(checks, name, counted(name))
    (result,) = checks.suite_specfun()
    assert calls == {"bessel_i": 200, "bessel_k": 200}
    assert result.residual.hex() == "0x1.c000000000000p-50"
