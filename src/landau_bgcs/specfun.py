"""Self-contained special-function kernels used everywhere else in the package.

Everything here is double-precision arithmetic built from ascending series,
fixed polynomials, a trapezoid rule, three-term recurrences and asymptotic
expansions:

* modified Bessel functions of integer order: ``I_m(w)`` for real or complex
  argument, the exponentially scaled ``e^{-x} I_m(x)`` and ``e^x K_m(x)``
  forms for real argument, and ``K_m(x)`` for ``x > 0``,
* the entire reduced series ``R_m(w) = sum_nu w^nu / (nu! (nu+m)!)``, which is
  ``(w)^{-m/2} I_m(2 sqrt(w))`` continued to all complex ``w`` and is the
  single-valued building block for overlap kernels,
* ``ln I_m(x)`` and ``ln K_m(x)`` elementwise over numpy arrays of x > 0
  (``ln_bessel_i``, ``ln_bessel_k``), for callers that need a whole radial
  profile at once, or on one Python float, which gives a float,
* ``ln n!`` (exact cumulative sums up to 256, Stirling beyond).

The real-argument Bessel kernels, scalar and array alike, take their branch
from (m, x) alone, and each branch is one fixed table read by one body that
runs on a float or on a numpy array: the Hankel large-argument expansions
from x0(m) = max(20, 0.4 m^2); below it, I_m from one 40-term polynomial at
x < 20 and on [20, x0(m)) (m >= 8 only) from the ratios I_k / I_{k-1} of
the backward recurrence, started at a fixed order of about 4.1 m, times
the Hankel I_0; and K_m from K_0/K_1 (four fixed 16-term
polynomials at x <= 2, a 27-node trapezoid rule above) raised to order m by
the stable upward recurrence; the reflection formula with a ``sin(m pi)``
denominator is useless at integer order.  The scalar K kernels read that
K_0/K_1 pair from a memo of the last 64 float arguments, so the orders
asked for at one x build it once.  A scalar call costs 1-3
microseconds on every branch but the I recurrence, whose O(m) loop takes
10-40 microseconds for m <= 50 (Python 3.11 on a 2-core x86-64 host).  The
reduced series, which stays scalar, and the logs of the I ratios use
compensated (Kahan) accumulation; on a Python float w >= 0, every real
call the package makes, the series runs a loop of its own that takes no
abs, with the bits of the general loop.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

_EULER_GAMMA_DIGITS = "0.5772156649015328606065120900824024"
_EULER_GAMMA = float(_EULER_GAMMA_DIGITS)
_LN_SQRT_2PI = 0.9189385332046727417803297364056176
_EXACT_LN_FACT_LIMIT = 256


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the requested quantity."""


class EvaluationError(RuntimeError):
    """A series or iterative evaluation failed to converge.

    Attributes
    ----------
    partial : the best estimate accumulated before giving up (may be None).
    terms : number of terms consumed.
    """

    def __init__(self, message, partial=None, terms=0):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class _Record:
    """Base of the frozen result records: as_dict gives the dataclass fields
    in declaration order, then the derived values named in _derived, with a
    nested record as its own as_dict and a tuple as a list."""

    _derived: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        def plain(v):
            if isinstance(v, _Record):
                return v.as_dict()
            return [plain(e) for e in v] if isinstance(v, tuple) else v
        out = {f.name: plain(getattr(self, f.name)) for f in fields(self)}
        out.update((name, getattr(self, name)) for name in self._derived)
        return out


# termination policy of the scalar series loops: stop once the last term is
# below _REL_TOL of the sum; give up after _MAX_TERMS terms
_REL_TOL = 1e-16
_MAX_TERMS = 2048


def _order(value, name: str = "order") -> int:
    """value as an int if it is an integer >= 0, else DomainError: the one
    check of every order and index.  A bool is an int to Python but never an
    order; a NaN, inf or non-number fails the comparison or the int()."""
    if type(value) is int and value >= 0:
        return value
    try:
        bad = value < 0 or value != int(value)
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad or isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# log-factorial

def _build_exact_ln_fact():
    # cumulative fsum keeps every prefix exactly rounded
    logs = []
    table = [0.0, 0.0]
    for k in range(2, _EXACT_LN_FACT_LIMIT + 1):
        logs.append(math.log(k))
        table.append(math.fsum(logs))
    return table


_LN_FACT_TABLE = _build_exact_ln_fact()


def _stirling_tail(n):
    # ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)); below 1e-19 absolute error
    # for n >= 16, where it is used
    inv = 1.0 / n
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 * (
            1.0 / 1188.0 - inv2 * (691.0 / 360360.0 - inv2 / 156.0))))))


def ln_factorial(n: int) -> float:
    """Natural log of n! for integer n >= 0.

    Exact-summed table through n = 256, Stirling's series beyond.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"ln_factorial requires an integer n >= 0, got {n!r}")
    n = int(n)
    if n <= _EXACT_LN_FACT_LIMIT:
        return _LN_FACT_TABLE[n]
    x = float(n)
    return _stirling(x, math.log(x))


def _stirling(x, ln_x):
    # ln x! past the exact table from x and its log, which the caller takes:
    # on floats, or elementwise on arrays by the same operations in the same
    # order, so an array entry has the bits of the scalar call
    return (x + 0.5) * ln_x - x + _LN_SQRT_2PI + _stirling_tail(x)


# ---------------------------------------------------------------------------
# modified Bessel I

def _i_poly(m: int, x: float) -> float:
    """I_m(x) at 0 <= x < 20: h^m / m! times the polynomial P_m(h^2) of
    _ln_i_poly_scaled, h = x/2."""
    h = 0.5 * x
    p = _horner(_i_poly_coefs(m), h * h)
    if m <= 170:
        # m! still converts to a double, and h^m < 10^170 underflows gradually
        return h ** m / math.factorial(m) * p
    if x == 0.0:
        return 0.0
    return math.exp(m * _ln_half(x) - ln_factorial(m) + math.log(p))


def bessel_i_scaled(m: int, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_m(x), x real >= 0.

    It takes the branch that ln_bessel_i takes at (m, x), on its float: the
    fixed polynomial times e^{-x} at x < 20, the Hankel sum from x0(m), and
    on [20, x0(m)) (m >= 8 only) the exp of the ratio recurrence's log, an
    O(m) loop against 1-3 microseconds on the other branches.  No
    intermediate quantity leaves double range up to x = DBL_MAX.
    """
    m = _order(m)
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"bessel_i_scaled requires finite x >= 0, got {x}")
    if x < _HANKEL_FLOOR:
        return _i_poly(m, x) * math.exp(-x)
    if x >= _hankel_switch(m):
        return _hankel_sum(m, x, -1.0) / (_SQRT_2PI * math.sqrt(x))
    return math.exp(_ln_i_recurrence_scaled(m, x))


def bessel_i(m: int, w):
    """Modified Bessel function I_m(w) of integer order m >= 0.

    Real w: the fixed polynomial at x < 20, e^x times bessel_i_scaled from
    there; negative real w uses I_m(-x) = (-1)^m I_m(x); past 690,
    EvaluationError points to bessel_i_scaled.  Complex w: the entire-series
    route (w/2)^m R_m(w^2/4); accuracy degrades with cancellation roughly
    like e^{|Im w|}, so keep |w| <= 80 for full-precision work (documented
    plumbing bound, enforced only through max_terms).
    """
    m = _order(m)
    if isinstance(w, complex):
        if w.imag == 0.0:
            return complex(bessel_i(m, w.real))
        half = 0.5 * w
        return half ** m * bessel_i_reduced(m, half * half)
    x = float(w)
    if not math.isfinite(x):
        raise DomainError(f"bessel_i requires a finite argument, got {x}")
    if x < 0.0:
        v = bessel_i(m, -x)
        return -v if m % 2 else v
    if x > 690.0:
        raise EvaluationError(
            f"I_{m}({x}) is near or beyond double range; use bessel_i_scaled")
    if x < _HANKEL_FLOOR:
        return _i_poly(m, x)
    return bessel_i_scaled(m, x) * math.exp(x)


def bessel_i_reduced(m: int, w):
    """Entire reduced series R_m(w) = sum_nu w^nu / (nu! (nu+m)!).

    Satisfies I_m(2 sqrt(w)) = w^{m/2} R_m(w) on any branch, which makes it
    the single-valued series used by overlap kernels.  Accepts real or complex
    scalar w and keeps its arithmetic: a real w is summed in floats and
    gives a float, a complex w in complex (ndarray support lives in the
    quadrature layer).  Each term forms its divisor k (k + m) once, in
    floats, and the stopping test compares that divisor with |w| before it
    looks at the term.  A Python float w >= 0, every real call bgcs makes,
    has a loop of its own, where term and sum are >= 0 and so the test
    reads them without an abs; any other w takes the general loop.  The two
    loops, and a real and a complex w, see the same operations in the same
    order, so they round alike.
    """
    m = _order(m)
    if type(w) is float and w >= 0.0:
        return _reduced_nonnegative(m, w)
    s = comp = 0j if isinstance(w, complex) else 0.0
    term = s + math.exp(-ln_factorial(m))
    aw = abs(w)
    # the counter and the order as floats, so each divisor is float
    # arithmetic alone
    k, order = 0.0, float(m)
    for _ in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        k += 1.0
        d = k * (k + order)
        term *= w / d
        if d > aw and abs(term) <= _REL_TOL * (abs(s) + 1e-300):
            break
    else:
        raise EvaluationError(
            f"reduced I series (m={m}, |w|={aw:.3g}) did not converge "
            f"in {_MAX_TERMS} terms", partial=s, terms=_MAX_TERMS)
    return s


def _reduced_nonnegative(m: int, w: float) -> float:
    # the loop of bessel_i_reduced on a float w >= 0 (-0.0 too, which
    # compares as 0): term and s stay >= 0, so abs(term), abs(s) and abs(w)
    # are term, s and w in every test; the policy constants are locals
    tol, cap = _REL_TOL, _MAX_TERMS
    s = comp = 0.0
    term = math.exp(-ln_factorial(m))
    k, order = 0.0, float(m)
    for _ in range(cap):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        k += 1.0
        d = k * (k + order)
        term *= w / d
        if d > w and term <= tol * (s + 1e-300):
            return s
    raise EvaluationError(
        f"reduced I series (m={m}, |w|={abs(w):.3g}) did not converge "
        f"in {cap} terms", partial=s, terms=cap)


# ---------------------------------------------------------------------------
# modified Bessel K

def _k_upward(m, x, k0, k1):
    # K grows with order: upward recurrence is the stable direction
    if m == 0:
        return k0
    if m == 1:
        return k1
    prev, cur = k0, k1
    two_over_x = 2.0 / x
    for j in range(1, m):
        prev, cur = cur, prev + j * two_over_x * cur
        if math.isinf(cur):
            break
    return cur


def _bessel_k(m, x, scaled: bool, name: str) -> float:
    # on the branch that ln_bessel_k takes at (m, x): the Hankel sum from
    # x0(m); below it K_0, K_1 from the polynomials (x <= 2) or the scaled
    # rule, rescaled to the requested form, then raised to order m
    m = _order(m)
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires finite x > 0, got {x}")
    if x >= _hankel_switch(m):
        ek = _hankel_sum(m, x, 1.0) * _SQRT_HALF_PI / math.sqrt(x)
        return ek if scaled else ek * math.exp(-x)
    k0, k1 = _k01_pair(x)
    if x <= 2.0:
        scale = math.exp(x) if scaled else 1.0
    else:
        scale = 1.0 if scaled else math.exp(-x)
    return _k_upward(m, x, k0 * scale, k1 * scale)


@functools.lru_cache(maxsize=64)
def _k01_pair(x: float) -> tuple:
    # K_0, K_1 at x <= 2, else e^x K_0, e^x K_1: the pair every order at x
    # is raised from, built once for the last 64 floats asked for
    return _k01_small(x) if x <= 2.0 else _k01_rule_scaled(x)


def bessel_k(m: int, x: float) -> float:
    """Modified Bessel function K_m(x) for integer m >= 0 and finite real
    x > 0; inf where K_m leaves double range.

    Below the Hankel switch x0(m), K_0 and K_1 at x are read from a private
    memo of the last 64 float arguments, shared with bessel_k_scaled, so
    the orders asked for at one x build that pair once; the memo holds
    the pair alone, and the scaling and the order recurrence run per call."""
    return _bessel_k(m, x, False, "bessel_k")


def bessel_k_scaled(m: int, x: float) -> float:
    """Exponentially scaled e^x K_m(x); safe at large x where K_m underflows."""
    return _bessel_k(m, x, True, "bessel_k_scaled")


# ---------------------------------------------------------------------------
# the fixed rules, and the array kernels ln I_m(x), ln K_m(x) over x > 0
#
# Each rule is one table, read by one body that runs on a float for the
# scalar kernels above and elementwise on an array for the array kernels:
# the same operations in the same order, so a float and an array element
# round alike, up to the last bit of a log (math.log against numpy's).
# Each element takes its branch from (m, x) alone: the Hankel
# expansion at x >= _hankel_switch(m); below it, for ln I_m one fixed
# polynomial at x < 20 and the backward ratio recurrence on [20, x0(m))
# (m >= 8 only), for ln K_m four fixed polynomials at x <= 2 and a fixed
# trapezoid rule above, raised by the upward ratio recurrence.  No rule has
# a convergence test: every loop bound is fixed by m.  So the value of an
# element never depends on the array it is in.

_LN_SQRT_HALF_PI = 0.2257913526447274323630976149474410
_SQRT_2PI = 2.506628274631000502415765284811045
_SQRT_HALF_PI = 1.253314137315500251207882642405523
_LN2 = 0.6931471805599453094172321214581766
# below this x, x/2 is subnormal and so rounded, to 0 at the smallest double
_TINY_X = 2.0 * sys.float_info.min
# terms of the Hankel sums; at x >= _hankel_switch(m) the truncated sums and
# the neglected e^{-2x} part stay within a few ulps of the scaled logs
_HANKEL_TERMS = 40
# below this floor of _hankel_switch, ln I_m is the fixed polynomial
_HANKEL_FLOOR = 20.0


def _hankel_switch(m: int) -> float:
    """x0(m), from which the Hankel expansions serve ln I_m and ln K_m.

    Past the floor 20 the part of I_m that the expansion leaves out,
    e^{-2x} relative, stays below the rounding of a double even magnified
    by e^{m^2 / x} (at 18 it reaches 9e-16 in the log for m = 6), and so
    does the smallest of the 40 terms.  The 0.4 m^2 bounds the first term
    ratio m^2 / (2x) by 1.25, so the alternating I sum cancels by at most
    about e^{2.5}.  Below x0(m) the backward I recurrence starts at an order
    fixed by x0(m) (_ln_i_recurrence_scaled).  Pinned against mpmath on
    both sides of the switch in tests/test_specfun.py."""
    return max(_HANKEL_FLOOR, 0.4 * m * m)


@functools.lru_cache(maxsize=256)
def _hankel_ratios(m: int) -> tuple:
    # the factor ratios a_j / a_{j-1} = (4m^2 - (2j-1)^2) / (8j) of the
    # Hankel sums, j = 40 down to 1
    mu = 4.0 * m * m
    return tuple((mu - (2 * j - 1) ** 2) / (8.0 * j)
                 for j in range(_HANKEL_TERMS, 0, -1))


def _hankel_sum(m: int, x, sign: float):
    """sum_k sign^k a_k(m) / x^k over k <= 40 at x >= x0(m), on a float or
    an array, where (DLMF 10.40.1, 10.40.2; Abramowitz & Stegun 9.7.1,
    9.7.2)

        e^{-x} I_m(x) ~ (2 pi x)^{-1/2} sum_k (-1)^k a_k(m) / x^k,
        e^x K_m(x)    ~ (pi / 2x)^{1/2} sum_k a_k(m) / x^k,

    a_k(m) = prod_{j<=k} (4m^2 - (2j-1)^2) / (8j).  One Horner loop over the
    factor ratios a_j / a_{j-1}, so no a_k leaves double range."""
    inv = 1.0 / x
    s = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    for ratio in _hankel_ratios(m):
        # s <- 1 + sign a_j / a_{j-1} * s / x, in place on an array
        s *= inv
        s *= sign * ratio
        s += 1.0
    return s


def _ln_hankel_scaled(m: int, x: np.ndarray, sign: float) -> np.ndarray:
    """ln(e^{-x} I_m(x)) (sign -1) or ln(e^x K_m(x)) (sign +1) at x >= x0(m)
    from the Hankel sum; the prefactor is taken in logs as -ln sqrt(2 pi)
    or ln sqrt(pi/2) minus (ln x)/2, so it neither overflows nor goes
    subnormal up to x = DBL_MAX."""
    s = _hankel_sum(m, x, sign)
    # the constant joins the small ln(sum) first, the exactly halved ln x
    # last, so the result is rounded twice at its own scale
    ln_c = -_LN_SQRT_2PI if sign < 0.0 else _LN_SQRT_HALF_PI
    return (np.log(s) + ln_c) - 0.5 * np.log(x)


def _split(cond, x, yes, no):
    # yes(x) where cond holds, no(x) elsewhere, along the last axis of their
    # results; on a float, cond is a bool and picks one side, and a side with
    # no element is not entered, since its loops cost the same on none
    if not isinstance(cond, np.ndarray):
        return yes(x) if cond else no(x)
    if cond.all():
        return yes(x)
    if not cond.any():
        return no(x)
    part = yes(x[cond])
    out = np.empty(part.shape[:-1] + x.shape)
    out[..., cond] = part
    out[..., ~cond] = no(x[~cond])
    return out


def _with_hankel(m: int, x: np.ndarray, sign: float, below) -> np.ndarray:
    # the Hankel branch where x >= x0(m), below(m, x) on the rest
    return _split(x >= _hankel_switch(m), x,
                  lambda v: _ln_hankel_scaled(m, v, sign), lambda v: below(m, v))


def _horner(coefs, q):
    # sum_k coefs[k] q^(n-1-k), coefficients highest degree first, on a
    # float or an array (two in-place ufuncs per term).  On a finite float
    # the first step 0 q + coefs[0] is coefs[0] exactly, so the loop runs
    # over the whole table with no slice of it
    if not isinstance(q, np.ndarray):
        p = 0.0
        for c in coefs:
            p = p * q + c
        return p
    p = np.full_like(q, coefs[0])
    for c in coefs[1:]:
        p *= q
        p += c
    return p


def _ln_half(x):
    """ln(x/2) on a float or an array; where x/2 leaves the normal range,
    and so would be rounded, ln x - ln 2."""
    if isinstance(x, np.ndarray):
        return _split(x < _TINY_X, x, lambda v: np.log(v) - _LN2,
                      lambda v: np.log(0.5 * v))
    return math.log(x) - _LN2 if x < _TINY_X else math.log(0.5 * x)


def _positive_array(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise DomainError(f"{name} requires finite x > 0")
    return x


def _ln_bessel_i_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^{-x} I_m(x)) on a float or elementwise over a flat array of
    x > 0, to a few ulps of max(1, |result|): the Hankel expansion at
    x >= x0(m), the fixed polynomial at x < 20, and the backward ratio
    recurrence between (m >= 8 only), within 5e-16 there."""
    return _with_hankel(m, x, -1.0, _ln_i_below_switch)


def _ln_i_below_switch(m: int, x: np.ndarray) -> np.ndarray:
    return _split(x < _HANKEL_FLOOR, x, lambda v: _ln_i_poly_scaled(m, v),
                  lambda v: _ln_i_recurrence_scaled(m, v))


# terms of the I_m polynomial; at x = 20 the first one left out is 3.4e-24
# of the sum at m = 0 and less at every other order (pinned in
# tests/test_specfun.py)
_I_POLY_TERMS = 40


@functools.lru_cache(maxsize=256)
def _i_poly_coefs(m: int) -> tuple:
    # 1 / (nu! (m+1)_nu) for nu < _I_POLY_TERMS, highest degree first, each
    # rounded once from the exact integer
    return tuple(1 / (math.factorial(nu) * math.perm(m + nu, nu))
                 for nu in reversed(range(_I_POLY_TERMS)))


def _ln_i_poly_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^{-x} I_m(x)) at x < 20 from the ascending series (DLMF 10.25.2)
    as one fixed polynomial in q = h^2, h = x/2:

        I_m(x) = h^m / m! P_m(q),   P_m(q) = sum_{nu<40} q^nu / (nu! (m+1)_nu).

    The coefficients are positive, so Horner's rule keeps P_m within a few
    ulps (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), and
    e^{-x} enters before the log."""
    h = 0.5 * x
    p = _horner(_i_poly_coefs(m), h * h)
    p *= np.exp(-x)
    out = np.log(p)
    if m:
        out += m * _ln_half(x) - ln_factorial(m)
    return out


def _ln_i_recurrence_scaled(m: int, x):
    """ln(e^{-x} I_m(x)) on 20 <= x < x0(m), on a float or elementwise on an
    array, from the three-term recurrence I_{k-1} - I_{k+1} = (2k/x) I_k
    (DLMF 10.29.1) run downward on the ratios r_k = I_k / I_{k-1} (Miller's
    algorithm; Gautschi, SIAM Rev. 9, 24 (1967)):

        r_k = x / (2k + x r_{k+1}),   ln I_m = ln I_0 + sum_{k<=m} ln r_k,

    started from r = 0 at the fixed order N = ceil(sqrt(m^2 + 40 x0(m))).
    (N^2 - m^2) / (2x) >= 20 holds on the whole branch, so the start error
    reaches r_m damped to about e^{-40}.  The logs are summed with
    compensation (Kahan), then ln(e^{-x} I_0(x)) from the Hankel sum, which
    serves order 0 from x = 20; each element costs about 4.1 m steps."""
    log = np.log if isinstance(x, np.ndarray) else math.log
    r = s = comp = 0.0
    for k in range(math.ceil(math.sqrt(m * m + 40.0 * _hankel_switch(m))), 0, -1):
        r = x / (2.0 * k + x * r)
        if k <= m:
            y = log(r) - comp
            t = s + y
            comp = (t - s) - y
            s = t
    return s + (_ln_hankel_scaled(0, x, -1.0) - comp)


def _ln_bessel(scaled, sign: float, m, x, name: str):
    # scaled(m, x) + sign x: on a Python float by the float body, with no
    # array built; on anything else elementwise over the flattened array
    m = _order(m)
    if type(x) is float:
        if not 0.0 < x < math.inf:
            raise DomainError(f"{name} requires finite x > 0")
        return float(scaled(m, x) + sign * x)
    x = _positive_array(x, name)
    flat = x.ravel()
    return (scaled(m, flat) + sign * flat).reshape(x.shape)


def ln_bessel_i(m: int, x):
    """ln I_m(x) elementwise over an array of x > 0, or on a Python float
    x > 0, which gives a float from the same branch and formula.

    From x0(m) = max(20, 0.4 m^2) the Hankel expansion; below it one fixed
    40-term polynomial at x < 20 and, on [20, x0(m)) (m >= 8), the logs of
    the ratios I_k / I_{k-1} from the backward recurrence added to the
    Hankel ln I_0, so nothing overflows or underflows at any x or m.  Each
    element takes its branch from (m, x) alone.  Absolute error is a few ulps of
    max(1, |ln I_m(x)|).
    """
    return _ln_bessel(_ln_bessel_i_scaled, 1.0, m, x, "ln_bessel_i")


_K_POLY_TERMS = 16


def _k01_poly_coefs():
    # the four polynomials of _k01_small, 16 terms each, highest degree
    # first, each coefficient rounded once from its exact value; psi(k+1) =
    # H_k - gamma
    gamma = Fraction(_EULER_GAMMA_DIGITS)
    psi = [-gamma]
    for k in range(1, _K_POLY_TERMS + 2):
        psi.append(psi[-1] + Fraction(1, k))
    ks = range(_K_POLY_TERMS, 0, -1)
    f = math.factorial
    return (tuple(1 / f(k) ** 2 for k in ks),
            tuple(float(psi[k] / f(k) ** 2) for k in ks),
            tuple(1 / (f(k) * f(k + 1)) for k in ks),
            tuple(float((psi[k] + psi[k + 1]) / (2 * f(k) * f(k + 1))) for k in ks))


_K_I0, _K_PSI0, _K_I1, _K_PSI1 = _k01_poly_coefs()


def _k01_small(x):
    """K_0(x), K_1(x) for 0 < x <= 2, on a float or elementwise on an array,
    from the small-argument series (DLMF 10.31.1, 10.31.2) as fixed
    polynomials in q = h^2, h = x/2, with the exact leading terms split off:

        K_0 = q (B - A ln h) - ln h - gamma,
        K_1 = 1/x + h ((ln h + gamma - 1/2) + q (C ln h - D)),

    where I_0 = 1 + q A, sum_{k>=1} psi(k+1) q^k / (k!)^2 = q B,
    I_1 = h (1 + q C) and sum_{k>=1} (psi(k+1) + psi(k+2)) q^k / (2 k! (k+1)!)
    = q D.  Every coefficient is positive and the first omitted term is at
    most 2.3e-29 at q = 1.  K_1 is inf where 1/x overflows (x < 5.6e-309)."""
    h = 0.5 * x
    q = h * h
    ln_h = _ln_half(x)
    a, b, c, d = (_horner(coefs, q) for coefs in (_K_I0, _K_PSI0, _K_I1, _K_PSI1))
    k0 = q * (b - ln_h * a) - ln_h - _EULER_GAMMA
    k1 = 1.0 / x + h * ((ln_h + (_EULER_GAMMA - 0.5)) + q * (ln_h * c - d))
    return k0, k1


def _k01_rule():
    # the rule of _k01_rule_scaled as (s_j^2, w_j) for s_j = j/4, j = 26 down
    # to 0: the weights are 2 h e^{-s_j^2} at h = 1/4, the j = 0 weight halved
    s2 = (np.arange(27) / 4.0) ** 2
    w = 0.5 * np.exp(-s2)
    w[0] = 0.25
    return tuple(zip(s2[::-1].tolist(), w[::-1].tolist()))


_K_RULE = _k01_rule()


def _k01_rule_scaled(x):
    """e^x K_0(x), e^x K_1(x) for x > 2 by one fixed quadrature, on a float
    or elementwise on an array.

    With s = sqrt(2x) sinh(t/2) in K_nu(x) = int_0^inf e^{-x cosh t}
    cosh(nu t) dt (DLMF 10.32.9),

        e^x K_0(x) = int_0^inf e^{-s^2} 2 / sqrt(2x + s^2) ds,
        e^x K_1(x) = e^x K_0(x) + int_0^inf e^{-s^2} 2 s^2 / x sqrt(2x + s^2) ds.

    The integrands are analytic for |Im s| < sqrt(2x), at least 2, so the
    trapezoid rule at h = 1/4 errs by about e^{4 - 4 pi / h} = 1e-20
    (Trefethen & Weideman, SIAM Review 56, 385 (2014)); s > 6.5 holds
    e^{-42}.  The positive terms are added node by node, smallest first, so
    each element is rounded alike in any array."""
    sqrt = np.sqrt if isinstance(x, np.ndarray) else math.sqrt
    two_x = 2.0 * x
    ek0 = k1_part = 0.0
    for s2, w in _K_RULE:
        term = w / sqrt(two_x + s2)
        ek0 += term
        k1_part += term * s2
    return ek0, ek0 + k1_part / x


def _ln_bessel_k_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^x K_m(x)) on a float or elementwise over a flat array of x > 0:
    the Hankel expansion at x >= x0(m), the recurrence route below, and the
    leading terms where that route would leave double range."""
    return _with_hankel(m, x, 1.0, _ln_k_below_switch)


def _ln_k_below_switch(m: int, x: np.ndarray) -> np.ndarray:
    # below this x the recurrence route leaves double range (x/2 is
    # subnormal, or 2(m-1)/x overflows), and the leading terms are exact
    # to rounding: the next ones are O(x^2 ln x) relative
    tiny = max(_TINY_X, 2.0 * m / sys.float_info.max)
    return _split(x < tiny, x, lambda v: _ln_k_leading(m, v),
                  lambda v: _ln_k_recurrence_scaled(m, v))


def _ln_k_leading(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^x K_m(x)) from the leading small-argument terms (DLMF 10.31.1,
    10.30.2), K_0 = -ln(x/2) - gamma and K_m = (m-1)! / 2 (x/2)^{-m} for
    m >= 1, with ln(x/2) from _ln_half; e^x is 1 to rounding here."""
    ln_h = _ln_half(x)
    if m == 0:
        return np.log(-ln_h - _EULER_GAMMA)
    return (ln_factorial(m - 1) - _LN2) - m * ln_h


def _ln_k_recurrence_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^x K_m(x)): K_0 and K_1 from the small-argument polynomials
    (x <= 2) or the scaled trapezoid rule (x > 2), then the order raised by the
    ratio recurrence K_{j+1}/K_j = 2j/x + K_{j-1}/K_j, whose logs are
    summed."""
    def small(v):
        k0, k1 = _k01_small(v)
        return np.array([np.log(k0) + v, k1 / k0])

    def rule(v):
        ek0, ek1 = _k01_rule_scaled(v)
        return np.array([np.log(ek0), ek1 / ek0])

    ln_k, ratio = _split(x <= 2.0, x, small, rule)
    two_over_x = 2.0 / x
    for j in range(m):
        if j:
            ratio = j * two_over_x + 1.0 / ratio
        ln_k = ln_k + np.log(ratio)
    return ln_k


def ln_bessel_k(m: int, x):
    """ln K_m(x) elementwise over an array of x > 0, or on a Python float
    x > 0, which gives a float from the same branch and formula.

    From x0(m) = max(20, 0.4 m^2) the Hankel expansion; below it K_0 and
    K_1 come from four fixed 16-term polynomials (x <= 2) or a fixed
    trapezoid rule (x > 2), and the order is raised through the ratios
    K_{j+1}/K_j, so K_m never overflows or underflows; where x/2 is
    subnormal or 2(m-1)/x overflows, the leading terms serve.  Each element
    takes its branch from (m, x) alone.  Absolute error is a few ulps of
    max(1, |ln K_m(x)|).
    """
    return _ln_bessel(_ln_bessel_k_scaled, -1.0, m, x, "ln_bessel_k")
