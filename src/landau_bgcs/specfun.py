"""Self-contained special-function kernels used everywhere else in the package.

Everything here is double-precision arithmetic built from ascending series,
continued fractions, and upward recurrences, with compensated (Kahan)
accumulation in every series loop.  The quantities provided:

* modified Bessel functions of integer order: ``I_m(w)`` for real or complex
  argument, the exponentially scaled ``e^{-x} I_m(x)`` and ``e^x K_m(x)``
  forms for real argument, and ``K_m(x)`` for ``x > 0``,
* the entire reduced series ``R_m(w) = sum_nu w^nu / (nu! (nu+m)!)``, which is
  ``(w)^{-m/2} I_m(2 sqrt(w))`` continued to all complex ``w`` and is the
  single-valued building block for overlap kernels,
* ``ln I_m(x)`` and ``ln K_m(x)`` elementwise over numpy arrays of x > 0
  (``ln_bessel_i``, ``ln_bessel_k``), for callers that need a whole radial
  profile at once; one label at a time, the scalar kernels are cheaper,
* ``ln n!`` (exact cumulative sums up to 256, Stirling beyond),
* the Gauss hypergeometric series ``2F1(a, b; c; x)`` for ``|x| < 1``,
* weighted Bessel-type moment sums used as series oracles for closed-form
  expectation values.

Integer-order ``K_m`` is computed from ``K_0``/``K_1`` (small-argument series
with harmonic-number terms for ``x <= 2``, a Steed-style continued fraction
for ``x > 2``) followed by stable upward recurrence; the order-reflection
formula with a ``sin(m pi)`` denominator is useless at integer order and is
not used.
"""

from __future__ import annotations

import math
import numpy as np

_EULER_GAMMA = 0.5772156649015328606065120900824024
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


# termination policy of the scalar series loops: stop once the last term is
# below _REL_TOL of the sum; give up after _MAX_TERMS terms
_REL_TOL = 1e-16
_MAX_TERMS = 2048


def _order(value, name: str = "order") -> int:
    """value as an int if it is an integer >= 0, else DomainError: the one
    check of every order and index.  A bool is an int to Python but never an
    order; a NaN, inf or non-number fails the comparison or the int()."""
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


def ln_factorial(n: int) -> float:
    """Natural log of n! for integer n >= 0.

    Exact-summed table through n = 256, Stirling series with 1/n^7 correction
    beyond (error < 1e-24 relative there).
    """
    if n < 0 or n != int(n):
        raise DomainError(f"ln_factorial requires an integer n >= 0, got {n!r}")
    n = int(n)
    if n <= _EXACT_LN_FACT_LIMIT:
        return _LN_FACT_TABLE[n]
    x = float(n)
    inv = 1.0 / x
    inv2 = inv * inv
    corr = inv / 12.0 - inv * inv2 / 360.0 + inv * inv2 * inv2 / 1260.0 \
        - inv * inv2 * inv2 * inv2 / 1680.0
    return (x + 0.5) * math.log(x) - x + _LN_SQRT_2PI + corr


# ---------------------------------------------------------------------------
# modified Bessel I

def _series_i_real(m, x):
    # ascending series at fixed order; all terms positive, Kahan compensated
    half = 0.5 * x
    if half == 0.0:
        return 1.0 if m == 0 else 0.0
    if m == 0:
        term = 1.0
    elif m <= 170 and abs(m * math.log(half)) < 700.0:
        term = half ** m / math.factorial(m)
    else:
        lt0 = m * math.log(half) - ln_factorial(m)
        if lt0 < -745.0:
            # leading term underflows but later terms may not: log-space start
            return _series_i_scaled_core(m, x)[0] * math.exp(x)
        term = math.exp(lt0)
    s = 0.0
    comp = 0.0
    ratio_num = half * half
    for nu in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        term *= ratio_num / ((nu + 1.0) * (nu + 1.0 + m))
        if term <= _REL_TOL * s and (nu + 1.0) * (nu + 1.0 + m) > ratio_num:
            return s
    raise EvaluationError(
        f"I_{m}({x}) series did not converge in {_MAX_TERMS} terms",
        partial=s, terms=_MAX_TERMS)


def _series_i_scaled_core(m, x):
    """Return (e^{-x} I_m(x), peak index) by summing outward from the largest term."""
    if x == 0.0:
        return (1.0 if m == 0 else 0.0), 0
    half = 0.5 * x
    h2 = half * half
    # peak of t_nu at (nu+1)(nu+m+1) ~ half^2
    nu_star = int(max(0.0, 0.5 * (math.sqrt(m * m + x * x) - m - 2.0)))
    # exact summation of the large logs keeps the common scale to ~1 ulp
    lt = math.fsum([(2 * nu_star + m) * math.log(half),
                    -ln_factorial(nu_star), -ln_factorial(nu_star + m), -x])
    t_star = math.exp(lt)
    s = t_star
    comp = 0.0
    # upward sweep
    term = t_star
    nu = nu_star
    for _ in range(_MAX_TERMS):
        term *= h2 / ((nu + 1.0) * (nu + 1.0 + m))
        nu += 1
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if term <= _REL_TOL * s and (nu + 1.0) * (nu + 1.0 + m) > h2:
            break
    else:
        raise EvaluationError(
            f"scaled I_{m}({x}) upward sweep did not converge",
            partial=s, terms=_MAX_TERMS)
    # downward sweep
    term = t_star
    for nu in range(nu_star, 0, -1):
        term *= (nu * (nu + m)) / h2
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if term <= _REL_TOL * s:
            break
    return s, nu_star


def bessel_i_scaled(m: int, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_m(x), x real >= 0.

    Safe at large x where I_m itself overflows: the series is summed outward
    from its peak term so no intermediate quantity leaves double range.
    """
    m = _order(m)
    if x < 0.0:
        raise DomainError(f"bessel_i_scaled requires x >= 0, got {x}")
    if x <= 690.0:
        # the plain series still fits in double range; two rounded factors
        return _series_i_real(m, x) * math.exp(-x)
    return _series_i_scaled_core(m, x)[0]


def bessel_i(m: int, w):
    """Modified Bessel function I_m(w) of integer order m >= 0.

    Real w: ascending series (scaled form internally once the leading term
    would underflow); negative real w uses I_m(-x) = (-1)^m I_m(x).  Complex
    w: the entire-series route (w/2)^m R_m(w^2/4); accuracy degrades with
    cancellation roughly like e^{|Im w|}, so keep |w| <= 80 for full-precision
    work (documented plumbing bound, enforced only through max_terms).
    """
    m = _order(m)
    if isinstance(w, complex):
        if w.imag == 0.0:
            return complex(bessel_i(m, w.real))
        half = 0.5 * w
        return half ** m * bessel_i_reduced(m, half * half)
    x = float(w)
    if x < 0.0:
        v = bessel_i(m, -x)
        return -v if m % 2 else v
    if x <= 690.0:
        return _series_i_real(m, x)
    return math.inf  # beyond double range; use bessel_i_scaled instead


def bessel_i_reduced(m: int, w):
    """Entire reduced series R_m(w) = sum_nu w^nu / (nu! (nu+m)!).

    Satisfies I_m(2 sqrt(w)) = w^{m/2} R_m(w) on any branch, which makes it
    the single-valued series used by overlap kernels.  Accepts real or complex
    scalar w (ndarray support lives in the quadrature layer).
    """
    m = _order(m)
    wc = complex(w)
    term = complex(math.exp(-ln_factorial(m)))
    s = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    aw = abs(wc)
    for nu in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        term *= wc / ((nu + 1.0) * (nu + 1.0 + m))
        if abs(term) <= _REL_TOL * (abs(s) + 1e-300) \
                and (nu + 1.0) * (nu + 1.0 + m) > aw:
            break
    else:
        raise EvaluationError(
            f"reduced I series (m={m}, |w|={aw:.3g}) did not converge "
            f"in {_MAX_TERMS} terms", partial=s, terms=_MAX_TERMS)
    if isinstance(w, complex):
        return s
    return s.real


# ---------------------------------------------------------------------------
# modified Bessel K

def _k01_small(x):
    """K_0(x), K_1(x) for 0 < x <= 2 via the classical log+harmonic series."""
    half = 0.5 * x
    q = half * half
    lg = math.log(half)
    # K_0 = -(log(x/2) + gamma) I_0 + sum_{k>=1} H_k q^k / (k!)^2
    s0 = 0.0
    c0 = 0.0
    term = 1.0
    hk = 0.0
    i0 = 1.0
    ci = 0.0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * k)
        hk += 1.0 / k
        y = term - ci
        t = i0 + y
        ci = (t - i0) - y
        i0 = t
        piece = term * hk
        y = piece - c0
        t = s0 + y
        c0 = (t - s0) - y
        s0 = t
        if piece <= _REL_TOL * (abs(s0) + 1.0):
            break
    k0 = -(lg + _EULER_GAMMA) * i0 + s0
    # K_1 = 1/x + log(x/2) I_1 - (x/4) sum_k [H_k + H_{k+1} - 2 gamma] q^k/(k!(k+1)!)
    i1 = 0.0
    s1 = 0.0
    c1 = 0.0
    term = 1.0          # q^k / (k! (k+1)!)
    hk = 0.0
    hk1 = 1.0
    i1c = 0.0
    for k in range(_MAX_TERMS):
        y = term - i1c
        t = i1 + y
        i1c = (t - i1) - y
        i1 = t
        piece = term * (hk + hk1 - 2.0 * _EULER_GAMMA)
        y = piece - c1
        t = s1 + y
        c1 = (t - s1) - y
        s1 = t
        term *= q / ((k + 1.0) * (k + 2.0))
        hk += 1.0 / (k + 1.0)
        hk1 += 1.0 / (k + 2.0)
        if term * (hk + hk1 + 2.0) <= _REL_TOL:
            break
    k1 = 1.0 / x + lg * (half * i1) - 0.25 * x * s1
    return k0, k1


def _k01_cf_scaled(x):
    """e^x K_0(x), e^x K_1(x) for x > 2 by the Steed-style continued fraction."""
    maxit = 10000
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25
    qq = cc = a1
    a = -a1
    s = 1.0 + qq * delh
    for i in range(1, maxit):
        a -= 2 * i
        cc = -a * cc / (i + 1.0)
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        qq += cc * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = qq * delh
        s += dels
        if abs(dels / s) <= 1e-17:
            break
    else:
        raise EvaluationError(f"K continued fraction stalled at x={x}", terms=maxit)
    h = a1 * h
    ek0 = math.sqrt(math.pi / (2.0 * x)) / s
    ek1 = ek0 * (x + 0.5 - h) / x
    return ek0, ek1


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


def bessel_k(m: int, x: float) -> float:
    """Modified Bessel function K_m(x) for integer m >= 0 and real x > 0."""
    m = _order(m)
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if x <= 2.0:
        k0, k1 = _k01_small(x)
    else:
        ek0, ek1 = _k01_cf_scaled(x)
        scale = math.exp(-x)
        k0, k1 = ek0 * scale, ek1 * scale
    return _k_upward(m, x, k0, k1)


def bessel_k_scaled(m: int, x: float) -> float:
    """Exponentially scaled e^x K_m(x); safe at large x where K_m underflows."""
    m = _order(m)
    if not x > 0.0:
        raise DomainError(f"bessel_k_scaled requires x > 0, got {x}")
    if x <= 2.0:
        k0, k1 = _k01_small(x)
        scale = math.exp(x)
        k0, k1 = k0 * scale, k1 * scale
    else:
        k0, k1 = _k01_cf_scaled(x)
    return _k_upward(m, x, k0, k1)


# ---------------------------------------------------------------------------
# array kernels: ln I_m(x) and ln K_m(x) elementwise over x > 0
#
# Every element runs its own loop and its value is taken on its own
# convergence test (finished elements ride along unread until half the
# working set is done, then drop out), so the value of an element never
# depends on the array it arrives in.

_ARRAY_REL_TOL = 1e-17
_ARRAY_MAX_TERMS = 100_000


def _positive_array(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise DomainError(f"{name} requires finite x > 0")
    return x


def _i_sweep(s, comp, tau0, live, peak, h2, m, upward):
    """Add the terms of the I_m series above (upward) or below the peak,
    relative to the peak term, into the compensated sums s[live] (in place)
    until each element's last term is below _ARRAY_REL_TOL of its sum or is
    the nu = 0 term; a lane that ends on the nu = 0 term stores that term,
    t_0 / t_peak, in tau0."""
    if live.size == 0:
        return
    term = np.ones(live.size)
    acc, cc, hh, nu = s[live], comp[live], h2[live], peak[live]
    active = np.ones(live.size, dtype=bool)
    for _ in range(_ARRAY_MAX_TERMS):
        if upward:
            nu = nu + 1.0
            term = term * (hh / (nu * (nu + m)))
        else:
            term = term * (nu * (nu + m) / hh)
            nu = nu - 1.0
        y = term - cc
        t = acc + y
        cc = (t - acc) - y
        acc = t
        done = active & ~((term > _ARRAY_REL_TOL * t) & (nu > 0.0))
        if done.any():
            s[live[done]] = acc[done]
            comp[live[done]] = cc[done]
            zero = done & (nu == 0.0)
            tau0[live[zero]] = term[zero]
            active &= ~done
            n_active = np.count_nonzero(active)
            if n_active == 0:
                return
            # finished lanes keep running, unread, until half have finished
            if 2 * n_active <= live.size:
                live, term, acc, cc, hh, nu, active = (
                    v[active] for v in (live, term, acc, cc, hh, nu, active))
    raise EvaluationError(
        f"I_{m} series did not converge in {_ARRAY_MAX_TERMS} terms")


def _stirling_tail(n):
    # ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)); below 1e-19 absolute error
    # for n >= 16, where it is used
    inv = 1.0 / n
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 * (
            1.0 / 1188.0 - inv2 * (691.0 / 360360.0 - inv2 / 156.0))))))


def _ln_bessel_i_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^{-x} I_m(x)) elementwise over a flat array of x > 0, to a few
    ulps of max(1, |result|).

    The series terms t_nu = (x/2)^(2 nu + m) / (nu! (nu+m)!) are summed
    outward from t_peak, one below the largest, relative to t_peak.  The
    scale ln t_peak - x is formed without cancelling large logs: from the
    nu = 0 term h^m / m! and the ratio t_0 / t_peak the downward sweep ends
    on when it reaches nu = 0 (always so for peak <= 15), and otherwise from
    Stirling's series in differences that stay O(m + ln x).
    """
    h = 0.5 * x
    h2 = h * h
    # the term ratio h^2 / ((nu+1)(nu+m+1)) crosses 1 between peak and peak+1
    peak = np.floor(np.maximum(0.0, 0.5 * (np.hypot(m, x) - m - 2.0)))
    s = np.ones_like(x)
    comp = np.zeros_like(x)
    tau0 = np.where(peak == 0.0, 1.0, 0.0)
    everyone = np.arange(x.size)
    _i_sweep(s, comp, tau0, everyone, peak, h2, m, upward=True)
    _i_sweep(s, comp, tau0, everyone[peak > 0.0], peak, h2, m, upward=False)
    out = np.empty_like(x)
    near = tau0 > 0.0
    # e^{-x} enters before the log, so x itself never joins the sum; past
    # x = 700, where e^{-x} would leave double range, only the excess does
    x_near = x[near]
    x_in = np.minimum(x_near, 700.0)
    out[near] = m * np.log(h[near]) - ln_factorial(m) \
        + np.log(s[near] / tau0[near] * np.exp(-x_in)) - (x_near - x_in)
    far = ~near
    nu, h_far = peak[far], h[far]
    num = nu + m
    out[far] = nu * np.log1p((h_far - nu) / nu) \
        + num * np.log1p((h_far - num) / num) \
        + ((2.0 * nu + m) - x[far]) - 0.5 * np.log(nu * num) \
        - 2.0 * _LN_SQRT_2PI - _stirling_tail(nu) - _stirling_tail(num) \
        + np.log(s[far])
    return out


def ln_bessel_i(m: int, x) -> np.ndarray:
    """ln I_m(x) elementwise over an array of x > 0.

    The ascending series is summed in log space outward from its peak term,
    so nothing overflows or underflows at any x or m; every element stops on
    its own convergence test.  Absolute error is a few ulps of
    max(1, |ln I_m(x)|).
    """
    m = _order(m)
    x = _positive_array(x, "ln_bessel_i")
    flat = x.ravel()
    return (_ln_bessel_i_scaled(m, flat) + flat).reshape(x.shape)


def _kahan_add(acc, comp, live, piece):
    # compensated acc[live] += piece, in place
    y = piece - comp[live]
    t = acc[live] + y
    comp[live] = (t - acc[live]) - y
    acc[live] = t


def _k01_small_array(x):
    """K_0(x), K_1(x) elementwise for 0 < x <= 2: the series of _k01_small."""
    half = 0.5 * x
    q = half * half
    lg = np.log(half)
    n = x.size
    # K_0 = -(log(x/2) + gamma) I_0 + sum_{k>=1} H_k q^k / (k!)^2
    i0, ci, s0, c0 = np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)
    live, term, hk = np.arange(n), np.ones(n), np.zeros(n)
    for k in range(1, _ARRAY_MAX_TERMS):
        if live.size == 0:
            break
        term = term * q[live] / (k * k)
        hk = hk + 1.0 / k
        _kahan_add(i0, ci, live, term)
        _kahan_add(s0, c0, live, term * hk)
        going = term * hk > _ARRAY_REL_TOL * (np.abs(s0[live]) + 1.0)
        live, term, hk = live[going], term[going], hk[going]
    k0 = -(lg + _EULER_GAMMA) * i0 + s0
    # K_1 = 1/x + log(x/2) I_1 - (x/4) sum_k [H_k + H_{k+1} - 2 gamma] q^k/(k!(k+1)!)
    i1, ci, s1, c1 = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    live, term, hk, hk1 = np.arange(n), np.ones(n), np.zeros(n), np.ones(n)
    for k in range(_ARRAY_MAX_TERMS):
        if live.size == 0:
            break
        _kahan_add(i1, ci, live, term)
        _kahan_add(s1, c1, live, term * (hk + hk1 - 2.0 * _EULER_GAMMA))
        term = term * q[live] / ((k + 1.0) * (k + 2.0))
        hk = hk + 1.0 / (k + 1.0)
        hk1 = hk1 + 1.0 / (k + 2.0)
        going = term * (hk + hk1 + 2.0) > _ARRAY_REL_TOL
        live, term, hk, hk1 = live[going], term[going], hk[going], hk1[going]
    k1 = 1.0 / x + lg * (half * i1) - 0.25 * x * s1
    return k0, k1


def _k01_cf_scaled_array(x):
    """e^x K_0(x), e^x K_1(x) elementwise for x > 2: the continued fraction
    of _k01_cf_scaled."""
    n = x.size
    if n == 0:
        return x.copy(), x.copy()
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1, q2 = np.zeros(n), np.ones(n)
    a1 = 0.25
    qq, cc, a = np.full(n, a1), a1, -a1
    s = 1.0 + qq * delh
    live = np.arange(n)
    for i in range(1, _ARRAY_MAX_TERMS):
        a -= 2 * i
        cc = -a * cc / (i + 1.0)
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        qq = qq + cc * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h[live] += delh
        dels = qq * delh
        s[live] += dels
        going = np.abs(dels / s[live]) > _ARRAY_REL_TOL
        if not going.all():
            live = live[going]
            if live.size == 0:
                break
            b, d, delh, q1, q2, qq = (v[going] for v in (b, d, delh, q1, q2, qq))
    else:
        raise EvaluationError("K continued fraction stalled", terms=_ARRAY_MAX_TERMS)
    ek0 = np.sqrt(math.pi / (2.0 * x)) / s
    ek1 = ek0 * (x + 0.5 - a1 * h) / x
    return ek0, ek1


def _ln_bessel_k_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """ln(e^x K_m(x)) elementwise over a flat array of x > 0: K_0 and K_1
    from the small-argument series (x <= 2) or the scaled continued fraction
    (x > 2), as in bessel_k, then the order raised by the ratio recurrence
    K_{j+1}/K_j = 2j/x + K_{j-1}/K_j, whose logs are summed."""
    ln_k = np.empty_like(x)
    ratio = np.empty_like(x)
    small = x <= 2.0
    k0, k1 = _k01_small_array(x[small])
    ln_k[small] = np.log(k0) + x[small]
    ratio[small] = k1 / k0
    big = ~small
    ek0, ek1 = _k01_cf_scaled_array(x[big])
    ln_k[big] = np.log(ek0)
    ratio[big] = ek1 / ek0
    two_over_x = 2.0 / x
    for j in range(m):
        if j:
            ratio = j * two_over_x + 1.0 / ratio
        ln_k = ln_k + np.log(ratio)
    return ln_k


def ln_bessel_k(m: int, x) -> np.ndarray:
    """ln K_m(x) elementwise over an array of x > 0.

    K_0 and K_1 come from the small-argument series or the continued
    fraction, and the order is raised through the ratios K_{j+1}/K_j, so
    K_m never overflows or underflows; every element stops on its own
    convergence test.  Absolute error is a few ulps of max(1, |ln K_m(x)|).
    """
    m = _order(m)
    x = _positive_array(x, "ln_bessel_k")
    flat = x.ravel()
    return (_ln_bessel_k_scaled(m, flat) - flat).reshape(x.shape)


# ---------------------------------------------------------------------------
# hypergeometric and moment series

def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) by its ascending series, |x| < 1.

    c must not be a non-positive integer.  Terminating (polynomial) cases are
    handled naturally when a or b is a non-positive integer.
    """
    if c <= 0.0 and c == int(c):
        raise DomainError(f"2F1 undefined for non-positive integer c = {c}")
    if not abs(x) < 1.0:
        raise DomainError(f"2F1 series requires |x| < 1, got x = {x}")
    s = 0.0
    comp = 0.0
    term = 1.0
    for k in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        if term == 0.0:
            return s
        if abs(term) <= _REL_TOL * (abs(s) + 1e-300) \
                and k + 1 > max(abs(a), abs(b)) * abs(x) / (1.0 - abs(x)):
            return s
    raise EvaluationError(
        f"2F1({a},{b};{c};{x}) did not converge in {_MAX_TERMS} terms",
        partial=s, terms=_MAX_TERMS)


def bessel_power_sum(power: int, order: int, x: float) -> float:
    """Weighted series sum_nu nu^power x^(2 nu) / (nu! (nu+order)!).

    The independent brute-force oracle behind every closed-form photon-number
    and su(1,1) expectation value: power 0 gives x^{-order} I_order(2x), and
    powers 1 and 2 assemble means and second moments.
    """
    power, order = _order(power, "power"), _order(order)
    if x < 0.0:
        raise DomainError(f"bessel_power_sum requires x >= 0, got {x}")
    x2 = x * x
    term = math.exp(-ln_factorial(order))
    s = 0.0
    comp = 0.0
    for nu in range(_MAX_TERMS):
        piece = term * float(nu) ** power if power else term
        y = piece - comp
        t = s + y
        comp = (t - s) - y
        s = t
        term *= x2 / ((nu + 1.0) * (nu + 1.0 + order))
        if nu > 0 and piece <= _REL_TOL * s \
                and (nu + 1.0) * (nu + 1.0 + order) > x2:
            return s
    raise EvaluationError(
        f"bessel_power_sum({power},{order},{x}) did not converge",
        partial=s, terms=_MAX_TERMS)
