"""Brute-force series oracles, the pointwise symbol value and the recursive
JSON writer that only the tests read."""

from __future__ import annotations

import math

import numpy as np

from landau_bgcs.specfun import (_MAX_TERMS, _REL_TOL, DomainError, EvaluationError,
                                 _order, ln_factorial)


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


def symbol_value(sym, z):
    """Pointwise value of a quantize.SymbolSpec on a complex scalar or array:
    the sum of its terms, within 4 eps times the sum of their moduli, so q_sq
    cancels where |Re z| << |Im z| and p_sq where |Im z| << |Re z|."""
    z = np.asarray(z, dtype=np.complex128)
    zc = np.conj(z)
    acc = np.zeros_like(z)
    for i, j, c in sym.terms:
        acc = acc + c * z ** i * zc ** j
    return acc


def jsonify_reference(obj, indent: int = 0) -> str:
    """The CLI's recursive JSON writer before its exact-type dispatch, kept
    unchanged as the reference that cli._jsonify must print alike."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if isinstance(obj, int):
            return str(obj)
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return f"{obj:.17g}"
    if isinstance(obj, complex):
        return jsonify_reference([obj.real, obj.imag], indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            f"{pad}  {jsonify_reference(v, indent + 1)}" for v in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {jsonify_reference(v, indent + 1)}' for k, v in obj.items())
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
