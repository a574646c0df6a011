"""Brute-force series oracles that only the tests read."""

from __future__ import annotations

import math

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
