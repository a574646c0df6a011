"""Rebuild every external reference of the benchmark from scratch with mpmath.

    python3 perfbench/make_references.py            # writes perfbench/references.json

Nothing here imports the library under test: the values come from mpmath's
own Bessel functions and adaptive quadrature at 25 significant digits.

* ``states``: rho I_{m+1}(2 rho) / I_m(2 rho) (the mean radial number) for the
  fixed reference-label table that every states round samples from;
* ``wehrl``: -int h ln h dmu as a 1-D radial integral at every thermal point
  (beta*gap, m), with h the thermal Husimi function
  2 sinh(a) e^{a(m-1)} I_m(2 r e^{-a}) / I_m(2 r), a = beta*gap/2, and
  dmu = 4 r I_m(2r) K_m(2r) dr after the angular integral;
* ``floor``: the pure-state Wehrl entropy S_0(m) of the nu = 0 state, whose
  Husimi function is h_0 = r^m / (m! I_m(2r)).

Takes about five minutes on one core; the runs only read the file it writes.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

mp.mp.dps = 25
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def mean_n(rho: float, m: int) -> float:
    r = mp.mpf(rho)
    return float(r * mp.besseli(m + 1, 2 * r) / mp.besseli(m, 2 * r))


def _radial(integrand, scale):
    # breakpoints at multiples of the decay length keep tanh-sinh accurate
    pts = [0] + [scale * k for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64)] + [mp.inf]
    return mp.quad(integrand, pts)


def wehrl(beta_gap: float, m: int) -> float:
    a = mp.mpf(beta_gap) / 2
    c = 2 * mp.sinh(a) * mp.exp(a * (m - 1))
    ea = mp.exp(-a)

    def f(r):
        if r == 0:
            return mp.mpf(0)
        inner = mp.besseli(m, 2 * r * ea)
        h = c * inner / mp.besseli(m, 2 * r)
        return -4 * r * mp.besselk(m, 2 * r) * c * inner * mp.log(h)
    return float(_radial(f, 1 / (2 * (1 - ea))))


def floor(m: int) -> float:
    fact = mp.factorial(m)

    def f(r):
        if r == 0:
            return mp.mpf(0)
        h0 = r ** m / (fact * mp.besseli(m, 2 * r))
        return -4 * r * mp.besselk(m, 2 * r) * r ** m / fact * mp.log(h0)
    return float(_radial(f, mp.mpf(1)))


def main() -> int:
    refs = {
        "mpmath_dps": mp.mp.dps,
        "states": [{"rho": rho, "phi": phi, "m": m, "mean_n": mean_n(rho, m)}
                   for rho, phi, m in inputs.reference_labels()],
        "floor": {str(m): floor(m) for m in inputs.THERMAL_SECTORS},
        "wehrl": [{"beta_gap": bg, "m": m, "value": wehrl(bg, m)}
                  for bg in inputs.BETA_GAPS for m in inputs.THERMAL_SECTORS],
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
