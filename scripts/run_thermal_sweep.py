#!/usr/bin/env python3
"""Sweep the thermal observables over temperature and write a CSV table.

The sweep axis is the dimensionless product beta * gap (gap = level
spacing of the slow mode), converted to beta through the configured
frequencies, so the same sweep range is meaningful for any field strength:

    python3 scripts/run_thermal_sweep.py --range 0.25:6:24 --sectors 0,1,4
    python3 scripts/run_thermal_sweep.py --omega-c 4 --out sweep.csv
"""

import argparse
import sys

from landau_bgcs.fock import PhysicalParams
from landau_bgcs.thermo import ThermalSpec, thermal_summary

COLUMNS = ("beta_gap", "m", "Z", "N_mean", "N2_mean", "g",
           "W_quad", "W_approx", "Q2")


def parse_range(text: str):
    start, stop, count = text.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count < 1 or stop < start or start <= 0:
        raise SystemExit(f"bad sweep range {text!r}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--range", default="0.5:5:10",
                    help="beta*gap sweep as start:stop:count")
    ap.add_argument("--sectors", default="0,2",
                    help="comma-separated angular momentum sectors")
    ap.add_argument("--omega0", type=float, default=1.0)
    ap.add_argument("--omega-c", type=float, default=1.0)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    params = PhysicalParams(omega0=args.omega0, omega_c=args.omega_c)
    sectors = [int(s) for s in args.sectors.split(",")]
    lines = [",".join(COLUMNS)]
    for beta_gap in parse_range(args.range):
        beta = beta_gap / params.epsilon_gap
        for m in sectors:
            ts = ThermalSpec(params, beta=beta, m=m)
            row = thermal_summary(ts)
            lines.append(",".join([f"{beta_gap:.10g}", str(m)] + [
                f"{row[k]:.10g}" for k in COLUMNS[2:]]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
