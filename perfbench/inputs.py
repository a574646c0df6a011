"""Seeded inputs of the three workloads.

Pure standard library (``random.Random``), so the same seed gives the same
inputs on every numpy version, and the reference generator can rebuild the
exact points it needs without importing the library under test.
"""

from __future__ import annotations

import math
import random

# --------------------------------------------------------------- states

RHO_MIN, RHO_MAX = 1e-3, 50.0
LABELS_PER_ROUND = 512
CLI_EVERY = 32                      # a CLI call goes before every k-th label op
REFERENCE_SEED = 1                  # seed of the mpmath-referenced label table
REFERENCE_LABELS = 64
REFERENCE_PER_ROUND = 16

# Edge slice: inputs on which the library faults today (ROADMAP item 4, plus
# bgcs_state at m = 170).  They do not depend on the seed and run once per
# round; they count as failed until the faults are mended.
EDGE_SLICE = (
    ("bgcs_state", 200, 5.0),
    ("bgcs_state", 170, 5.0),
    ("mandel_q", 0, 1e-300),
    ("mandel_q", 200, 5.0),
    ("cli_stats", 0, 1e-300),
    ("bessel_k", 300, 0.01),
)

# Fixed scalar-kernel batch: orders 0..8 at 12 log-spaced arguments in
# [0.01, 50].  Not seeded, so the per-call kernel time is comparable.
KERNEL_ORDERS = tuple(range(9))
KERNEL_ARGS = tuple(0.01 * (5000.0 ** (k / 11.0)) for k in range(12))


def labels(rng: random.Random, n: int) -> list[tuple[float, float, int]]:
    """n labels (rho, phi, m): rho log-uniform in [RHO_MIN, RHO_MAX], phi
    uniform, m uniform over 0-8 for 90% and over 9-50 for 10% of them.

    rho and m are stratified (one draw per equal-probability stratum, then
    shuffled), so every seed gives the same mix of cheap and costly labels
    and the round cost does not depend on the seed.
    """
    lo, hi = math.log(RHO_MIN), math.log(RHO_MAX)
    rhos = [math.exp(lo + (hi - lo) * (k + rng.random()) / n) for k in range(n)]
    n_high = n // 10
    ms = [k % 9 for k in range(n - n_high)]
    ms += [9 + int(42 * (k + rng.random()) / n_high) for k in range(n_high)]
    rng.shuffle(rhos)
    rng.shuffle(ms)
    return [(rho, rng.uniform(0.0, 2.0 * math.pi), m) for rho, m in zip(rhos, ms)]


def reference_labels() -> list[tuple[float, float, int]]:
    """Fixed table, sorted by rho, that make_references.py evaluates."""
    return sorted(labels(random.Random(REFERENCE_SEED), REFERENCE_LABELS))


def states_round(seed: int) -> dict:
    """One round: labels (one per rho quartile group from the reference
    table) and the CLI calls; the edge slice is fixed (EDGE_SLICE)."""
    rng = random.Random(seed)
    out = labels(rng, LABELS_PER_ROUND)
    refs = reference_labels()
    group = REFERENCE_LABELS // REFERENCE_PER_ROUND
    picked = [g * group + rng.randrange(group) for g in range(REFERENCE_PER_ROUND)]
    slots = rng.sample(range(LABELS_PER_ROUND), REFERENCE_PER_ROUND)
    ref_index = {}
    for slot, k in zip(slots, picked):
        out[slot] = refs[k]
        ref_index[slot] = k
    kinds = ("stats", "overlap", "quantize", "commutators",
             "verify_specfun", "verify_commutators")
    depth = {"quantize": 16, "commutators": 8}
    cli = []
    for j in range(LABELS_PER_ROUND // CLI_EVERY):
        i = j * CLI_EVERY
        rho, phi, m = out[i]
        rho2, phi2, _ = out[(i + 1) % LABELS_PER_ROUND]
        kind = kinds[j % len(kinds)]
        cli.append({"kind": kind, "slot": i, "m": m,
                    "z": (rho * math.cos(phi), rho * math.sin(phi)),
                    "z2": (rho2 * math.cos(phi2), rho2 * math.sin(phi2)),
                    "symbol": rng.choice(SYMBOLS),
                    "depth": depth.get(kind)})
    return {"labels": out, "ref_index": ref_index, "cli": cli}


# --------------------------------------------------------------- thermal

# beta*gap log-spaced over [0.1, 6]: the same six temperatures every round,
# so the round cost does not depend on the seed; the seed picks the sector,
# the population level and the order.
BETA_GAPS = tuple(round(0.1 * 60.0 ** (k / 5.0), 12) for k in range(6))
THERMAL_SECTORS = (0, 1, 2, 4)


def thermal_round(seed: int) -> dict:
    rng = random.Random(seed)
    sectors = list(THERMAL_SECTORS) + [rng.choice(THERMAL_SECTORS)
                                       for _ in range(len(BETA_GAPS) - 4)]
    rng.shuffle(sectors)
    points = [{"beta_gap": bg, "m": m, "nu": rng.randint(0, 2)}
              for bg, m in zip(BETA_GAPS, sectors)]
    rng.shuffle(points)
    cold = BETA_GAPS[-2:]
    cli = [
        {"kind": "thermal", "beta_gap": rng.choice(cold),
         "m": rng.choice(THERMAL_SECTORS)},
        {"kind": "wehrl", "beta_gap": rng.choice(cold),
         "m": rng.choice(THERMAL_SECTORS)},
        {"kind": "sweep", "beta_gap": rng.uniform(2.0, 3.0),
         "m_list": tuple(sorted(rng.sample(THERMAL_SECTORS, 2)))},
        {"kind": "verify_thermo"},
    ]
    return {"points": points, "cli": cli}


# ------------------------------------------------------------ quadrature

SYMBOLS = ("z", "z_bar", "abs_z_sq", "z_sq", "z_bar_sq", "q", "p", "q_sq", "p_sq")
QUADRATURE_DEPTH = 8
# the sector multiset is fixed so the round cost does not depend on the seed
QUADRATURE_SECTORS = (0, 2)
IDENTITY_N_CHECK = 4


# Every round holds p_sq, whose evaluation makes the largest temporaries, so
# the peak memory does not depend on the seed.  The seed picks the other
# symbol among those whose evaluation costs the same (281-297 ms per depth-8
# operator, against 23 ms for z and z_bar and 211-346 ms for the rest), so
# the round cost does not depend on it either.
PEAK_SYMBOL = "p_sq"
EVEN_COST_SYMBOLS = ("q", "p", "q_sq")


def quadrature_round(seed: int) -> dict:
    rng = random.Random(seed)
    symbols = [PEAK_SYMBOL, rng.choice(EVEN_COST_SYMBOLS)]
    rng.shuffle(symbols)
    tasks = []
    for m, sym in zip(QUADRATURE_SECTORS, symbols):
        # one small and one large modulus: the kernel check's series length
        # follows each modulus, so its cost stays the same for every seed
        r1, r2 = rng.uniform(0.05, 1.0), rng.uniform(2.0, 3.0)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        tasks.append({"m": m, "symbol": sym,
                      "pair": ((r1, p1), (r2, p2)),
                      "moment_n": m + rng.randint(0, 8)})
    rng.shuffle(tasks)
    cli = [{"kind": "identity", "m": rng.choice((0, 1, 2, 3))}]
    return {"tasks": tasks, "cli": cli}
