"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q          # about one minute

A short run of each workload, the checkers rejecting perturbed results, and
the edge slice of ``states`` being the only thing that fails.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int = 0) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    out = bench(workload)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        got = out["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0.0


def test_traced_run_reports_every_per_layer_metric():
    out = bench("states", trace=1)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        got = out["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])
        if spec["name"] != "trace.overhead_pct":
            assert got["value"] > 0.0, spec["name"]


@pytest.fixture(scope="module")
def ctx():
    return W.Context(tracing.library(tracing.load_modules()))


def test_edge_slice_is_all_that_fails(ctx):
    wl = W.Workload("states", 3, ctx)
    tally = run.Tally(run.HostSpeed())
    tally.run_round(ctx, wl.ops)
    edge = [i for i, (kind, _) in enumerate(wl.ops) if kind == "edge"]
    assert len(edge) == len(inputs.EDGE_SLICE)
    assert tally.errors == []
    assert tally.failed == len(edge)
    assert sorted(map(int, tally.edge_failures)) == edge


def _expect_rejected(fn):
    with pytest.raises(W.CheckFailed):
        fn()


def test_operator_entry_off_by_1e5_is_rejected(ctx):
    good = W.closed_operator("q_sq", 2, 8)
    W.verify_operator(ctx, good, "q_sq", 2, 8)
    bad = good.copy()
    bad[1, 3] += 1e-5
    _expect_rejected(lambda: W.verify_operator(ctx, bad, "q_sq", 2, 8))


def test_wehrl_off_by_one_percent_is_rejected(ctx):
    bg, m = inputs.BETA_GAPS[2], 1
    ref = ctx.refs["wehrl_at"][(bg, m)]
    W.verify_wehrl(ctx, ref, bg, m)
    _expect_rejected(lambda: W.verify_wehrl(ctx, 1.01 * ref, bg, m))


def _state_inputs(ctx):
    lib = ctx.lib
    z = lib.bgcs.CoherentLabel.from_polar(2.0, 0.5)
    st = lib.bgcs.bgcs_state(z, lib.fock.SubspaceSpec(1))
    ladder = W.ladder_entries(1, st.depth)
    dq2, dp2 = lib.quantize.dispersions_matrix_route(z, 1)
    stats = {"mean_n": lib.bgcs.mean_n(z, 1), "mean_n_sq": lib.bgcs.mean_n_sq(z, 1),
             "g2": lib.bgcs.g2(z, 1), "mandel_q": lib.bgcs.mandel_q(z, 1),
             "overlap": lib.bgcs.overlap(z, z, 1), "dq2": dq2, "dp2": dp2}
    return st.amplitudes, z.z, ladder, stats


def test_norm_above_one_is_rejected(ctx):
    amps, z, ladder, stats = _state_inputs(ctx)
    W.verify_state(ctx, amps, z, 1, ladder, stats)
    scaled = amps * math.sqrt(1.0 + 1e-9)
    _expect_rejected(lambda: W.verify_state(ctx, scaled, z, 1, ladder, stats))


def test_positive_mandel_q_is_rejected(ctx):
    amps, z, ladder, stats = _state_inputs(ctx)
    _expect_rejected(lambda: W.verify_state(ctx, amps, z, 1, ladder,
                                            dict(stats, mandel_q=1e-3)))


def test_moment_integrand_matches_gamma_product(ctx):
    grid = W.quadrature_grid(ctx.lib, 2)
    got = ctx.lib.measure.integrate(W.moment_integrand(5, 2), 2, grid, vectorized=True)
    assert abs(got.real / W.moment_target(5, 2) - 1.0) < 1e-10
    mp = pytest.importorskip("mpmath")
    r = np.array([1e-3, 0.5, 3.0, 40.0, 100.0])
    want = [float(mp.log(mp.besseli(2, 2 * mp.mpf(x)))) for x in r]
    assert np.allclose(W.ln_bessel_i2(2, r), want, rtol=1e-13, atol=0.0)
