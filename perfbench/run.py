"""Run one workload of the landau-bgcs benchmark and print its metrics.

    python3 perfbench/run.py --workload states --seed 1 --seconds 20 --trace 0

From the root of a checkout: the library is imported from ./src.  Load is a
closed loop on one thread: the next operation starts when the previous one
ends, and BLAS runs single-threaded.  A run repeats whole rounds of the same
seeded operations, so the share of failed operations is the same in every
run.

--trace 0 prints the end-to-end metrics.  The timed phase is split over
WORKERS fresh processes, one after another, each set up from scratch and
running whole rounds for --seconds / WORKERS; process-to-process variation
(memory layout, hash seeds) then averages out instead of moving a whole run.
--trace 1 runs in this process: it alternates untraced and traced rounds,
then runs one fixed probe op of every kind, and prints the per-layer
metrics (see README.md) with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (worst residual per check, wall-clock metrics, spans) go to
perfbench/out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up is timed from here, before any import

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKERS = 3                # processes that share the timed phase
SETUP_SAMPLES = 5          # the workers' set-ups plus set-up-only processes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("states", "thermal", "quadrature"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("run", "worker", "setup"), default="run",
                   help="internal: a timed worker, or a set-up-only process")
    return p.parse_args(argv)


def require_library() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "landau_bgcs", "__init__.py")):
        sys.exit(f"perfbench: no library source at {os.path.join(ROOT, 'src')}")


def import_library():
    require_library()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing
    modules = tracing.load_modules()
    import workloads
    return tracing, workloads, modules


def setup(args):
    tracing, workloads, modules = import_library()
    tracer = tracing.Tracer() if args.trace else None
    ctx = workloads.Context(tracing.library(modules, tracer), tracer)
    wl = workloads.Workload(args.workload, args.seed, ctx)
    if tracer is not None:
        tracer.kind = wl.warmup[0]
    wl.warmup[1](ctx)
    return tracing, workloads, modules, tracer, ctx, wl, time.perf_counter() - T_START


class HostSpeed:
    """How slow the shared host is right now, from a fixed reference kernel.

    The host's speed drifts by up to 1.7x over tens of seconds (other
    tenants), which moves every wall-clock time alike.  A short kernel of
    interpreter work and numpy elementwise work is timed between ops and
    between the library calls inside longer ops (ctx.checkpoint), at most
    every INTERVAL seconds.  Each stretch of op time is divided by the
    kernel's slowdown around it against REFERENCE_S, the kernel's time on a
    quiet host.  Library changes do not touch the kernel, so they still
    show in full.
    """

    INTERVAL = 0.2
    REFERENCE_S = 1.25e-3

    def __init__(self):
        import numpy as np
        self._exp = np.exp
        self._arg = 1j * np.linspace(0.0, 1.0, 50_000)
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.sample()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        self._exp(self._arg)
        return time.perf_counter() - t0

    def sample(self) -> None:
        best = min(self._kernel() for _ in range(3))
        self.kernel_s.append(best)
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= self.INTERVAL:
            self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel slowdown from the last sample before t0 through
        the first sample after t1."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1)
        return statistics.median(self.kernel_s[lo:hi + 1]) / self.REFERENCE_S


class Tally:
    """Outcome of the ops run in one mode (untraced or traced)."""

    def __init__(self, host: HostSpeed):
        self.host = host
        # op index -> one tuple of (start, end) stretches per round; host
        # samples taken at checkpoints fall between the stretches
        self.spans: dict[int, list[tuple[tuple[float, float], ...]]] = {}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.edge_failures: dict[str, str] = {}
        self._stretches: list[tuple[float, float]] = []
        self._mark = 0.0

    def _checkpoint(self) -> None:
        now = time.perf_counter()
        self._stretches.append((self._mark, now))
        self.host.maybe_sample()
        self._mark = time.perf_counter()

    def run_round(self, ctx, ops, tracer=None) -> None:
        host = self.host
        ctx.checkpoint = self._checkpoint
        for index, (kind, fn) in enumerate(ops):
            if tracer is not None:
                tracer.kind = kind
            host.maybe_sample()
            self._stretches = []
            self._mark = time.perf_counter()
            try:
                fn(ctx)
                ok = True
            except Exception as exc:  # every failure is counted, never fatal
                ok = False
                msg = f"{kind}[{index}]: {type(exc).__name__}: {exc}"
                if kind == "edge":
                    self.edge_failures.setdefault(str(index), msg)
                elif len(self.errors) < 20:
                    self.errors.append(msg + "\n" + traceback.format_exc(limit=3))
            self._stretches.append((self._mark, time.perf_counter()))
            if self._stretches[-1][1] - self._stretches[0][0] >= host.INTERVAL:
                host.sample()
            self.attempted += 1
            if ok:
                self.spans.setdefault(index, []).append(tuple(self._stretches))
            else:
                self.failed += 1
        self.rounds += 1
        del ctx.checkpoint          # back to Context's no-op

    def per_round_times(self, normalized: bool = True) -> dict[int, list[float]]:
        """Each successful op's time in every round, in seconds of a quiet
        host unless normalized is False."""
        slow = self.host.slowdown if normalized else (lambda t0, t1: 1.0)
        return {index: [sum((t1 - t0) / slow(t0, t1) for t0, t1 in op) for op in per_round]
                for index, per_round in self.spans.items()}

    @property
    def ops_per_s(self) -> float:
        """Successful ops of a round over the round's time, op by op medians."""
        times = [statistics.median(v) for v in self.per_round_times().values()]
        return len(times) / sum(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


def child(args, role: str, seconds: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--role", role]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=seconds + 150.0, check=True)
    sys.stderr.write(res.stderr)
    return json.loads(res.stdout.strip().splitlines()[-1])


def worker(args) -> int:
    """Set up, run whole rounds for --seconds, print per-op times as JSON."""
    _, _, _, _, ctx, wl, setup_raw = setup(args)
    host = HostSpeed()
    out = {"setup_s": setup_raw / host.slowdown(host.times[0], host.times[0]),
           "setup_raw_s": setup_raw}
    if args.role == "worker":
        tally = Tally(host)
        t0 = time.perf_counter()
        while True:
            tally.run_round(ctx, wl.ops)
            if time.perf_counter() - t0 >= args.seconds:
                break
        host.sample()
        import numpy
        import resource
        out.update(
            times=tally.per_round_times(), raw_times=tally.per_round_times(normalized=False),
            attempted=tally.attempted, failed=tally.failed, rounds=tally.rounds,
            errors=tally.errors, edge_failures=tally.edge_failures,
            residuals=ctx.residuals,
            rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            host_kernel_ms=[1e3 * statistics.median(host.kernel_s),
                            1e3 * min(host.kernel_s), 1e3 * max(host.kernel_s)],
            versions=[platform.python_version(), numpy.__version__])
    print(json.dumps(out))
    return 0


POOLED_MIN = 1000   # samples needed for a p99 with ten samples beyond it


def end_to_end(per_op: list[list[float]], setups: list[float], rss: list[float]) -> dict:
    """per_op holds every successful op's times over all rounds.  ops_per_s
    uses each op's median time, p50 the median of all samples.  p99 is taken
    over all samples when there are at least POOLED_MIN (states); otherwise
    (a few long ops per round) it is the slowest op's median time."""
    times = [statistics.median(v) for v in per_op]
    pooled = [t for v in per_op for t in v]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "op/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(pooled), "unit": "ms"},
        "op_p99_ms": {"value": 1e3 * (percentile(pooled, 99.0) if len(pooled) >= POOLED_MIN
                                      else max(times)), "unit": "ms"},
        "peak_rss_mib": {"value": max(rss), "unit": "MiB"},
    }


def coordinate(args) -> int:
    """Untraced run: WORKERS timed processes plus set-up-only processes."""
    require_library()
    workers = [child(args, "worker", args.seconds / WORKERS) for _ in range(WORKERS)]
    extra = [child(args, "setup", 0.0) for _ in range(SETUP_SAMPLES - WORKERS)]

    def merged(key):
        per_op: dict[str, list[float]] = {}
        for w in workers:
            for index, v in w[key].items():
                per_op.setdefault(index, []).extend(v)
        return list(per_op.values())

    rss = [w["rss_mib"] for w in workers]
    metrics = end_to_end(merged("times"), [c["setup_s"] for c in workers + extra], rss)
    raw = end_to_end(merged("raw_times"), [c["setup_raw_s"] for c in workers + extra], rss)
    errors = [e for w in workers for e in w["errors"]]
    result = {"correct": not errors,
              "attempted": sum(w["attempted"] for w in workers),
              "failed": sum(w["failed"] for w in workers),
              "metrics": metrics}
    residuals: dict[str, list[float]] = {}
    for w in workers:
        for name, (worst, tol) in w["residuals"].items():
            cur = residuals.setdefault(name, [worst, tol])
            cur[0] = max(cur[0], worst)
    write_details(args, {
        "result": result,
        "wall_clock_metrics": raw,
        "host_kernel_ms": {"reference": 1e3 * HostSpeed.REFERENCE_S,
                           "per_worker_median_min_max": [w["host_kernel_ms"] for w in workers]},
        "machine": {"nproc": os.cpu_count(), "python": workers[0]["versions"][0],
                    "numpy": workers[0]["versions"][1], "blas_threads": 1},
        "rounds": [w["rounds"] for w in workers],
        "rss_mib_per_worker": rss,
        "residuals": {k: {"worst": v[0], "tolerance": v[1]} for k, v in sorted(residuals.items())},
        "edge_failures": workers[0]["edge_failures"],
        "errors": errors,
    })
    for err in errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_run(args) -> int:
    """Alternate untraced and traced rounds in this process, then the probe."""
    tracing, workloads, modules, tracer, ctx, wl, _ = setup(args)
    host = HostSpeed()
    plain_lib, traced_lib = tracing.library(modules), ctx.lib
    untraced, traced, probe = Tally(host), Tally(host), Tally(host)
    t0 = time.perf_counter()
    while True:
        ctx.lib, ctx.tracer = plain_lib, None
        untraced.run_round(ctx, wl.ops)
        ctx.lib, ctx.tracer = traced_lib, tracer
        tracer.phase = "round"
        traced.run_round(ctx, wl.ops, tracer)
        tracer.phase = "idle"
        if time.perf_counter() - t0 >= args.seconds:
            break
    tracer.phase = "probe"
    probe.run_round(ctx, workloads.probe_ops(ctx), tracer)
    host.sample()
    metrics = tracing.per_layer(tracer, traced.rounds, untraced.ops_per_s, traced.ops_per_s)
    runs = (untraced, traced, probe)
    errors = [e for t in runs for e in t.errors]
    result = {"correct": not errors,
              "attempted": untraced.attempted + traced.attempted,
              "failed": untraced.failed + traced.failed,
              "metrics": metrics}
    write_details(args, {
        "result": result,
        "rounds": [t.rounds for t in runs],
        "residuals": {k: {"worst": v[0], "tolerance": v[1]}
                      for k, v in sorted(ctx.residuals.items())},
        "edge_failures": untraced.edge_failures,
        "errors": errors,
    }, tracer.spans)
    for err in errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps(result))
    return 0


def write_details(args, detail: dict, spans=None) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "run":
        return worker(args)
    if args.trace:
        return traced_run(args)
    return coordinate(args)


if __name__ == "__main__":
    sys.exit(main())
