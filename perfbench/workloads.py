"""Operations of the three workloads and the checks on their outputs.

Every operation calls the library through ``ctx.lib`` (see tracing.py), then
hands the plain values to a ``verify_*`` function.  The verify functions
compare against references the benchmark builds itself: ladder entries
sqrt(nu (nu + m)), 1/expm1(beta gap), (1 - y) y^nu, Gamma products from
``math.lgamma``, a numpy log-sum-exp series for ln I_m, and the mpmath values
in references.json.  They take values, not library calls, so the self-tests
can feed them perturbed results.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import inputs
from landau_bgcs import bgcs, fock, quantize, specfun, thermo

TYPED_ERRORS = (specfun.DomainError, specfun.EvaluationError)
PARAMS = fock.PhysicalParams()
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# tolerances, set from what the method promises (not from observed residuals)
TOL = {
    "norm": 1e-12,                 # |<z|z> - 1|
    "mean_n_from_amplitudes": 1e-11,
    "mean_n_vs_mpmath": 1e-11,
    "mandel_q_nonpositive": 0.0,
    "g2_band": 1e-12,
    "overlap_bounded": 1e-12,
    "lowering_eigenrelation": 1e-12,
    "ladder_entries": 1e-15,
    "dispersion_matrix_vs_k3": 1e-10,
    "wronskian": 1e-12,
    "scaled_kernels": 1e-12,
    "reduced_series": 1e-12,
    "closed_operator": 1e-12,
    "quadrature_operator": 1e-6,
    "frame_identity": 1e-6,
    "kernel_idempotence": 1e-6,
    "radial_moment": 1e-8,
    "integrate_moment": 1e-8,
    "husimi_normalization": 1e-6,
    "p_normalization": 1e-6,
    "occupancy_quadrature": 1e-6,
    "occupancy_closed": 1e-12,
    "population": 1e-6,
    "q2_routes": 1e-6,
    "wehrl_vs_mpmath": 1e-9,
    "wehrl_above_floor": 0.0,
    "wehrl_falls_with_beta": 0.0,
    "cli_exit_code": 0.0,
    "cli_json_vs_library": 0.0,
    "cli_byte_identical": 0.0,
}


class CheckFailed(Exception):
    """An output of the library is outside its tolerance."""


class EdgeFault(Exception):
    """An edge-slice input returned a non-finite or invariant-breaking value."""


class Context:
    """What an operation needs: the library namespace, references, the
    tracer (or None), the worst residual per check, and earlier CLI output."""

    def __init__(self, lib, tracer=None, refs=None):
        self.lib = lib
        self.tracer = tracer
        self.refs = load_references() if refs is None else refs
        self.residuals: dict[str, list[float]] = {}
        self.cli_outputs: dict[tuple, str] = {}

    def check(self, name: str, residual: float, tol: float | None = None) -> None:
        tol = TOL[name] if tol is None else tol
        residual = float(residual)
        worst = self.residuals.setdefault(name, [0.0, tol])
        if not residual <= worst[0]:
            worst[0] = residual
        if not residual <= tol:          # NaN fails too
            raise CheckFailed(f"{name}: residual {residual:.3e} > tolerance {tol:.1e}")

    def note(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.note(name, value)

    def checkpoint(self) -> None:
        """Between library calls of a long op: the runner may time its host
        kernel here, outside the op's time."""


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["wehrl_at"] = {(round(e["beta_gap"], 12), e["m"]): e["value"]
                        for e in refs["wehrl"]}
    return refs


# ------------------------------------------------------ own reference math

def ladder_entries(m: int, depth: int) -> np.ndarray:
    """sqrt(nu (nu + m)) for nu = 1..depth: <nu-1| K_- |nu>."""
    nu = np.arange(1, depth + 1, dtype=float)
    return np.sqrt(nu * (nu + m))


def closed_operator(tag: str, m: int, depth: int) -> np.ndarray:
    """Anti-Wick matrix of a named symbol from the ladder entries alone."""
    low = np.diag(ladder_entries(m, depth), 1).astype(complex)
    up = low.T
    nu = np.arange(depth + 1)
    num = np.diag((nu + 1.0) * (nu + 1.0 + m)).astype(complex)
    s2 = math.sqrt(2.0)
    return {
        "z": low, "z_bar": up, "abs_z_sq": num,
        "z_sq": low @ low, "z_bar_sq": up @ up,
        "q": (low + up) / s2, "p": (low - up) / (1j * s2),
        "q_sq": num + 0.5 * (low @ low + up @ up),
        "p_sq": num - 0.5 * (low @ low + up @ up),
    }[tag]


def ln_bessel_i2(m: int, r: np.ndarray) -> np.ndarray:
    """ln I_m(2r) for an array r > 0 by log-sum-exp of the ascending series."""
    r = np.asarray(r, dtype=float)
    terms = int(np.max(r)) + 40 + int(12.0 * math.sqrt(np.max(r) + 1.0))
    k = np.arange(terms)
    lg = np.array([math.lgamma(j + 1.0) + math.lgamma(j + m + 1.0) for j in k])
    t = (2.0 * k + m)[None, :] * np.log(r)[:, None] - lg[None, :]
    top = t.max(axis=1)
    return top + np.log(np.exp(t - top[:, None]).sum(axis=1))


def moment_integrand(n: int, m: int, cut: float = 100.0):
    """f(z) = |z|^(2n-m) / I_m(2|z|): its integral against the order-m measure
    is Gamma(n-m+1) Gamma(n+1).  Beyond |z| = cut the integrand is below
    e^-150 of the result and is set to 0."""
    def f(z):
        r = np.abs(z[:, 0])
        vals = np.zeros_like(r)
        inside = r <= cut
        ri = r[inside]
        vals[inside] = np.exp((2 * n - m) * np.log(ri) - ln_bessel_i2(m, ri))
        return np.broadcast_to(vals[:, None], z.shape).astype(complex)
    return f


def moment_target(n: int, m: int) -> float:
    return math.exp(math.lgamma(n - m + 1.0) + math.lgamma(n + 1.0))


def interior_deviation(a: np.ndarray, b: np.ndarray, margin: int) -> float:
    cut = a.shape[0] - margin
    return float(np.max(np.abs(a[:cut, :cut] - b[:cut, :cut])))


def jsonable(obj):
    """The value the CLI's JSON writer would print, as json.loads reads it."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, complex | np.complexfloating):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, bool | np.bool_):
        return bool(obj)
    if isinstance(obj, int | np.integer):
        return int(obj)
    if isinstance(obj, float | np.floating):
        return float(obj) if math.isfinite(obj) else None
    return obj


# ---------------------------------------------------------------- verifiers

def verify_state(ctx, amps, z: complex, m: int, ladder, stats: dict,
                 ref_mean_n: float | None = None) -> None:
    p = amps.real ** 2 + amps.imag ** 2
    norm = math.fsum(p.tolist())
    ctx.check("norm", abs(norm - 1.0))
    mean_n = stats["mean_n"]
    from_amps = math.fsum((p * np.arange(p.size)).tolist())
    ctx.check("mean_n_from_amplitudes", abs(from_amps - mean_n) / max(mean_n, 1e-300))
    if ref_mean_n is not None:
        ctx.check("mean_n_vs_mpmath", abs(mean_n - ref_mean_n) / ref_mean_n)
    ctx.check("mandel_q_nonpositive", max(stats["mandel_q"], 0.0)
              if not math.isnan(stats["mandel_q"]) else math.nan)
    g2 = stats["g2"]
    lo = (m + 1.0) / (m + 2.0)
    ctx.check("g2_band", max(lo - g2, g2 - 1.0, 0.0) if math.isfinite(g2) else math.nan)
    ctx.check("overlap_bounded", max(abs(stats["overlap"]) - 1.0, 0.0))
    own = ladder_entries(m, amps.size - 1)
    ctx.check("ladder_entries",
              float(np.max(np.abs(ladder - own) / own)) if own.size else 0.0)
    # K_- a = z a on the interior: sqrt(nu (nu + m)) a_nu = z a_{nu-1}
    lhs = own[:-1] * amps[1:-1]
    rhs = z * amps[:-2]
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    ctx.check("lowering_eigenrelation", float(np.max(np.abs(lhs - rhs))) / scale)
    k3 = mean_n + 0.5 * (m + 1)
    ctx.check("dispersion_matrix_vs_k3",
              max(abs(stats["dq2"] - k3), abs(stats["dp2"] - k3)) / k3)


def verify_kernel_batch(ctx, rows) -> None:
    wr = sc = rd = 0.0
    for x, m, i, k, i1, k1, i_s, k_s, i_r in rows:
        wr = max(wr, abs(x * (i * k1 + i1 * k) - 1.0))
        sc = max(sc, abs(i_s * math.exp(x) / i - 1.0), abs(k_s * math.exp(-x) / k - 1.0))
        rd = max(rd, abs(i_r * (0.5 * x) ** m / i - 1.0))
    ctx.check("wronskian", wr)
    ctx.check("scaled_kernels", sc)
    ctx.check("reduced_series", rd)


def verify_operator(ctx, entries, tag: str, m: int, depth: int,
                    name: str = "quadrature_operator", margin: int = 2) -> None:
    """margin: trailing rows and columns left out (truncation corrupts the
    quadrature route's last band; the closed form is exact everywhere)."""
    ctx.check(name, interior_deviation(np.asarray(entries),
                                       closed_operator(tag, m, depth), margin))


def verify_wehrl(ctx, value: float, beta_gap: float, m: int) -> None:
    refs = ctx.refs
    ref = refs["wehrl_at"][(round(beta_gap, 12), m)]
    ctx.check("wehrl_vs_mpmath", abs(value - ref) / ref)
    ctx.check("wehrl_above_floor", max(refs["floor"][str(m)] - value, 0.0))
    k = inputs.BETA_GAPS.index(beta_gap)
    falls = 0.0
    if k > 0:          # hotter neighbour has more entropy
        falls = max(falls, value - refs["wehrl_at"][(inputs.BETA_GAPS[k - 1], m)])
    if k + 1 < len(inputs.BETA_GAPS):
        falls = max(falls, refs["wehrl_at"][(inputs.BETA_GAPS[k + 1], m)] - value)
    ctx.check("wehrl_falls_with_beta", max(falls, 0.0))


def verify_thermal(ctx, beta_gap: float, m: int, nu: int, out: dict) -> None:
    nbar = 1.0 / math.expm1(beta_gap)
    y = math.exp(-beta_gap)
    ctx.check("husimi_normalization", out["husimi_norm"])
    ctx.check("p_normalization", out["p_norm"])
    ctx.check("occupancy_quadrature", abs(out["mean_n_quad"] - nbar) / nbar)
    ctx.check("occupancy_closed", abs(out["summary"]["N_mean"] - nbar) / nbar)
    ctx.check("population", abs(out["population"] - (1.0 - y) * y ** nu))
    q2 = out["q2"]
    ctx.check("q2_routes", max(abs(v - q2.fock_trace) for v in (
        q2.closed_form, q2.p_quadrature, q2.second_component_quadrature))
        / abs(q2.fock_trace))
    ctx.check("integrate_moment", abs(out["moment"].real / moment_target(m, m) - 1.0))
    verify_wehrl(ctx, out["summary"]["W_quad"], beta_gap, m)


# ------------------------------------------------------------------- states

def label_op(ctx, lab, nxt, ref_mean_n=None) -> None:
    lib = ctx.lib
    rho, phi, m = lab
    z = bgcs.CoherentLabel.from_polar(rho, phi)
    z2 = bgcs.CoherentLabel.from_polar(nxt[0], nxt[1])
    state = lib.bgcs.bgcs_state(z, fock.SubspaceSpec(m))
    depth = state.depth
    ctx.note("bgcs.state_depth", depth)
    kminus = lib.fock.ladder_matrix("k_minus", fock.SubspaceSpec(m, depth=max(depth, 8)))
    stats = {
        "mean_n": lib.bgcs.mean_n(z, m),
        "mean_n_sq": lib.bgcs.mean_n_sq(z, m),
        "g2": lib.bgcs.g2(z, m),
        "mandel_q": lib.bgcs.mandel_q(z, m),
        "overlap": lib.bgcs.overlap(z2, z, m),
    }
    stats["dq2"], stats["dp2"] = lib.quantize.dispersions_matrix_route(z, m)
    ladder = np.diag(kminus.entries, 1).real[:depth]
    verify_state(ctx, state.amplitudes, z.z, m, ladder, stats, ref_mean_n)


def kernel_batch_op(ctx) -> None:
    sf = ctx.lib.specfun
    ctx.note("specfun.batches", 1)
    rows = []
    for m in inputs.KERNEL_ORDERS:
        for x in inputs.KERNEL_ARGS:
            rows.append((x, m, sf.bessel_i(m, x), sf.bessel_k(m, x),
                         sf.bessel_i(m + 1, x), sf.bessel_k(m + 1, x),
                         sf.bessel_i_scaled(m, x), sf.bessel_k_scaled(m, x),
                         sf.bessel_i_reduced(m, 0.25 * x * x)))
    verify_kernel_batch(ctx, rows)


def run_cli(ctx, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.lib.cli.main(argv)
    ctx.checkpoint()
    text = out.getvalue()
    ctx.note("cli.bytes_out", len(text.encode("utf-8")))
    ctx.check("cli_exit_code", abs(code))
    first = ctx.cli_outputs.setdefault(tuple(argv), text)
    ctx.check("cli_byte_identical", 0.0 if first == text else 1.0)
    return json.loads(text)


def check_json(ctx, got, want) -> None:
    ctx.check("cli_json_vs_library", 0.0 if got == jsonable(want) else 1.0)


def _zarg(flag: str, z) -> str:
    return f"{flag}={z[0]!r},{z[1]!r}"


def states_cli_op(ctx, job: dict) -> None:
    lib = ctx.lib
    kind, m = job["kind"], job["m"]
    if kind == "stats":
        got = run_cli(ctx, ["stats", _zarg("--z", job["z"]), "--m", str(m)])
        z = bgcs.CoherentLabel.from_complex(complex(*job["z"]))
        check_json(ctx, {k: got[k] for k in ("mean_n", "mean_n_sq", "g2", "mandel_q")},
                   {"mean_n": lib.bgcs.mean_n(z, m), "mean_n_sq": lib.bgcs.mean_n_sq(z, m),
                    "g2": lib.bgcs.g2(z, m), "mandel_q": lib.bgcs.mandel_q(z, m)})
    elif kind == "overlap":
        got = run_cli(ctx, ["overlap", _zarg("--z", job["z"]), _zarg("--z2", job["z2"]),
                            "--m", str(m)])
        ov = lib.bgcs.overlap(complex(*job["z2"]), complex(*job["z"]), m)
        check_json(ctx, [got["overlap"], got["overlap_abs"]], [ov, abs(ov)])
    elif kind == "quantize":
        sym, depth = job["symbol"], job["depth"]
        got = run_cli(ctx, ["quantize", "--symbol", sym, "--m", str(m), "--depth", str(depth)])
        op = lib.quantize.quantize_closed_form(quantize.SymbolSpec(sym),
                                               fock.SubspaceSpec(m, depth=depth))
        check_json(ctx, got["entries"], op.entries)
        verify_operator(ctx, op.entries, sym, m, depth, name="closed_operator", margin=0)
    elif kind == "commutators":
        depth = job["depth"]
        got = run_cli(ctx, ["commutators", "--m", str(m), "--depth", str(depth)])
        rep = lib.quantize.energy_commutators(m, fock.SubspaceSpec(m, depth=depth))
        check_json(ctx, [got["passed"], got["commutators"]], [True, rep.as_dict()])
    else:
        suite = kind.split("_", 1)[1]
        verify_cli_suite(ctx, suite)


def verify_cli_suite(ctx, suite: str) -> None:
    got = run_cli(ctx, ["verify", "--suite", suite])
    want = [c.as_dict() for c in ctx.lib.checks.run_suite(suite)]
    check_json(ctx, [got["passed"], got["checks"]], [True, want])


def edge_op(ctx, kind: str, m: int, rho: float) -> None:
    """Passes on a finite, invariant-keeping result or a typed error."""
    lib = ctx.lib
    try:
        if kind == "bgcs_state":
            st = lib.bgcs.bgcs_state(bgcs.CoherentLabel.from_polar(rho, 0.0),
                                     fock.SubspaceSpec(m))
            if not (np.all(np.isfinite(st.amplitudes)) and abs(st.norm_sq - 1.0) <= 1e-12):
                raise EdgeFault(f"bgcs_state m={m} rho={rho}: norm {st.norm_sq}")
        elif kind == "mandel_q":
            q = lib.bgcs.mandel_q(bgcs.CoherentLabel.from_polar(rho, 0.0), m)
            if not (math.isfinite(q) and q <= 0.0):
                raise EdgeFault(f"mandel_q m={m} rho={rho}: {q}")
        elif kind == "cli_stats":
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = lib.cli.main(["stats", f"--z={rho!r},0", "--m", str(m)])
            if code not in (0, 2):
                raise EdgeFault(f"cli stats --z {rho!r},0 exited {code}")
        elif kind == "bessel_k":
            v = lib.specfun.bessel_k(m, rho)
            if not (math.isfinite(v) and v > 0.0):
                raise EdgeFault(f"bessel_k({m}, {rho}) = {v}")
    except TYPED_ERRORS:
        pass


# ------------------------------------------------------------------ thermal

def thermal_spec(beta_gap: float, m: int):
    return thermo.ThermalSpec(PARAMS, beta=beta_gap / PARAMS.epsilon_gap, m=m)


def thermal_point_op(ctx, point: dict) -> None:
    lib = ctx.lib
    bg, m, nu = point["beta_gap"], point["m"], point["nu"]
    ts = thermal_spec(bg, m)
    grid = lib.thermo.thermal_grid(ts)
    ctx.note("thermo.grid_nodes", grid.nodes.size)
    ctx.note("measure.grid_points", grid.nodes.size * grid.n_angular)
    calls = {
        "summary": lambda: lib.thermo.thermal_summary(ts, grid),
        "husimi_norm": lambda: lib.thermo.husimi_normalization_check(ts, grid),
        "p_norm": lambda: lib.thermo.p_normalization_check(ts, grid),
        "mean_n_quad": lambda: lib.thermo.thermal_mean_n_quadrature(ts, grid),
        "population": lambda: lib.thermo.fock_population_reconstruction(nu, ts, grid),
        "q2": lambda: lib.thermo.thermal_q2_three_ways(ts, grid),
        "moment": lambda: lib.measure.integrate(moment_integrand(m, m), m, grid,
                                                vectorized=True),
    }
    out = {}
    for key, call in calls.items():
        ctx.checkpoint()
        out[key] = call()
    verify_thermal(ctx, bg, m, nu, out)


def _beta_arg(beta_gap: float) -> str:
    return repr(beta_gap / PARAMS.epsilon_gap)


def thermal_cli_op(ctx, job: dict) -> None:
    lib = ctx.lib
    kind = job["kind"]
    if kind in ("thermal", "wehrl"):
        bg, m = job["beta_gap"], job["m"]
        got = run_cli(ctx, [kind, "--beta", _beta_arg(bg), "--m", str(m)])
        ts = thermo.ThermalSpec(PARAMS, beta=float(_beta_arg(bg)), m=m)
        grid = lib.thermo.thermal_grid(ts)
        if kind == "thermal":
            want = lib.thermo.thermal_summary(ts, grid)
            want.update(beta_gap=ts.beta_gap, n0=ts.fast_index)
        else:
            want = lib.thermo.wehrl_entropy(ts, grid).as_dict()
        check_json(ctx, got, want)
        verify_wehrl(ctx, got["W_quad" if kind == "thermal" else "quadrature"], bg, m)
    elif kind == "sweep":
        beta = job["beta_gap"] / PARAMS.epsilon_gap
        got = run_cli(ctx, ["sweep", "--beta-range", f"{beta!r}:{2.0 * beta!r}:2",
                            "--m-list", ",".join(map(str, job["m_list"])),
                            "--format", "json"])
        want = []
        for b in (beta, 2.0 * beta):
            for m in job["m_list"]:
                ts = thermo.ThermalSpec(PARAMS, beta=b, m=m)
                want.append(lib.thermo.thermal_summary(ts, lib.thermo.thermal_grid(ts)))
        check_json(ctx, got, want)
    else:
        verify_cli_suite(ctx, "thermo")


# --------------------------------------------------------------- quadrature

def quadrature_grid(lib, m: int):
    d = inputs.QUADRATURE_DEPTH
    return lib.measure.build_grid(max_degree=2 * d + m + 3, max_mode=d + 2)


def quadrature_task_op(ctx, task: dict, grid) -> None:
    lib = ctx.lib
    m, tag, n = task["m"], task["symbol"], task["moment_n"]
    depth = inputs.QUADRATURE_DEPTH
    points = grid.nodes.size * grid.n_angular
    ctx.note("measure.grid_points", points)
    ctx.note("quantize.integrand_evals", (depth + 1) ** 2 * points)
    op = lib.quantize.quantize_by_quadrature(
        quantize.SymbolSpec(tag), fock.SubspaceSpec(m, depth=depth), grid)
    verify_operator(ctx, op.entries, tag, m, depth)
    ctx.checkpoint()
    ctx.check("frame_identity", lib.measure.resolution_of_identity_check(
        fock.SubspaceSpec(m), inputs.IDENTITY_N_CHECK, grid))
    ctx.checkpoint()
    (r1, p1), (r2, p2) = task["pair"]
    ctx.check("kernel_idempotence", lib.bgcs.kernel_idempotence_check(
        bgcs.CoherentLabel.from_polar(r1, p1), bgcs.CoherentLabel.from_polar(r2, p2),
        m, grid))
    ctx.checkpoint()
    ctx.check("radial_moment", lib.measure.radial_moment_check(n, m, grid))
    got = lib.measure.integrate(moment_integrand(n, m), m, grid, vectorized=True)
    ctx.check("integrate_moment", abs(got.real / moment_target(n, m) - 1.0))


def identity_cli_op(ctx, job: dict) -> None:
    m, n = job["m"], inputs.IDENTITY_N_CHECK
    got = run_cli(ctx, ["identity", "--m", str(m), "--n-check", str(n)])
    grid = ctx.lib.measure.build_grid(max_degree=2 * n + m + 2, max_mode=2 * n)
    res = ctx.lib.measure.resolution_of_identity_check(fock.SubspaceSpec(m), n, grid)
    check_json(ctx, [got["residual"], got["passed"]], [res, True])
    ctx.check("frame_identity", got["residual"])


def density_sweep_op(ctx, grid, m: int) -> None:
    """measure_density at every radial node of one grid for one sector."""
    dens = np.array([ctx.lib.measure.measure_density(float(r), m) for r in grid.nodes])
    ctx.note("measure.density_sweeps", 1)
    if not np.all(np.isfinite(dens) & (dens > 0.0)):
        raise CheckFailed("measure_density: non-finite or non-positive value on the grid")


# ---------------------------------------------------------------- workloads

class Workload:
    """Inputs of one seed, the ops of one round, and the warm-up op.

    ops is a list of (kind, callable(ctx)); kind "edge" marks the fixed
    edge slice whose failures are counted but do not make a run incorrect.
    """

    def __init__(self, name: str, seed: int, ctx):
        self.name = name
        self.ops: list[tuple[str, object]] = []
        getattr(self, "_setup_" + name)(seed, ctx)
        # warm-up: the round's first CLI call, so its output is also the
        # byte-identity reference for the timed calls
        self.warmup = next(op for op in self.ops if op[0] == "cli")

    def _setup_states(self, seed, ctx):
        rnd = inputs.states_round(seed)
        labels, refs = rnd["labels"], ctx.refs["states"]
        cli = {job["slot"]: job for job in rnd["cli"]}
        n = len(labels)
        for i, lab in enumerate(labels):
            ref = refs[rnd["ref_index"][i]]["mean_n"] if i in rnd["ref_index"] else None
            if i in cli:
                self.ops.append(("cli", lambda c, j=cli[i]: states_cli_op(c, j)))
            self.ops.append(("label", lambda c, a=lab, b=labels[(i + 1) % n], r=ref:
                             label_op(c, a, b, r)))
        self.ops.append(("kernel_batch", kernel_batch_op))
        for kind, m, rho in inputs.EDGE_SLICE:
            self.ops.append(("edge", lambda c, k=kind, m=m, r=rho: edge_op(c, k, m, r)))

    def _setup_thermal(self, seed, ctx):
        rnd = inputs.thermal_round(seed)
        for job in rnd["cli"]:
            self.ops.append(("cli", lambda c, j=job: thermal_cli_op(c, j)))
        for pt in rnd["points"]:
            self.ops.append(("thermal_point", lambda c, p=pt: thermal_point_op(c, p)))

    def _setup_quadrature(self, seed, ctx):
        rnd = inputs.quadrature_round(seed)
        grids = {m: quadrature_grid(ctx.lib, m) for m in sorted(set(inputs.QUADRATURE_SECTORS))}
        for job in rnd["cli"]:
            self.ops.append(("cli", lambda c, j=job: identity_cli_op(c, j)))
        for task in rnd["tasks"]:
            self.ops.append(("quadrature_task",
                             lambda c, t=task, g=grids[task["m"]]: quadrature_task_op(c, t, g)))


WORKLOADS = ("states", "thermal", "quadrature")


def probe_ops(ctx) -> list[tuple[str, object]]:
    """One fixed op of every kind, so a traced run reports every per-layer
    metric, including those of layers its own workload leaves idle."""
    grid = quadrature_grid(ctx.lib, 0)
    return [
        ("label", lambda c: label_op(c, (2.0, 0.5, 1), (1.5, 2.0, 1))),
        ("kernel_batch", kernel_batch_op),
        ("cli", lambda c: verify_cli_suite(c, "specfun")),
        ("thermal_point", lambda c: thermal_point_op(
            c, {"beta_gap": inputs.BETA_GAPS[-1], "m": 0, "nu": 1})),
        ("quadrature_task", lambda c: quadrature_task_op(
            c, {"m": 0, "symbol": "q", "pair": ((1.0, 0.3), (2.0, 1.1)), "moment_n": 2},
            grid)),
        ("density_sweep", lambda c: density_sweep_op(c, grid, 0)),
    ]
