"""Spans around the benchmark's calls into the library's public functions.

The library is reached only through a ``Library`` namespace.  The plain one
hands out the modules themselves, so untraced runs pay nothing.  The traced
one replaces every public function defined in each of the eight modules by a
wrapper that records a span: layer, function, start and end in ns, the time
covered by child spans (for self time), and the phase and operation kind the
runner was in.  Spans stay in memory and are written out when the run ends.
Nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import importlib
import inspect
import time
from types import SimpleNamespace

LAYERS = ("specfun", "fock", "bgcs", "measure", "quantize", "thermo", "checks", "cli")

# span fields
LAYER, NAME, START, END, CHILD, PHASE, KIND = range(7)


def load_modules() -> dict:
    return {name: importlib.import_module(f"landau_bgcs.{name}") for name in LAYERS}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[tuple[str, str], list[float]] = {}
        self.phase = "setup"
        self.kind = ""
        self._stack: list[list] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [layer, name, 0, 0, 0, self.phase, self.kind]
            stack.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += rec[END] - rec[START]
                spans.append(rec)
        return traced

    def note(self, name: str, value: float) -> None:
        self.notes.setdefault((self.phase, name), []).append(float(value))


def library(modules: dict, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the eight modules, with public functions traced if asked."""
    if tracer is None:
        return SimpleNamespace(**modules)
    out = {}
    for layer, mod in modules.items():
        attrs = {}
        for name in dir(mod):
            if name.startswith("_"):
                continue
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                obj = tracer.wrap(layer, name, obj)
            attrs[name] = obj
        out[layer] = SimpleNamespace(**attrs)
    return SimpleNamespace(**out)


# ----------------------------------------------------------- per-layer view
#
# Each metric is taken from the traced rounds when the workload calls that
# function; otherwise from set-up (grid builds, the warm-up call); otherwise
# from the fixed probe ops that close every traced run.

PHASES = ("round", "setup", "probe")

# name: (unit, layer, functions, op kind or None, scale from ns)
SPAN_MEANS = {
    "specfun.bessel_ns": ("ns", "specfun", None, "kernel_batch", 1.0),
    "bgcs.state_us": ("us", "bgcs", {"bgcs_state"}, None, 1e-3),
    "bgcs.stats_us": ("us", "bgcs", {"mean_n", "mean_n_sq", "g2", "mandel_q"}, "label", 1e-3),
    "bgcs.overlap_us": ("us", "bgcs", {"overlap"}, "label", 1e-3),
    "fock.ladder_us": ("us", "fock", {"ladder_matrix"}, None, 1e-3),
    "quantize.closed_us": ("us", "quantize",
                           {"quantize_closed_form", "dispersions_matrix_route"}, None, 1e-3),
    "bgcs.kernel_check_ms": ("ms", "bgcs", {"kernel_idempotence_check"}, None, 1e-6),
    "measure.identity_ms": ("ms", "measure", {"resolution_of_identity_check"}, None, 1e-6),
    "measure.moment_ms": ("ms", "measure", {"radial_moment_check"}, None, 1e-6),
    "measure.integrate_ms": ("ms", "measure", {"integrate"}, None, 1e-6),
    "measure.build_grid_ms": ("ms", "measure", {"build_grid"}, None, 1e-6),
    "quantize.quadrature_s": ("s", "quantize", {"quantize_by_quadrature"}, None, 1e-9),
    "thermo.grid_ms": ("ms", "thermo", {"thermal_grid"}, None, 1e-6),
    "thermo.wehrl_ms": ("ms", "thermo", {"thermal_summary", "wehrl_entropy"}, None, 1e-6),
    "thermo.normalization_ms": ("ms", "thermo", {"husimi_normalization_check",
                                                 "p_normalization_check"}, None, 1e-6),
    "thermo.occupancy_ms": ("ms", "thermo", {"thermal_mean_n_quadrature",
                                             "fock_population_reconstruction"}, None, 1e-6),
    "thermo.q2_ms": ("ms", "thermo", {"thermal_q2_three_ways"}, None, 1e-6),
    "checks.suite_ms": ("ms", "checks", {"run_suite"}, None, 1e-6),
    "cli.main_ms": ("ms", "cli", {"main"}, None, 1e-6),
}
NOTE_MEANS = {
    "bgcs.state_depth": "count",
    "measure.grid_points": "count",
    "thermo.grid_nodes": "count",
    "quantize.integrand_evals": "count",
}


def _first_phase(select):
    for phase in PHASES:
        found = select(phase)
        if found:
            return phase, found
    return None, []


def per_layer(tracer: Tracer, rounds: int, plain_ops_per_s: float,
              traced_ops_per_s: float) -> dict:
    spans, notes = tracer.spans, tracer.notes
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name, (unit, layer, fns, kind, scale) in SPAN_MEANS.items():
        _, sel = _first_phase(lambda ph: [
            s[END] - s[START] for s in spans
            if s[PHASE] == ph and s[LAYER] == layer
            and (fns is None or s[NAME] in fns) and (kind is None or s[KIND] == kind)])
        put(name, scale * sum(sel) / len(sel) if sel else 0.0, unit)

    phase, sel = _first_phase(lambda ph: [
        s for s in spans if s[PHASE] == ph and s[LAYER] == "specfun" and s[KIND] == "kernel_batch"])
    batches = len(notes.get((phase, "specfun.batches"), ())) or 1
    put("specfun.calls", len(sel) / batches, "count")

    phase, sel = _first_phase(lambda ph: [
        s[END] - s[START] for s in spans
        if s[PHASE] == ph and s[LAYER] == "measure" and s[NAME] == "measure_density"])
    sweeps = len(notes.get((phase, "measure.density_sweeps"), ())) or 1
    put("measure.density_ms", 1e-6 * sum(sel) / sweeps, "ms")

    for name, unit in NOTE_MEANS.items():
        _, vals = _first_phase(lambda ph: notes.get((ph, name), []))
        put(name, sum(vals) / len(vals) if vals else 0.0, unit)

    per_round = notes.get(("round", "cli.bytes_out"))
    put("cli.bytes_out", sum(per_round) / rounds if per_round
        else sum(notes.get(("probe", "cli.bytes_out"), [0.0])), "count")

    for layer in LAYERS:
        phase, sel = _first_phase(lambda ph: [
            s[END] - s[START] - s[CHILD] for s in spans
            if s[PHASE] == ph and s[LAYER] == layer and ph != "setup"])
        put(f"{layer}.busy_s", 1e-9 * sum(sel) / (rounds if phase == "round" else 1), "s")

    put("trace.overhead_pct", 100.0 * (plain_ops_per_s / traced_ops_per_s - 1.0), "%")
    return out
