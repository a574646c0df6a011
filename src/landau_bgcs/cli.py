"""Command-line surface: stats, overlap, evolve, identity, quantize,
commutators, thermal, wehrl, sweep, verify.

Configuration comes from defaults, then a flat key = value config file,
then explicit flags, in that order of increasing precedence.  Output is
JSON (17-significant-digit floats, round-trip safe, NaN and inf as null)
or CSV with '.' decimals; identical inputs produce byte-identical output,
in one process and across processes whatever the string hash seed.  The
JSON writer dispatches on the exact type of each value and builds each
container with one join; a subclass, such as np.float64, prints as its
base type does.  Exit codes: 0 success, 1 failed check, 2 usage or domain
error or exhausted memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, fields

from .bgcs import (
    CoherentLabel,
    evolve_label,
    fano,
    g2,
    mandel_q,
    mean_k3,
    mean_n,
    mean_n_sq,
    overlap,
    snr,
)
from .checks import SUITE_NAMES, run_suite
from .fock import PhysicalParams, SubspaceSpec
from .measure import build_grid, resolution_of_identity_check
from .quantize import (
    SymbolSpec,
    dispersions,
    energy_commutators,
    energy_operator_decomposition_check,
    quantize_closed_form,
)
from .specfun import DomainError, EvaluationError
from .thermo import ThermalSpec, thermal_summary, wehrl_entropy

__all__ = ["main", "RunConfig"]


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------- value parsing

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"expected 're' or 're,im', got {text!r}")


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"expected 'start:stop:count', got {text!r}") from None
    if count < 1 or (count > 1 and stop < start):
        raise UsageError(f"bad sweep range {text!r}")
    return start, stop, count


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    return vals


def _setting(default, parse, help: str, flag: str | None = None):
    # one RunConfig field: the parser of its flag and config-file value, its
    # help text and, where it differs from the field name, its flag name
    return field(default=default,
                 metadata={"parse": parse, "help": help, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags).

    Each field is one setting, declared once: its metadata names the parser,
    help text and flag of the command-line option and config-file key.
    """

    omega0: float = _setting(1.0, float, "confinement frequency")
    omega_c: float = _setting(1.0, float, "cyclotron frequency")
    hbar: float = _setting(1.0, float, "reduced Planck constant")
    mass: float = _setting(1.0, float, "particle mass")
    beta: float | None = _setting(None, float, "inverse temperature")
    m: int = _setting(0, int, "angular sector label")
    depth: int | None = _setting(None, int, "truncation depth")
    n0: int = _setting(0, int, "frozen fast quantum number")
    gap: float | None = _setting(None, float, "override ladder gap energy")
    z: complex | None = _setting(None, _parse_complex, "coherent label as re,im")
    z2: complex | None = _setting(None, _parse_complex, "second coherent label as re,im")
    t: float | None = _setting(None, float, "evolution time")
    symbol: str = _setting("z", str, "symbol tag (z, z_bar, abs_z_sq, z_sq, ...)")
    area: float | None = _setting(None, float, "container area for scaled entropy")
    n_check: int = _setting(8, int, "frame identity block size")
    tol: float | None = _setting(None, float, "tolerance override")
    fmt: str | None = _setting(None, str, "output format: json or csv", flag="format")
    out: str | None = _setting(None, str, "output path (default stdout)")
    suite: str = _setting("all", str, "verification suite")
    beta_range: tuple[float, float, int] | None = _setting(
        None, _parse_range, "sweep range start:stop:count")
    m_list: tuple[int, ...] | None = _setting(
        None, _parse_int_list, "comma-separated sector labels")

    def params(self) -> PhysicalParams:
        return PhysicalParams(omega0=self.omega0, omega_c=self.omega_c,
                              hbar=self.hbar, mass=self.mass)

    def subspace(self) -> SubspaceSpec:
        return SubspaceSpec(self.m, depth=self.depth)

    def thermal(self) -> ThermalSpec:
        if self.beta is None:
            raise UsageError("this command needs --beta")
        return ThermalSpec(self.params(), beta=self.beta, m=self.m,
                           fast_index=self.n0, gap_energy=self.gap)

    def require_z(self) -> CoherentLabel:
        if self.z is None:
            raise UsageError("this command needs --z re,im")
        return CoherentLabel.from_complex(self.z)


def _flag(f) -> str:
    return "--" + (f.metadata["flag"] or f.name).replace("_", "-")


def _parse(f, text: str):
    """text as the value of setting f, or a UsageError naming its flag."""
    parse = f.metadata["parse"]
    try:
        return parse(text)
    except UsageError as e:
        raise UsageError(f"{_flag(f)}: {e}") from None
    except ValueError:
        raise UsageError(
            f"{_flag(f)}: invalid {parse.__name__} value {text!r}") from None


def _load_config_file(path: str) -> dict:
    # each setting answers to its field name and to its flag without dashes
    settings = {key: f for f in fields(RunConfig)
                for key in (f.name, _flag(f)[2:])}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        f = settings.get(key)
        if f is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[f.name] = _parse(f, value)
        except UsageError as e:
            raise UsageError(f"{path}:{lineno}: {e}") from None
    return out


# ------------------------------------------------------------------- output

def _number(x: float) -> str:
    return f"{x:.17g}" if math.isfinite(x) else "null"


def _quote(s: str) -> str:
    # only the backslash and the double quote are escaped
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _jsonify(obj, indent: int = 0) -> str:
    # dispatch on the exact type first and build each container with one
    # join; a subclass or any other type takes the isinstance chain of
    # _jsonify_other
    t = type(obj)
    if t is float:
        return f"{obj:.17g}" if math.isfinite(obj) else "null"
    pad = "  " * indent
    if t is complex:
        return f"[\n{pad}  {_number(obj.real)},\n{pad}  {_number(obj.imag)}\n{pad}]"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = f",\n{pad}  ".join([_jsonify(v, indent + 1) for v in obj])
        return f"[\n{pad}  {inner}\n{pad}]"
    if t is dict:
        if not obj:
            return "{}"
        inner = f',\n{pad}  "'.join(
            [f'{k}": {_jsonify(v, indent + 1)}' for k, v in obj.items()])
        return f'{{\n{pad}  "{inner}\n{pad}}}'
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if t is str:
        return _quote(obj)
    return _jsonify_other(obj, indent)


def _jsonify_other(obj, indent: int) -> str:
    # a subclass prints as its base type does (np.float64 as a float); any
    # other type, np.bool_ among them, cannot be serialized
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _number(obj)
    if isinstance(obj, complex):
        return _jsonify(complex(obj), indent)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        return _jsonify(list(obj), indent)
    if isinstance(obj, dict):
        return _jsonify(dict(obj.items()), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csvify(rows: list[dict]) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)
    lines = [",".join(rows[0])]
    lines += [",".join(cell(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(payload, cfg: RunConfig, csv_rows, default_fmt: str) -> None:
    if (cfg.fmt or default_fmt) == "json":
        text = _jsonify(payload) + "\n"
    else:
        text = _csvify(csv_rows)
    if cfg.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write output file: {e}") from None


# ----------------------------------------------------------------- commands

def cmd_stats(cfg: RunConfig):
    lab = cfg.require_z()
    m = cfg.m
    dq2, dp2, prod = dispersions(lab, m)
    payload = {
        "m": m,
        "z": lab.as_dict(),
        "mean_k3": mean_k3(lab, m),
        "mean_n": mean_n(lab, m),
        "mean_n_sq": mean_n_sq(lab, m),
        "g2": g2(lab, m),
        "snr": snr(lab, m),
        "dispersion_q_sq": dq2,
        "dispersion_p_sq": dp2,
        "dispersion_product": prod,
    }
    # intensity ratios are undefined on the vacuum label
    for name, fn in (("mandel_q", mandel_q), ("fano", fano)):
        try:
            payload[name] = fn(lab, m)
        except DomainError:
            payload[name] = None
    return payload, False, None


def cmd_overlap(cfg: RunConfig):
    lab = cfg.require_z()
    if cfg.z2 is None:
        raise UsageError("overlap needs --z2 re,im")
    lab2 = CoherentLabel.from_complex(cfg.z2)
    ov = overlap(lab2, lab, cfg.m)
    payload = {
        "m": cfg.m,
        "z": lab.as_dict(),
        "z2": lab2.as_dict(),
        "overlap": ov,
        "overlap_abs": abs(ov),
        "overlap_abs_sq": abs(ov) ** 2,
    }
    return payload, False, None


def cmd_evolve(cfg: RunConfig):
    lab = cfg.require_z()
    if cfg.t is None:
        raise UsageError("evolve needs --t")
    params = cfg.params()
    moved = evolve_label(lab, cfg.t, params)
    payload = {
        "m": cfg.m,
        "t": cfg.t,
        "rotation_rate": params.omega_minus,
        "initial": lab.as_dict(),
        "final": moved.as_dict(),
        "mean_n_initial": mean_n(lab, cfg.m),
        "mean_n_final": mean_n(moved, cfg.m),
    }
    return payload, False, None


def cmd_identity(cfg: RunConfig):
    n_check = cfg.n_check
    sp = cfg.subspace()
    grid = build_grid(max_degree=2 * n_check + cfg.m + 2)
    residual = resolution_of_identity_check(sp, n_check, grid)
    tolerance = cfg.tol if cfg.tol is not None else 1e-6
    payload = {
        "m": cfg.m,
        "n_check": n_check,
        "residual": residual,
        "tolerance": tolerance,
        "passed": residual < tolerance,
    }
    return payload, residual >= tolerance, None


def cmd_quantize(cfg: RunConfig):
    depth = cfg.depth if cfg.depth is not None else 12
    sp = SubspaceSpec(cfg.m, depth=depth)
    op = quantize_closed_form(SymbolSpec(cfg.symbol), sp)
    # diagonal k of op - op^H is d_k - conj(d_-k), with d_-k = 0 where absent
    d = op.diagonals
    hermitian = not any((v - d.get(-k, 0).conjugate()).any() for k, v in d.items())
    payload = {
        "symbol": cfg.symbol,
        "m": cfg.m,
        "depth": depth,
        "band": op.band,
        "self_adjoint": hermitian,
        "entries": op.entries.tolist(),
    }
    return payload, False, None


def cmd_commutators(cfg: RunConfig):
    depth = cfg.depth if cfg.depth is not None else 16
    sp = SubspaceSpec(cfg.m, depth=depth)
    comm = energy_commutators(cfg.m, sp)
    decomp = energy_operator_decomposition_check(cfg.m, sp)
    tolerance = cfg.tol if cfg.tol is not None else 1e-12
    worst = max(comm.max_err, decomp.energy_split_max_err,
                decomp.max_interior_residual_q, decomp.max_interior_residual_p)
    payload = {
        "m": cfg.m,
        "depth": depth,
        "tolerance": tolerance,
        "passed": worst < tolerance,
        "commutators": comm.as_dict(),
        "decomposition": decomp.as_dict(),
    }
    return payload, worst >= tolerance, None


def cmd_thermal(cfg: RunConfig):
    ts = cfg.thermal()
    payload = thermal_summary(ts, area=cfg.area)
    payload["beta_gap"] = ts.beta_gap
    payload["n0"] = ts.fast_index
    return payload, False, None


def cmd_wehrl(cfg: RunConfig):
    ts = cfg.thermal()
    rep = wehrl_entropy(ts, area=cfg.area)
    return rep.as_dict(), False, None


def cmd_sweep(cfg: RunConfig):
    if cfg.beta_range is None:
        raise UsageError("sweep needs --beta-range start:stop:count")
    m_values = cfg.m_list if cfg.m_list is not None else (cfg.m,)
    start, stop, count = cfg.beta_range
    betas = [start] if count == 1 else \
        [start + (stop - start) * i / (count - 1) for i in range(count)]
    params = cfg.params()
    rows = []
    for beta in betas:
        for m in m_values:
            try:
                ts = ThermalSpec(params, beta=beta, m=m,
                                 fast_index=cfg.n0, gap_energy=cfg.gap)
                rows.append(thermal_summary(ts, area=cfg.area))
            except (DomainError, EvaluationError) as e:
                raise UsageError(f"sweep row beta={beta:g}, m={m}: {e}") from None
    return rows, False, rows


def cmd_verify(cfg: RunConfig):
    checks = run_suite(cfg.suite, cfg.tol)
    rows = [c.as_dict() for c in checks]
    all_passed = all(c.passed for c in checks)
    payload = {"suite": cfg.suite, "passed": all_passed, "checks": rows}
    return payload, not all_passed, rows


_COMMANDS = {
    "stats": cmd_stats,
    "overlap": cmd_overlap,
    "evolve": cmd_evolve,
    "identity": cmd_identity,
    "quantize": cmd_quantize,
    "commutators": cmd_commutators,
    "thermal": cmd_thermal,
    "wehrl": cmd_wehrl,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}
# the commands whose results have CSV rows; the others print JSON only
_CSV_COMMANDS = ("sweep", "verify")


# ------------------------------------------------------------------ assembly

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        # verify's --suite is added to its own subparser, with its choices
        if f.name != "suite":
            common.add_argument(_flag(f), dest=f.name, help=f.metadata["help"])

    parser = argparse.ArgumentParser(
        prog="landau-bgcs",
        description="su(1,1) coherent states on Landau levels: statistics, "
                    "quantization, and thermal quantities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "verify":
            p.add_argument("--suite", choices=SUITE_NAMES, default=None)
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            values[f.name] = _parse(f, text)
    cfg = RunConfig(**values)
    if cfg.fmt not in (None, "json", "csv"):
        raise UsageError(f"unknown format {cfg.fmt!r} (use json or csv)")
    cfg.params()  # fail fast on invalid physical parameters
    if cfg.depth is not None:
        cfg.subspace()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _build_config(args)
        if cfg.fmt == "csv" and args.command not in _CSV_COMMANDS:
            raise UsageError("csv output is only available for "
                             + " and ".join(_CSV_COMMANDS))
        payload, failed, csv_rows = _COMMANDS[args.command](cfg)
        _emit(payload, cfg, csv_rows,
              default_fmt="csv" if args.command == "sweep" else "json")
    except (DomainError, UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EvaluationError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
