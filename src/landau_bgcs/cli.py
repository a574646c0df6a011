"""Command-line surface: stats, overlap, evolve, identity, quantize,
commutators, thermal, wehrl, sweep, verify.

Configuration comes from defaults, then a flat key = value config file,
then explicit flags, in that order of increasing precedence.  Output is
JSON (17-significant-digit floats, round-trip safe) or CSV with '.'
decimals; identical inputs produce byte-identical output.  Exit codes:
0 success, 1 failed check, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

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
from .thermo import ThermalSpec, thermal_grid, thermal_summary, wehrl_entropy

__all__ = ["main", "RunConfig"]

_CSV_SWEEP_COLUMNS = ("beta", "m", "Z", "N_mean", "N2_mean", "g",
                      "W_quad", "W_approx", "Q2", "P2")


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
    if not vals:
        raise UsageError("empty integer list")
    return vals


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags)."""

    omega0: float = 1.0
    omega_c: float = 1.0
    hbar: float = 1.0
    mass: float = 1.0
    beta: float | None = None
    m: int = 0
    depth: int | None = None
    n0: int = 0
    gap: float | None = None
    z: complex | None = None
    z2: complex | None = None
    t: float | None = None
    symbol: str = "z"
    area: float | None = None
    n_check: int = 8
    tol: float | None = None
    fmt: str | None = None
    out: str | None = None
    suite: str = "all"
    beta_range: tuple[float, float, int] | None = None
    m_list: tuple[int, ...] | None = None

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


_KEY_PARSERS = {
    "omega0": float, "omega_c": float, "hbar": float, "mass": float,
    "beta": float, "gap": float, "area": float, "t": float, "tol": float,
    "m": int, "depth": int, "n0": int, "n_check": int,
    "z": _parse_complex, "z2": _parse_complex,
    "symbol": str, "fmt": str, "out": str, "suite": str,
    "beta_range": _parse_range, "m_list": _parse_int_list,
}
_FILE_KEY_ALIASES = {"format": "fmt"}


def _load_config_file(path: str) -> dict:
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
        key = _FILE_KEY_ALIASES.get(key, key)
        if key not in _KEY_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](value)
        except ValueError as e:
            raise UsageError(f"{path}:{lineno}: {e}") from None
    return out


# ------------------------------------------------------------------- output

def _jsonify(obj, indent: int = 0) -> str:
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
        return _jsonify([obj.real, obj.imag], indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            f"{pad}  {_jsonify(v, indent + 1)}" for v in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_jsonify(v, indent + 1)}' for k, v in obj.items())
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csvify(rows: list[dict], columns: tuple[str, ...]) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)
    lines = [",".join(columns)]
    lines += [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(payload, cfg: RunConfig, csv_rows=None, csv_columns=None,
          default_fmt: str = "json") -> None:
    fmt = cfg.fmt or default_fmt
    if fmt == "json":
        text = _jsonify(payload) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv output is only available for sweep and verify")
        text = _csvify(csv_rows, csv_columns)
    else:
        raise UsageError(f"unknown format {fmt!r} (use json or csv)")
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------- commands

def _label_dict(lab: CoherentLabel) -> dict:
    return {"re": lab.re, "im": lab.im, "rho": lab.rho, "phi": lab.phi}


def cmd_stats(cfg: RunConfig):
    lab = cfg.require_z()
    m = cfg.m
    dq2, dp2, prod = dispersions(lab, m)
    payload = {
        "m": m,
        "z": _label_dict(lab),
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
        "z": _label_dict(lab),
        "z2": _label_dict(lab2),
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
        "initial": _label_dict(lab),
        "final": _label_dict(moved),
        "mean_n_initial": mean_n(lab, cfg.m),
        "mean_n_final": mean_n(moved, cfg.m),
    }
    return payload, False, None


def cmd_identity(cfg: RunConfig):
    n_check = cfg.n_check
    sp = cfg.subspace()
    grid = build_grid(max_degree=2 * n_check + cfg.m + 2, max_mode=2 * n_check)
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
    herm = float(abs(op.entries - op.entries.conj().T).max())
    payload = {
        "symbol": cfg.symbol,
        "m": cfg.m,
        "depth": depth,
        "band": op.band,
        "self_adjoint": herm == 0.0,
        "entries": [[complex(v) for v in row] for row in op.entries],
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
    payload = thermal_summary(ts, thermal_grid(ts), area=cfg.area)
    payload["beta_gap"] = ts.beta_gap
    payload["n0"] = ts.fast_index
    return payload, False, None


def cmd_wehrl(cfg: RunConfig):
    ts = cfg.thermal()
    rep = wehrl_entropy(ts, thermal_grid(ts), area=cfg.area)
    return rep.as_dict(), False, None


def cmd_sweep(cfg: RunConfig):
    if cfg.beta_range is None:
        raise UsageError("sweep needs --beta-range start:stop:count")
    m_values = cfg.m_list if cfg.m_list is not None else (cfg.m,)
    start, stop, count = cfg.beta_range
    betas = [start] if count == 1 else \
        [start + (stop - start) * i / (count - 1) for i in range(count)]
    params = cfg.params()
    grids = {}
    rows = []
    for beta in betas:
        for m in m_values:
            try:
                ts = ThermalSpec(params, beta=beta, m=m,
                                 fast_index=cfg.n0, gap_energy=cfg.gap)
                key = round(ts.beta_gap, 12)
                if key not in grids:
                    grids[key] = thermal_grid(ts)
                rows.append(thermal_summary(ts, grids[key], area=cfg.area))
            except (DomainError, EvaluationError) as e:
                raise UsageError(f"sweep row beta={beta:g}, m={m}: {e}") from None
    return rows, False, (rows, _CSV_SWEEP_COLUMNS)


def cmd_verify(cfg: RunConfig):
    checks = run_suite(cfg.suite, cfg.tol)
    rows = [c.as_dict() for c in checks]
    all_passed = all(c.passed for c in checks)
    payload = {"suite": cfg.suite, "passed": all_passed, "checks": rows}
    return payload, not all_passed, (rows, ("name", "residual", "tolerance", "passed"))


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


# ------------------------------------------------------------------ assembly

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--m", type=int)
    common.add_argument("--depth", type=int)
    common.add_argument("--z", help="coherent label as re,im")
    common.add_argument("--z2", help="second coherent label as re,im")
    common.add_argument("--t", type=float, help="evolution time")
    common.add_argument("--symbol",
                        help="symbol tag (z, z_bar, abs_z_sq, z_sq, ...)")
    common.add_argument("--beta", type=float, help="inverse temperature")
    common.add_argument("--beta-range", dest="beta_range",
                        help="sweep range start:stop:count")
    common.add_argument("--m-list", dest="m_list",
                        help="comma-separated sector labels")
    common.add_argument("--omega0", type=float)
    common.add_argument("--omega-c", dest="omega_c", type=float)
    common.add_argument("--hbar", type=float)
    common.add_argument("--mass", type=float)
    common.add_argument("--n0", type=int, help="frozen fast quantum number")
    common.add_argument("--gap", type=float, help="override ladder gap energy")
    common.add_argument("--area", type=float, help="container area for scaled entropy")
    common.add_argument("--n-check", dest="n_check", type=int,
                        help="frame identity block size")
    common.add_argument("--tol", type=float, help="tolerance override")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"))
    common.add_argument("--out", help="output path (default stdout)")

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
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **_load_config_file(args.config))
    updates = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name in ("z", "z2") and isinstance(value, str):
            value = _parse_complex(value)
        elif f.name == "beta_range" and isinstance(value, str):
            value = _parse_range(value)
        elif f.name == "m_list" and isinstance(value, str):
            value = _parse_int_list(value)
        updates[f.name] = value
    cfg = replace(cfg, **updates)
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
        payload, failed, csv_info = _COMMANDS[args.command](cfg)
        csv_rows, csv_columns = csv_info if csv_info else (None, None)
        default_fmt = "csv" if args.command == "sweep" else "json"
        _emit(payload, cfg, csv_rows=csv_rows, csv_columns=csv_columns,
              default_fmt=default_fmt)
    except (DomainError, UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EvaluationError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
