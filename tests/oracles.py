"""Brute-force series oracles, the general reduced-series loop, the
pointwise symbol value, the recursive JSON writer, the matrix-product
energy commutators and operator decomposition, the dense forms of the
commutator and cross-route suite checks, the amplitudes' log expression as
one formula, the auto depth as a linear scan and the constructor-built
polar label that only the tests read."""

from __future__ import annotations

import math

import numpy as np

from landau_bgcs.bgcs import (_TWO_PI, CoherentLabel, _ln_amplitude, _ln_bessel_i,
                              _ln_fact_pairs)
from landau_bgcs.fock import SubspaceSpec, ladder_matrix, lowering_band
from landau_bgcs.measure import build_grid
from landau_bgcs.quantize import (CommutatorCheck, CommutatorReport, DecompositionReport,
                                  MatrixEntry, SymbolSpec, _sector, quantize_by_quadrature,
                                  quantize_closed_form)
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


def reduced_series_reference(m: int, w):
    """specfun.bessel_i_reduced as one loop for complex, negative and real w
    alike, kept unchanged as the reference whose every bit, exception and
    message the loop on a float w >= 0 must reproduce."""
    m = _order(m)
    s = comp = 0j if isinstance(w, complex) else 0.0
    term = s + math.exp(-ln_factorial(m))
    aw = abs(w)
    k, order = 0.0, float(m)
    for _ in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        k += 1.0
        d = k * (k + order)
        term *= w / d
        if d > aw and abs(term) <= _REL_TOL * (abs(s) + 1e-300):
            break
    else:
        raise EvaluationError(
            f"reduced I series (m={m}, |w|={aw:.3g}) did not converge "
            f"in {_MAX_TERMS} terms", partial=s, terms=_MAX_TERMS)
    return s


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) by its ascending series, |x| < 1.

    c must not be a non-positive integer.  Terminating (polynomial) cases are
    handled naturally when a or b is a non-positive integer.
    """
    if c <= 0.0 and c == int(c):
        raise DomainError(f"2F1 undefined for non-positive integer c = {c}")
    if not abs(x) < 1.0:
        raise DomainError(f"2F1 series requires |x| < 1, got x = {x}")
    s = 0.0
    comp = 0.0
    term = 1.0
    for k in range(_MAX_TERMS):
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        if term == 0.0:
            return s
        if abs(term) <= _REL_TOL * (abs(s) + 1e-300) \
                and k + 1 > max(abs(a), abs(b)) * abs(x) / (1.0 - abs(x)):
            return s
    raise EvaluationError(
        f"2F1({a},{b};{c};{x}) did not converge in {_MAX_TERMS} terms",
        partial=s, terms=_MAX_TERMS)


def symbol_value(sym, z):
    """Pointwise value of a quantize.SymbolSpec on a complex scalar or array:
    the sum of its terms, within 4 eps times the sum of their moduli, so q_sq
    cancels where |Re z| << |Im z| and p_sq where |Im z| << |Re z|."""
    z = np.asarray(z, dtype=np.complex128)
    zc = np.conj(z)
    acc = np.zeros_like(z)
    for i, j, c in sym.terms:
        acc = acc + c * z ** i * zc ** j
    return acc


def jsonify_reference(obj, indent: int = 0) -> str:
    """The CLI's recursive JSON writer before its exact-type dispatch, kept
    unchanged as the reference that cli._jsonify must print alike."""
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
        return jsonify_reference([obj.real, obj.imag], indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            f"{pad}  {jsonify_reference(v, indent + 1)}" for v in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {jsonify_reference(v, indent + 1)}' for k, v in obj.items())
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _interior(a: np.ndarray, margin: int) -> np.ndarray:
    # the block without the last margin rows and columns
    return a[:a.shape[0] - margin, :a.shape[1] - margin]


def ladder_commutator_reference(m: int, depth: int = 16) -> float:
    """The lowering_raising_commutator residual of checks.suite_commutators
    as dense matrix products, az @ azb - azb @ az - 2 k3 on the interior
    block, kept as the reference whose bits the diagonal route must
    reproduce."""
    sp = SubspaceSpec(m, depth=depth)
    az = quantize_closed_form(SymbolSpec("z"), sp).entries
    azb = quantize_closed_form(SymbolSpec("z_bar"), sp).entries
    want = 2.0 * ladder_matrix("k3", sp).entries
    return float(np.max(np.abs(_interior(az @ azb - azb @ az - want, 1))))


def cross_route_reference(m: int, depth: int = 16) -> float:
    """The quantization_cross_route residual of checks.suite_quantize as
    dense entry differences on the interior block, kept as the reference
    whose bits the diagonal route must reproduce."""
    sp = SubspaceSpec(m, depth=depth)
    grid = build_grid(max_degree=2 * depth + m + 3)
    worst = 0.0
    for tag in ("z", "z_bar", "abs_z_sq", "z_sq", "q_sq"):
        quad = quantize_by_quadrature(SymbolSpec(tag), sp, grid)
        closed = quantize_closed_form(SymbolSpec(tag), sp)
        worst = max(worst, float(np.max(np.abs(
            _interior(quad.entries - closed.entries, 2)))))
    return worst


def energy_commutators_reference(m: int, spec: SubspaceSpec) -> CommutatorReport:
    """quantize.energy_commutators as dense extended-precision matrix
    products, kept unchanged as the reference whose every bit the scaled
    route must reproduce."""
    depth = spec.require_depth()
    dim = depth + 1
    ld = np.longdouble
    band = lowering_band(m, dim, 1, ld)
    band2 = lowering_band(m, dim, 2, ld)
    az = np.diag(band, 1)
    a2 = np.diag(band2, 2)
    diag = np.diag(lowering_band(m, dim, 1, ld, raising=1))

    # closed forms: the bands times their row factors, -(2 nu + m + 3) on the
    # superdiagonal, (2 nu + m + 1) on the subdiagonal (row nu + 1, so the
    # same numbers) and -2 (2 nu + m + 4) on the second superdiagonal
    nu = np.arange(dim - 1, dtype=ld)
    closed_band = (2 * nu + m + 3) * band
    closed_z = -np.diag(closed_band, 1)
    closed_zb = np.diag(closed_band, -1)
    closed_z2 = -2.0 * np.diag((2 * nu[:-1] + m + 4) * band2, 2)
    closed_zb2 = -closed_z2.T

    cases = [
        ("[abs_z_sq, z]", az, closed_z, 2, (0, 1)),
        ("[abs_z_sq, z_bar]", az.T, closed_zb, 2, (2, 1)),
        ("[abs_z_sq, z_sq]", a2, closed_z2, 3, (0, 2)),
        ("[abs_z_sq, z_bar_sq]", a2.T, closed_zb2, 3, (2, 0)),
    ]
    checks = []
    for name, other, closed, margin, example in cases:
        comm = diag @ other - other @ diag
        err = float(np.max(np.abs(_interior(comm - closed, margin))))
        checks.append(CommutatorCheck(
            name=name, max_interior_err=err, example_entry=example,
            example_value=float(comm[example]),
            expected_value=float(closed[example])))
    return CommutatorReport(m=m, depth=depth, checks=tuple(checks))


def energy_operator_decomposition_reference(m: int, spec: SubspaceSpec) -> DecompositionReport:
    """quantize.energy_operator_decomposition_check with its four products
    as dense extended-precision matrix products, kept unchanged as the
    reference whose report the band-product route must reproduce."""
    m = _sector(m, spec)
    depth = spec.require_depth()
    dim = depth + 1
    az = np.diag(lowering_band(m, dim, 1, np.longdouble), 1)
    a2 = np.diag(lowering_band(m, dim, 2, np.longdouble), 2)
    diag = np.diag(lowering_band(m, dim, 1, np.longdouble, raising=1))
    azb = az.T
    z_z, zb_zb, z_zb, zb_z = az @ az, azb @ azb, az @ azb, azb @ az
    comm_half = (z_zb - zb_z) / np.longdouble(2)

    q_sq_matrix = 0.5 * (z_z + zb_zb + z_zb + zb_z)
    p_sq_matrix = -0.5 * (z_z + zb_zb - z_zb - zb_z)
    a_qsq = diag + 0.5 * (a2 + a2.T)
    a_psq = diag - 0.5 * (a2 + a2.T)

    margin = 2
    energy_split = diag - 0.5 * (q_sq_matrix + p_sq_matrix) - comm_half
    resid_q = a_qsq - q_sq_matrix - comm_half
    resid_p = a_psq - p_sq_matrix - comm_half
    sym_sum = (resid_q + resid_p) - 2.0 * energy_split

    def collect(a):
        inner = _interior(a, margin)
        out = []
        for r, c in np.argwhere(np.abs(inner) > 1e-12):
            out.append(MatrixEntry(int(r), int(c), float(inner[r, c])))
        return tuple(out), float(np.max(np.abs(inner)))

    q_entries, q_max = collect(resid_q)
    p_entries, p_max = collect(resid_p)
    claimed = math.sqrt((m + 1) * (m + 2) / 2.0)
    at_claimed = float(resid_q[2, 0])
    return DecompositionReport(
        m=m, depth=depth, interior=dim - margin,
        energy_split_max_err=float(np.max(np.abs(_interior(energy_split, margin)))),
        symmetric_sum_max_err=float(np.max(np.abs(_interior(sym_sum, margin)))),
        residual_q_entries=q_entries,
        residual_p_entries=p_entries,
        max_interior_residual_q=q_max,
        max_interior_residual_p=p_max,
        edge_residual_q=float(np.max(np.abs(resid_q))),
        claimed_entry=(2, 0),
        claimed_coefficient=claimed,
        computed_at_claimed_entry_q=at_claimed,
        matches_claimed_projectors=abs(at_claimed - claimed) < 1e-9,
    )


def ln_amplitude_reference(m: int, ln_r, n: int, ln_i):
    """bgcs._ln_amplitude on nu = np.arange(n) as one expression, kept
    unchanged as the reference whose every bit the memoised rows must
    reproduce."""
    nu = np.arange(n)
    ln_fact = _ln_fact_pairs(m, n)
    return (0.5 * m + nu) * ln_r - 0.5 * ln_i - 0.5 * ln_fact


def tail_depth_reference(m: int, rho: float, tail_tol: float) -> int:
    """The auto depth of the state labelled rho > 0 on sector m as a linear
    scan: the first depth from max(30, ceil(nu*)), nu* the peak of the nu
    distribution, whose 2 ln a_nu, one float _ln_amplitude each, is below
    ln tail_tol."""
    ln_r, ln_i, ln_tol = math.log(rho), _ln_bessel_i(m, rho), math.log(tail_tol)
    depth = max(30, math.ceil(0.5 * (math.hypot(m, 2.0 * rho) - m)))
    while 2.0 * _ln_amplitude(m, ln_r, depth, ln_i) >= ln_tol:
        depth += 1
    return depth


def from_polar_reference(rho: float, phi: float) -> CoherentLabel:
    """CoherentLabel.from_polar through the constructor, whose polar data
    are then overwritten, kept unchanged as the reference whose fields,
    refusals and equality the direct build must reproduce."""
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"modulus must be finite and >= 0, got {rho}")
    phi = float(phi) % _TWO_PI
    label = CoherentLabel(re=rho * math.cos(phi), im=rho * math.sin(phi))
    object.__setattr__(label, "rho", float(rho))
    object.__setattr__(label, "phi", phi)
    return label
