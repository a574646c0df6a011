"""Anti-normal (Berezin-Klauder-Toeplitz) quantization of phase-space symbols
against the Bessel-measure family, and the operator-identity reports for the
quantized energy symbol.

Every symbol is a sum of terms c z^i conj(z)^j, and both routes fill
diagonal i - j term by term: the closed form with K-^i K+^j
(fock.lowering_band), the independent quadrature route
A_f[nu, up] = int f(z) a_nu(z) conj(a_up(z)) dmeasure with one radial moment
per term, the angular integral being exact.

Operator identities are always asserted on the interior block (excluding the
last few rows/columns), because a projected product like Q Q necessarily
loses the contributions that pass through basis states above the truncation.
Identity reports work on the operators' diagonals, never on a dense matrix,
in 80-bit extended precision so the 1e-12 interior claims are not eaten by
double-rounding of entries ~ depth^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bgcs import _as_label, _memo_state, _node_amplitudes, mean_k3
from .fock import OperatorMatrix, SubspaceSpec, lowering_band
from .measure import QuadratureGrid
from .specfun import DomainError, EvaluationError, _Record, _order

# (power of z, power of conj z, coefficient) per named symbol, with
# q = (z + conj z)/sqrt2 and p = (z - conj z)/(i sqrt2)
_SQRT_HALF = math.sqrt(0.5)
_NAMED_TERMS = {
    "z": ((1, 0, 1.0),),
    "z_bar": ((0, 1, 1.0),),
    "z_sq": ((2, 0, 1.0),),
    "z_bar_sq": ((0, 2, 1.0),),
    "abs_z_sq": ((1, 1, 1.0),),
    "q": ((1, 0, _SQRT_HALF), (0, 1, _SQRT_HALF)),
    "p": ((1, 0, -1j * _SQRT_HALF), (0, 1, 1j * _SQRT_HALF)),
    "q_sq": ((2, 0, 0.5), (1, 1, 1.0), (0, 2, 0.5)),
    "p_sq": ((2, 0, -0.5), (1, 1, 1.0), (0, 2, -0.5)),
}
NAMED_SYMBOLS = tuple(_NAMED_TERMS)

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SymbolSpec:
    """A phase-space function to quantize, stored as its terms: a tuple of
    (power_of_z, power_of_conj_z, coefficient).

    Either one of the named tags, whose terms come from _NAMED_TERMS, or
    tag='custom' with the terms given.  Both routes quantize every symbol
    term by term.
    """

    tag: str
    terms: tuple[tuple[int, int, complex], ...] | None = None

    def __post_init__(self):
        if self.tag == "custom":
            if not self.terms:
                raise DomainError("custom symbol needs at least one term")
            # integer powers only: z**1.5 would carry a branch cut
            object.__setattr__(self, "terms", tuple(
                (_order(i, "power of z"), _order(j, "power of conj z"), c)
                for i, j, c in self.terms))
        elif self.tag not in _NAMED_TERMS:
            raise DomainError(
                f"unknown symbol {self.tag!r}; expected one of {NAMED_SYMBOLS} or 'custom'")
        elif self.terms is not None:
            raise DomainError("named symbols take no custom terms")
        else:
            object.__setattr__(self, "terms", _NAMED_TERMS[self.tag])

    @property
    def degree(self) -> int:
        return max(i + j for i, j, _ in self.terms)


def _term_operator(sym: SymbolSpec, dim: int, band, label: str) -> OperatorMatrix:
    # the sum over terms (i, j, c) of c band(i, j) on diagonal i - j; a term
    # whose diagonal lies outside the truncation adds nothing.  K-^j K+^i is
    # the transpose of K-^i K+^j, so band(i, j) depends on i + j and |i - j|
    # alone, and each is built once.  Both routes come here, so a product
    # that leaves double range raises EvaluationError, never a warning
    bands, diagonals = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, c in sym.terms:
            if not cmath.isfinite(c):
                raise EvaluationError(f"non-finite coefficient {c!r} of z^{i} conj(z)^{j}")
            k = i - j
            if abs(k) < dim:
                key = (i + j, abs(k))
                if key not in bands:
                    bands[key] = band(i, j)
                values = c * bands[key]
                diagonals[k] = values if k not in diagonals else diagonals[k] + values
    if any(np.count_nonzero(np.isfinite(d)) < d.size for d in diagonals.values()):
        raise EvaluationError(f"non-finite entry of {label}")
    return OperatorMatrix(dim, diagonals, label)


# ------------------------------------------------------------- closed forms

def quantize_closed_form(sym: SymbolSpec, spec: SubspaceSpec) -> OperatorMatrix:
    """Matrix of the quantized symbol on the m sector, term by term.

    A Barut-Girardello label is a K- eigenvalue, K-|z> = z|z>, and
    <z|K+ = conj(z)<z|, so the anti-normal quantization of z^i conj(z)^j is
    K-^i K+^j exactly: its one diagonal, i - j, is fock.lowering_band(m,
    dim, i, raising=j), and each term adds c times it.  Named and custom
    symbols take the same route; the quantized z is the K- band, its square
    the K-^2 band and |z|^2 the diagonal (nu+1)(m+nu+1).  An entry that
    leaves double range raises EvaluationError, as in the quadrature route.
    """
    dim = spec.require_depth() + 1
    m = spec.m
    return _term_operator(sym, dim, lambda i, j: lowering_band(m, dim, i, raising=j),
                          f"quantized {sym.tag}")


# --------------------------------------------------------- quadrature route

def quantize_by_quadrature(sym: SymbolSpec, spec: SubspaceSpec,
                           grid: QuadratureGrid) -> OperatorMatrix:
    """Matrix of the quantized symbol, A_f[nu, up] = int f(z) a_nu(z)
    conj(a_up(z)) dmeasure, by quadrature on the grid, term by term.

    With a_nu(z) = a_nu(|z|) e^{i nu phi}, the angular integral of
    z^i conj(z)^j a_nu conj(a_up) is exactly 2 pi r^{i+j} a_nu a_up where
    up = nu + i - j and zero elsewhere, so each term (i, j, c) adds to
    diagonal i - j the radial moment

        2 pi c sum_r radial_weight(m) r^{i+j} a_t(r) a_{t+|i-j|}(r),

    one matrix-vector product against the amplitudes at the nodes, built
    in one pass with ln I_m from the grid's profile cache.
    Only the radial rule approximates; a non-finite entry raises
    EvaluationError."""
    depth = spec.require_depth()
    m = spec.m
    grid._require_degree(2 * depth + m + sym.degree + 1)

    # every call on this (grid, sector, depth) reads the same amplitudes; the
    # Gram diagonal is cached itself, so it builds its own and keeps none
    amp = grid._cached(("amp", m, depth + 1), lambda: _node_amplitudes(m, grid, depth + 1))
    weight = grid.radial_weight(m)

    def band(i, j):
        n = abs(i - j)
        return _TWO_PI * ((weight * grid.nodes ** (i + j))
                          @ (amp[:, :depth + 1 - n] * amp[:, n:]))

    return _term_operator(sym, depth + 1, band, f"quadrature({sym.tag})")


# ------------------------------------------------------------- dispersions

def dispersions(label, m: int) -> tuple[float, float, float]:
    """Closed-form quadrature-coordinate variances: both equal the mean of
    the diagonal su(1,1) generator; the third slot is their product, and
    EvaluationError is raised where it overflows (past |z| = sqrt(DBL_MAX))."""
    k3 = mean_k3(label, m)
    product = k3 * k3
    if not math.isfinite(product):
        raise EvaluationError(f"dispersion product mean_k3^2 overflows at mean_k3 = {k3!r}")
    return k3, k3, product


def dispersions_matrix_route(label, m: int) -> tuple[float, float]:
    """Variances of the quantized q and p in the truncated matrix algebra,
    as an independent check on the closed form.

    Both act through the K- band b of fock.lowering_band on the state's
    amplitude vector v, from four O(depth) sums: with av = b v[1:] (K- v)
    and atv = b v[:-1] (K+ v, shifted down one place),

        S = <v|K-|v>,  A = |av|^2,  T = |atv|^2,  C = Re <K- v, K+ v>,

    and q = (K- + K+)/sqrt2, p = (K- - K+)/(i sqrt2) give <q> = sqrt2 Re S,
    <p> = sqrt2 Im S and <q^2>, <p^2> = (A + T +- 2C)/2.  Both moments are
    divided by the state's own squared norm |v|^2, so the variances measure
    the state and not its norm deficit of a few 1e-14.  Only the band and
    the amplitudes enter, never mean_k3.
    """
    v = _memo_state(_as_label(label), m).amplitudes
    b = lowering_band(m, v.size)
    av = b * v[1:]
    atv = b * v[:-1]
    s = complex(np.vdot(v[:-1], av))
    both = float(np.vdot(av, av).real) + float(np.vdot(atv, atv).real)
    cross = 2.0 * float(np.vdot(av[1:], atv[:-1]).real)
    norm = float(np.vdot(v, v).real)
    mean_q = _SQRT2 * s.real / norm
    mean_p = _SQRT2 * s.imag / norm
    return (0.5 * (both + cross) / norm - mean_q * mean_q,
            0.5 * (both - cross) / norm - mean_p * mean_p)


# ----------------------------------------------------------------- reports

@dataclass(frozen=True)
class MatrixEntry(_Record):
    row: int
    col: int
    value: float


@dataclass(frozen=True)
class DecompositionReport(_Record):
    """Ground-truth residuals of the quantized-energy operator identities.

    residual_q/p are A_{q^2} - Q^2 - D and A_{p^2} - P^2 - D with
    D = (1/2)[A_z, A_zbar]; entries lists every interior element above
    1e-12.  The boundary-projector hypothesis (a single (2,0) element of
    size sqrt((m+1)(m+2)/2), with opposite signs for the two residuals) is
    evaluated against the computed residuals rather than assumed.
    """

    m: int
    depth: int
    interior: int
    energy_split_max_err: float
    symmetric_sum_max_err: float
    residual_q_entries: tuple[MatrixEntry, ...]
    residual_p_entries: tuple[MatrixEntry, ...]
    max_interior_residual_q: float
    max_interior_residual_p: float
    edge_residual_q: float
    claimed_entry: tuple[int, int]
    claimed_coefficient: float
    computed_at_claimed_entry_q: float
    matches_claimed_projectors: bool


def _sector(m, spec: SubspaceSpec) -> int:
    # the sector of a report: m as an order, and the sector of its spec
    m = _order(m, "m")
    if m != spec.m:
        raise DomainError(f"sector m={m} differs from the spec's m={spec.m}")
    return m


def energy_operator_decomposition_check(m: int, spec: SubspaceSpec) -> DecompositionReport:
    """The quantized-energy operator identities on sector m, entry by entry
    on the diagonals of the truncated operators.

    Everything runs in 80-bit extended precision.  The four products of the
    quantized z (the K- band b on the superdiagonal) and z-bar (its
    transpose) are each one shifted elementwise product of the band: z z
    and z-bar z-bar are b[t] b[t+1] on diagonals +2 and -2, z z-bar is b^2
    on the diagonal with a zero last, z-bar z is b^2 shifted down one.
    Each entry is the one nonzero product the matrix product would sum with
    exact zeros, so it has the same bits, and every residual lies on one of
    two diagonals: on diagonal 0, r0 = diag - (z z-bar + z-bar z)/2 -
    [z, z-bar]/2 (the q and p residuals and the energy split alike), on
    +-2, r2 = (K-^2 band)/2 - b[t] b[t+1]/2 (the q residual; the p residual
    is -r2).  In the untruncated algebra the squared-coordinate residuals
    vanish identically (the quantized z^2 equals the square of the
    quantized z, entry by entry); the report records what the truncation
    actually gives, and separately whether that matches the claimed extra
    single-entry projector corrections.  m must be spec.m, else
    DomainError.
    """
    m = _sector(m, spec)
    depth = spec.require_depth()
    dim = depth + 1
    ld = np.longdouble
    band = lowering_band(m, dim, 1, ld)
    squares = band * band
    z_zb, zb_z = np.append(squares, 0), np.insert(squares, 0, 0)
    r0 = (lowering_band(m, dim, 1, ld, raising=1) - 0.5 * (z_zb + zb_z)) \
        - (z_zb - zb_z) / ld(2)
    r2 = 0.5 * lowering_band(m, dim, 2, ld) - 0.5 * (band[:-1] * band[1:])

    # the interior block, dim - margin rows, as (row, row + 2 (j - 1)) for
    # j = 0, 1, 2: diagonals -2, 0 and +2, so its rows read in matrix order
    margin = 2
    n = dim - margin
    inner_q = np.zeros((n, 3), ld)
    inner_q[2:, 0] = inner_q[:-2, 2] = r2[:n - 2]
    inner_q[:, 1] = r0[:n]
    inner_p = inner_q * (-1.0, 1.0, -1.0)
    sym_sum = inner_q + inner_p
    sym_sum[:, 1] -= 2.0 * r0[:n]

    def collect(inner):
        rows, j = np.nonzero(np.abs(inner) > 1e-12)
        out = tuple(map(MatrixEntry, rows.tolist(), (rows + 2 * j - 2).tolist(),
                        inner[rows, j].astype(float).tolist()))
        return out, float(np.max(np.abs(inner)))

    q_entries, q_max = collect(inner_q)
    p_entries, p_max = collect(inner_p)
    claimed = math.sqrt((m + 1) * (m + 2) / 2.0)
    at_claimed = float(r2[0])
    return DecompositionReport(
        m=m, depth=depth, interior=n,
        energy_split_max_err=float(np.max(np.abs(r0[:n]))),
        symmetric_sum_max_err=float(np.max(np.abs(sym_sum))),
        residual_q_entries=q_entries,
        residual_p_entries=p_entries,
        max_interior_residual_q=q_max,
        max_interior_residual_p=p_max,
        edge_residual_q=float(max(np.max(np.abs(r0)), np.max(np.abs(r2)))),
        claimed_entry=(2, 0),
        claimed_coefficient=claimed,
        computed_at_claimed_entry_q=at_claimed,
        matches_claimed_projectors=abs(at_claimed - claimed) < 1e-9,
    )


@dataclass(frozen=True)
class CommutatorCheck(_Record):
    name: str
    max_interior_err: float
    example_entry: tuple[int, int]
    example_value: float
    expected_value: float


@dataclass(frozen=True)
class CommutatorReport(_Record):
    _derived = ("max_err",)

    m: int
    depth: int
    checks: tuple[CommutatorCheck, ...] = field(default_factory=tuple)

    @property
    def max_err(self) -> float:
        return max(c.max_interior_err for c in self.checks)

    def as_dict(self):
        # the printed report gives max_err before the checks it summarises
        out = super().as_dict()
        out["checks"] = out.pop("checks")
        return out


def energy_commutators(m: int, spec: SubspaceSpec) -> CommutatorReport:
    """Commutators of the quantized energy with the four plain power symbols,
    operator algebra vs banded closed forms, on the interior block.

    The quantized energy is the diagonal d of K- K+, so each commutator
    [diag(d), X] with X on the one diagonal k is d[row] x - x d[col] on that
    diagonal, in 80-bit extended precision: every entry is the one nonzero
    product a matrix product would form, so it has the same bits, in
    O(dim).  The interior block drops the last margin entries of each
    diagonal.  The route never reads the closed forms it is checked
    against.  m must be spec.m, else DomainError."""
    m = _sector(m, spec)
    depth = spec.require_depth()
    dim = depth + 1
    ld = np.longdouble
    band = lowering_band(m, dim, 1, ld)
    band2 = lowering_band(m, dim, 2, ld)
    d = lowering_band(m, dim, 1, ld, raising=1)

    # closed forms: the bands times their row factors, -(2 nu + m + 3) on the
    # superdiagonal, (2 nu + m + 1) on the subdiagonal (row nu + 1, so the
    # same numbers) and -2 (2 nu + m + 4) on the second superdiagonal
    nu = np.arange(dim - 1, dtype=ld)
    closed_band = (2 * nu + m + 3) * band
    closed_z2 = -2.0 * ((2 * nu[:-1] + m + 4) * band2)

    # (name, offset, values, closed values, margin, example entry)
    cases = [
        ("[abs_z_sq, z]", 1, band, -closed_band, 2, (0, 1)),
        ("[abs_z_sq, z_bar]", -1, band, closed_band, 2, (2, 1)),
        ("[abs_z_sq, z_sq]", 2, band2, closed_z2, 3, (0, 2)),
        ("[abs_z_sq, z_bar_sq]", -2, band2, -closed_z2, 3, (2, 0)),
    ]
    checks = []
    for name, k, x, closed, margin, example in cases:
        rows, cols = (d[:dim - k], d[k:]) if k > 0 else (d[-k:], d[:dim + k])
        comm = rows * x - x * cols
        t = min(example)
        checks.append(CommutatorCheck(
            name=name, max_interior_err=float(np.max(np.abs((comm - closed)[:-margin]))),
            example_entry=example, example_value=float(comm[t]),
            expected_value=float(closed[t])))
    return CommutatorReport(m=m, depth=depth, checks=tuple(checks))
