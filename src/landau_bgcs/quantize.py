"""Anti-normal (coherent-state) quantization of phase-space symbols against
the Bessel-measure family: closed-form ladder matrices, the independent
quadrature route A_f[nu, up] = int f(z) a_nu(z) conj(a_up(z)) dmeasure, and
the operator-identity reports for the quantized energy symbol.

Matrix identities are always asserted on the interior block (excluding the
last few rows/columns), because a projected product like Q @ Q necessarily
loses the contributions that pass through basis states above the truncation.
Identity reports run their matrix algebra in 80-bit extended precision so the
1e-12 interior claims are not eaten by double-rounding of entries ~ depth^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bgcs import _as_label, _node_amplitudes, bgcs_state, mean_k3
from .fock import OperatorMatrix, SubspaceSpec, lowering_band
from .measure import QuadratureGrid, angular_mode_matrix
from .specfun import EvaluationError, _Record, _order

NAMED_SYMBOLS = ("z", "z_bar", "z_sq", "z_bar_sq", "abs_z_sq",
                 "q", "p", "q_sq", "p_sq")

# (power of z, power of conj z) per named polynomial symbol; q = (z + conj z)/sqrt2
_NAMED_DEGREE = {"z": 1, "z_bar": 1, "z_sq": 2, "z_bar_sq": 2, "abs_z_sq": 2,
                 "q": 1, "p": 1, "q_sq": 2, "p_sq": 2}

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SymbolSpec:
    """A phase-space function to quantize.

    Either one of the named tags, or tag='custom' with terms as a tuple of
    (power_of_z, power_of_conj_z, coefficient).  Custom symbols only support
    the quadrature route.
    """

    tag: str
    terms: tuple[tuple[int, int, complex], ...] | None = None

    def __post_init__(self):
        if self.tag == "custom":
            if not self.terms:
                raise ValueError("custom symbol needs at least one term")
            # integer powers only: z**1.5 would carry a branch cut
            object.__setattr__(self, "terms", tuple(
                (_order(i, "power of z"), _order(j, "power of conj z"), c)
                for i, j, c in self.terms))
        elif self.tag not in NAMED_SYMBOLS:
            raise ValueError(
                f"unknown symbol {self.tag!r}; expected one of {NAMED_SYMBOLS} or 'custom'")
        elif self.terms is not None:
            raise ValueError("named symbols take no custom terms")

    @property
    def degree(self) -> int:
        if self.tag == "custom":
            return max(i + j for i, j, _ in self.terms)
        return _NAMED_DEGREE[self.tag]

    def evaluate(self, z):
        """Pointwise symbol value on a complex scalar or array."""
        z = np.asarray(z, dtype=np.complex128)
        zc = np.conj(z)
        if self.tag == "z":
            return z
        if self.tag == "z_bar":
            return zc
        if self.tag == "z_sq":
            return z * z
        if self.tag == "z_bar_sq":
            return zc * zc
        if self.tag == "abs_z_sq":
            return (z * zc).real.astype(np.complex128)
        if self.tag == "q":
            return (z + zc) / _SQRT2
        if self.tag == "p":
            return (z - zc) / (1j * _SQRT2)
        if self.tag == "q_sq":
            return ((z + zc) / _SQRT2) ** 2
        if self.tag == "p_sq":
            return ((z - zc) / (1j * _SQRT2)) ** 2
        acc = np.zeros_like(z)
        for i, j, c in self.terms:
            acc = acc + c * z ** i * zc ** j
        return acc


# ------------------------------------------------------------- closed forms

def _energy_diagonal(m: int, dim: int, dtype) -> np.ndarray:
    # diagonal (nu+1)(m+nu+1) of the quantized |z|^2; one rounding per entry
    nu = np.arange(1, dim + 1, dtype=dtype)
    return np.diag(nu * (nu + m))


def quantize_closed_form(sym: SymbolSpec, spec: SubspaceSpec) -> OperatorMatrix:
    """Ladder-form matrix of the quantized named symbol on the m sector.

    The quantized plain symbol acts as a shifted lowering operator with
    entries <nu| . |nu+1> = sqrt((nu+1)(m+nu+1)), the K- band of
    fock.lowering_band, and the quantized z^2 is its K-^2 band; everything
    else is built from these: conjugate = adjoint, quadratics from the
    natural combinations, and the modulus-squared symbol is exactly diagonal
    (nu+1)(m+nu+1).
    """
    if sym.tag == "custom":
        raise ValueError("custom symbols are quantized by quadrature only")
    dim = spec.require_depth() + 1
    m = spec.m
    az = np.diag(lowering_band(m, dim), 1).astype(np.complex128)
    if sym.tag == "z":
        return OperatorMatrix(az, 1, label="quantized z")
    if sym.tag == "z_bar":
        return OperatorMatrix(az.T, 1, label="quantized conj(z)")
    if sym.tag == "q":
        return OperatorMatrix((az + az.T) / _SQRT2, 1, label="quantized q")
    if sym.tag == "p":
        return OperatorMatrix((az - az.T) / (1j * _SQRT2), 1, label="quantized p")
    if sym.tag == "abs_z_sq":
        ent = _energy_diagonal(m, dim, np.float64).astype(np.complex128)
        return OperatorMatrix(ent, 0, label="quantized |z|^2")
    a2 = np.diag(lowering_band(m, dim, 2), 2).astype(np.complex128)
    if sym.tag == "z_sq":
        return OperatorMatrix(a2, 2, label="quantized z^2")
    if sym.tag == "z_bar_sq":
        return OperatorMatrix(a2.T, 2, label="quantized conj(z)^2")
    diag = _energy_diagonal(m, dim, np.float64).astype(np.complex128)
    if sym.tag == "q_sq":
        return OperatorMatrix(diag + 0.5 * (a2 + a2.T), 2, label="quantized q^2")
    return OperatorMatrix(diag - 0.5 * (a2 + a2.T), 2, label="quantized p^2")


# --------------------------------------------------------- quadrature route

def quantize_by_quadrature(sym: SymbolSpec, spec: SubspaceSpec,
                           grid: QuadratureGrid) -> OperatorMatrix:
    """Matrix of the quantized symbol, A_f[nu, up] = int f(z) a_nu(z)
    conj(a_up(z)) dmeasure, by quadrature on the grid.

    The symbol is sampled once on the node matrix and the amplitudes once
    over the node radii (bgcs.radial_amplitudes, with ln I_m from the grid's
    profile cache); measure.angular_mode_matrix
    then takes one angular inverse FFT per radius (the trapezoid rule in
    angle is a DFT, so mode nu - up of that transform is exactly the angular
    sum of entry (nu, up)) and sums every entry against the grid's cached
    radial weight.  A non-finite
    symbol sample raises EvaluationError."""
    depth = spec.require_depth()
    m = spec.m
    need_degree = 2 * depth + m + sym.degree + 1
    if grid.max_degree < need_degree:
        raise ValueError(
            f"grid supports degree {grid.max_degree}, symbol needs {need_degree}")
    need_mode = depth + sym.degree
    if grid.max_mode < need_mode:
        raise ValueError(
            f"grid resolves modes to {grid.max_mode}, symbol needs {need_mode}")

    amp = _node_amplitudes(m, grid, depth + 1)
    entries = angular_mode_matrix(sym.evaluate(grid.z_nodes), amp, m, grid)
    return OperatorMatrix(entries, depth, label=f"quadrature({sym.tag})")


# ------------------------------------------------------------- mean values

def mean_matrix(op: OperatorMatrix, amplitudes: np.ndarray) -> complex:
    """Expectation <v|A|v> of a truncated operator in a given amplitude vector."""
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.size != op.dim:
        raise ValueError(f"vector length {v.size} does not match matrix dim {op.dim}")
    return complex(np.vdot(v, op.entries @ v))


def mean_values_on_bgcs(sym: SymbolSpec, label, m: int) -> complex:
    """Expectation of the quantized symbol in the coherent state with the
    given label, via the matrix route at automatic depth."""
    label = _as_label(label)
    state = bgcs_state(label, SubspaceSpec(m))
    op = quantize_closed_form(sym, SubspaceSpec(m, depth=max(state.depth, 8)))
    v = np.zeros(op.dim, dtype=np.complex128)
    v[:state.amplitudes.size] = state.amplitudes
    return mean_matrix(op, v)


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
    amplitude vector v in O(depth): A v = b v[1:] and A^T v = b v[:-1], each
    shifted into place, and X v = (A v +- A^T v)/sqrt2 (over i for p).  X is
    Hermitian, so Var X = <Xv, Xv> - <v, Xv>^2 is <v|X X|v> - <v|X|v>^2.
    Only the band and the amplitudes enter, never mean_k3.
    """
    label = _as_label(label)
    v = bgcs_state(label, SubspaceSpec(m)).amplitudes
    b = lowering_band(m, v.size)
    av = np.zeros_like(v)
    av[:-1] = b * v[1:]
    atv = np.zeros_like(v)
    atv[1:] = b * v[:-1]
    out = []
    for xv in ((av + atv) / _SQRT2, (av - atv) / (1j * _SQRT2)):
        first = np.vdot(v, xv)
        out.append(float((np.vdot(xv, xv) - first * first).real))
    return out[0], out[1]


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
    evaluated against the computed matrices rather than assumed.
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


def _interior(a: np.ndarray, margin: int) -> np.ndarray:
    return a[:a.shape[0] - margin, :a.shape[1] - margin]


def energy_operator_decomposition_check(m: int, spec: SubspaceSpec) -> DecompositionReport:
    """Brute-force the quantized-energy operator identities on sector m.

    All products run in 80-bit extended precision.  In the untruncated
    algebra the squared-coordinate residuals vanish identically (the
    quantized z^2 equals the square of the quantized z, entry by entry); the
    report records what the matrices actually say, and separately whether
    that matches the claimed extra single-entry projector corrections.
    """
    depth = spec.require_depth()
    dim = depth + 1
    az = np.diag(lowering_band(m, dim, 1, np.longdouble), 1)
    a2 = np.diag(lowering_band(m, dim, 2, np.longdouble), 2)
    diag = _energy_diagonal(m, dim, np.longdouble)
    azb = az.T
    comm_half = (az @ azb - azb @ az) / np.longdouble(2)

    q_sq_matrix = 0.5 * (az @ az + azb @ azb + az @ azb + azb @ az)
    p_sq_matrix = -0.5 * (az @ az + azb @ azb - az @ azb - azb @ az)
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
    matrix algebra vs banded closed forms, on the interior block."""
    depth = spec.require_depth()
    dim = depth + 1
    ld = np.longdouble
    band = lowering_band(m, dim, 1, ld)
    band2 = lowering_band(m, dim, 2, ld)
    az = np.diag(band, 1)
    a2 = np.diag(band2, 2)
    diag = _energy_diagonal(m, dim, ld)

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
