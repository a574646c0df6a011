"""Ladder operators on fixed angular-momentum subspaces of a charged particle
in a uniform magnetic field plus isotropic parabolic confinement.

The two-index basis |n, m> (n >= m >= 0) carries two commuting oscillator
ladders.  At fixed m the states are relabelled by the radial offset
nu = n - m, and the su(1,1) generators act tridiagonally:

    K+ |nu-1> = sqrt(nu (nu+m)) |nu>
    K- |nu>   = sqrt(nu (nu+m)) |nu-1>
    K3 |nu>   = (nu + (m+1)/2) |nu>

so [K+, K-] = -2 K3 and [K3, K+-] = +- K+-.  The individual linear-momentum
and center-coordinate ladders change m and therefore leave the subspace;
requesting them yields flagged diagonal/band surrogates that are only
meaningful inside the products used by the Hamiltonian reconstruction.

All matrices are dense complex128 with explicit bandwidth metadata, laid out
with np.diag from whole index vectors.  lowering_band is the one builder of the
K- and K-^2 bands; the quantized symbols and their identity checks read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, _order

_LADDER_KINDS = ("pi_plus", "pi_minus", "x_plus", "x_minus",
                 "k_plus", "k_minus", "k3", "number")


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants: confinement frequency, cyclotron frequency, hbar, mass.

    The composite frequency Omega = sqrt(omega_c^2 + 4 omega0^2) and the slow
    frequency (Omega - omega_c)/2 are always derived, never stored.
    """

    omega0: float = 1.0
    omega_c: float = 1.0
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("omega0", "omega_c", "hbar", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.omega0 < 0.0 or self.omega_c < 0.0:
            raise DomainError("frequencies must be non-negative")
        if self.omega0 == 0.0 and self.omega_c == 0.0:
            raise DomainError("omega0 and omega_c cannot both vanish")
        if self.hbar <= 0.0 or self.mass <= 0.0:
            raise DomainError("hbar and mass must be positive")

    @property
    def omega(self) -> float:
        """Composite frequency Omega = sqrt(omega_c^2 + 4 omega0^2)."""
        return math.hypot(self.omega_c, 2.0 * self.omega0)

    @property
    def omega_minus(self) -> float:
        """Slow rotation frequency (Omega - omega_c)/2 of the center ladder."""
        return 0.5 * (self.omega - self.omega_c)

    @property
    def magnetic_length(self) -> float:
        """l = sqrt(hbar / (mass Omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))

    @property
    def slow_length(self) -> float:
        """l_minus = sqrt(hbar / (mass (Omega - omega_c)/2)); needs omega0 > 0."""
        om = self.omega_minus
        if om <= 0.0:
            raise DomainError("slow length undefined without confinement (omega0 = 0)")
        return math.sqrt(self.hbar / (self.mass * om))

    @property
    def epsilon_gap(self) -> float:
        """Ladder energy quantum hbar (Omega - omega_c)/2 of the nu index."""
        return self.hbar * self.omega_minus


@dataclass(frozen=True)
class SubspaceSpec:
    """Fixed angular-momentum sector m with truncation depth (max nu).

    depth=None requests automatic depth selection where supported (coherent
    state construction); matrix builders require an explicit depth >= 8.
    """

    m: int
    depth: int | None = None

    def __post_init__(self):
        _order(self.m, "m")
        if self.depth is not None and (self.depth < 8 or self.depth != int(self.depth)):
            raise ValueError(f"explicit depth must be an integer >= 8, got {self.depth!r}")

    def require_depth(self) -> int:
        if self.depth is None:
            raise ValueError("this operation needs an explicit truncation depth")
        return int(self.depth)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense truncated operator with bandwidth metadata.

    entries is (depth+1) x (depth+1) complex128 and read-only; band is the
    largest |row - col| carrying a nonzero entry (0 = diagonal); surrogate
    marks within-subspace stand-ins for operators that genuinely map between
    different m sectors.
    """

    entries: np.ndarray
    band: int
    label: str = ""
    surrogate: bool = False

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.complex128, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"entries must be square, got shape {a.shape}")
        n = a.shape[0]
        if not 0 <= self.band < n:
            raise ValueError(f"band {self.band} incompatible with dimension {n}")
        # every nonzero real or imaginary part (NaN counts, -0.0 does not)
        # must lie on a diagonal within the band; counted on views of the
        # stored copy, so no (n, n) mask or temporary is built
        diagonals = (np.diagonal(a, k) for k in range(-self.band, self.band + 1))
        inside = sum(np.count_nonzero(d.real) + np.count_nonzero(d.imag) for d in diagonals)
        if np.count_nonzero(a.view(np.float64)) != inside:
            raise ValueError("nonzero entries outside the declared band")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Hermitian adjoint, preserving bandwidth metadata."""
    return OperatorMatrix(op.entries.conj().T, op.band,
                          label=f"adjoint({op.label})", surrogate=op.surrogate)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = ab - ba on the common truncation."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    band = min(a.band + b.band, a.dim - 1)
    ab = a.entries @ b.entries - b.entries @ a.entries
    # product truncation can only populate the combined band
    return OperatorMatrix(ab, band, label=f"[{a.label},{b.label}]",
                          surrogate=a.surrogate or b.surrogate)


def lowering_band(m: int, dim: int, step: int = 1, dtype=np.float64) -> np.ndarray:
    """Band <nu| K-^step |nu+step> = sqrt(prod_{j=1..step} (nu+j)(m+nu+j)),
    nu = 0 .. dim-step-1, of the step-th power of the lowering generator on a
    dim-state truncation of sector m.

    The integer product is formed exactly and rounded once into the real
    dtype before a single square root, so float64 and np.longdouble callers
    each get correctly rounded entries.  np.diag(band, step) places it as
    K-^step and np.diag(band, -step) as K+^step.
    """
    nu = np.arange(dim - step, dtype=object)
    prod = 1
    for j in range(1, step + 1):
        prod = prod * (nu + j) * (m + nu + j)
    return np.sqrt(np.asarray(prod, dtype=dtype))


def ladder_matrix(kind: str, spec: SubspaceSpec) -> OperatorMatrix:
    """Truncated matrix of one ladder generator on the m sector.

    kinds: k_plus, k_minus, k3, number act within the sector and are exact;
    pi_plus/pi_minus return the diagonal of their within-sector product
    (the individual factors shift both n and m) and x_plus/x_minus return
    slot-shift band surrogates (the individual factors shift m), all four
    flagged surrogate=True.
    """
    if kind not in _LADDER_KINDS:
        raise ValueError(f"unknown ladder kind {kind!r}; expected one of {_LADDER_KINDS}")
    n = spec.require_depth() + 1
    m = spec.m
    nu = np.arange(n)
    if kind in ("k_plus", "k_minus"):
        # complex before np.diag, so no real (n, n) copy is ever made
        band = lowering_band(m, n).astype(np.complex128)
        return OperatorMatrix(np.diag(band, 1 if kind == "k_minus" else -1), 1,
                              label=kind)
    if kind == "k3":
        return OperatorMatrix(np.diag(nu + 0.5 * (m + 1)), 0, label="k3")
    if kind == "number":
        return OperatorMatrix(np.diag(nu), 0, label="number")
    if kind in ("pi_plus", "pi_minus"):
        # within-sector surrogate: only the product pi+ pi- = diag(n) survives
        return OperatorMatrix(np.diag(m + nu), 0, label=f"{kind}(product surrogate)",
                              surrogate=True)
    # x_plus is the slot-lowering shadow of the m-raising center ladder,
    # x_minus the slot-raising shadow of the m-lowering one
    root = np.sqrt(nu[1:])
    if kind == "x_plus":
        return OperatorMatrix(np.diag(root, 1), 1, label="x_plus(surrogate)",
                              surrogate=True)
    return OperatorMatrix(np.diag(root, -1), 1, label="x_minus(surrogate)",
                          surrogate=True)


def level_energy(n: int, m: int, params: PhysicalParams) -> float:
    """Spectrum value hbar Omega (n + 1/2) - (hbar/2)(Omega - omega_c) m."""
    if _order(n, "n") < _order(m, "m"):
        raise DomainError(f"level indices need n >= m >= 0, got n={n}, m={m}")
    om = params.omega
    return params.hbar * om * (n + 0.5) \
        - 0.5 * params.hbar * (om - params.omega_c) * m


def hamiltonian_matrix(spec: SubspaceSpec, params: PhysicalParams) -> OperatorMatrix:
    """Diagonal truncated Hamiltonian on the m sector (closed-form spectrum)."""
    K = spec.require_depth()
    m = spec.m
    a = np.zeros((K + 1, K + 1), dtype=np.complex128)
    for nu in range(K + 1):
        a[nu, nu] = level_energy(m + nu, m, params)
    return OperatorMatrix(a, 0, label="hamiltonian")


def hamiltonian_from_ladders(spec: SubspaceSpec, params: PhysicalParams) -> OperatorMatrix:
    """Hamiltonian reassembled from dimensionful ladder products.

    (1/2) [ (pi+ pi- / 2M)(1 + omega_c/Omega)
            + (M Omega^2 / 2)(1 - omega_c/Omega) X- X+  + hbar Omega ]
    with pi+ pi- = 2 M Omega hbar diag(n) and X- X+ = 2 l^2 diag(nu) built
    from the surrogate matrices; must reproduce hamiltonian_matrix exactly.
    """
    K = spec.require_depth()
    om = params.omega
    hbar, mass = params.hbar, params.mass
    l2 = params.magnetic_length ** 2
    pi_product = 2.0 * mass * om * hbar * ladder_matrix("pi_plus", spec).entries
    x_product = 2.0 * l2 * (ladder_matrix("x_minus", spec).entries
                            @ ladder_matrix("x_plus", spec).entries)
    ident = np.eye(K + 1, dtype=np.complex128)
    h = 0.5 * (pi_product / (2.0 * mass) * (1.0 + params.omega_c / om)
               + 0.5 * mass * om * om * (1.0 - params.omega_c / om) * x_product
               + hbar * om * ident)
    return OperatorMatrix(h, 0, label="hamiltonian(ladder route)")
