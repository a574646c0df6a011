"""Ladder operators on fixed angular-momentum subspaces of a charged particle
in a uniform magnetic field plus isotropic parabolic confinement.

The two-index basis |n, m> (n >= m >= 0) carries two commuting oscillator
ladders.  At fixed m the states are relabelled by the radial offset
nu = n - m, and the su(1,1) generators act tridiagonally:

    K+ |nu-1> = sqrt(nu (nu+m)) |nu>
    K- |nu>   = sqrt(nu (nu+m)) |nu-1>
    K3 |nu>   = (nu + (m+1)/2) |nu>

so [K+, K-] = -2 K3 and [K3, K+-] = +- K+-.  The individual linear-momentum
and center-coordinate ladders change m and so leave the subspace; inside it
only their products survive, and those are diagonal: the Hamiltonian they
assemble is hamiltonian_matrix.

Every operator is an OperatorMatrix built from its diagonals, which derives
its band from them.  lowering_band alone builds every
diagonal of K-^i K+^j; the ladders, the quantized symbols, their identity
checks and the thermal q^2 trace read it.  Each band is exact and depends
on (m, dim, step, raising, dtype) alone, so it is built once and kept,
read-only, in a memo of the last 64 bands: at most 10 MiB while each is a
float64 band no longer than the q^2 trace's 20000 entries (see
lowering_band).  ladder_matrix keeps its matrices the same way, keyed by
(kind, m, dim), in a memo of the last 16 up to dim 128: at most 4 MiB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, _order

_LADDER_KINDS = ("k_plus", "k_minus", "k3", "number")
# bands kept by the lowering_band memo
_BAND_MEMO_SIZE = 64
# ladder matrices kept by the ladder_matrix memo, and the largest dim kept
_LADDER_MEMO_SIZE = 16
_LADDER_MEMO_DIM = 128


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
    Both are stored as the ints specfun._order returns, so SubspaceSpec(2.0)
    is SubspaceSpec(2); anything else raises DomainError.
    """

    m: int
    depth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _order(self.m, "m"))
        if self.depth is not None:
            depth = _order(self.depth, "depth")
            if depth < 8:
                raise DomainError(f"explicit depth must be an integer >= 8, got {self.depth!r}")
            object.__setattr__(self, "depth", depth)

    def require_depth(self) -> int:
        if self.depth is None:
            raise DomainError("this operation needs an explicit truncation depth")
        return self.depth


@dataclass(frozen=True, init=False, eq=False)
class OperatorMatrix:
    """Truncated operator built from its diagonals.

    OperatorMatrix(dim, {offset: values}, label) lays each diagonal out in a
    fresh (dim, dim) complex128 array, entries, which is read-only; offset k
    is the diagonal np.diag(entries, k), so it needs dim - |k| values.  band
    is derived, never declared: the largest |k| whose diagonal has a nonzero
    real or imaginary part (NaN counts, -0.0 does not), 0 for a diagonal or
    zero operator.
    """

    entries: np.ndarray
    band: int
    label: str

    def __init__(self, dim: int, diagonals: dict, label: str = ""):
        entries = np.zeros((dim, dim), dtype=np.complex128)
        flat = entries.reshape(-1)
        band = 0
        for k, values in diagonals.items():
            size = dim - abs(k)
            d = np.asarray(values)
            if size < 1 or d.shape != (size,):
                raise DomainError(f"diagonal {k} of a dimension-{dim} operator "
                                  f"needs {max(size, 0)} values, got shape {d.shape}")
            start = k if k >= 0 else -k * dim
            flat[start::dim + 1][:size] = d
            if d.any():
                band = max(band, abs(k))
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "label", label)


def lowering_band(m: int, dim: int, step: int = 1, dtype=np.float64,
                  raising: int = 0) -> np.ndarray:
    """The one nonzero diagonal of K-^step K+^raising on a dim-state
    truncation of sector m, as in the untruncated algebra: offset
    k = step - raising (np.diag(band, k) places it), and entry t is
    <row| K-^step K+^raising |row+k> = sqrt(P(row, step) P(row+k, raising))
    with row = t + max(-k, 0) and P(a, s) = prod_{l=1..s} (a+l)(m+a+l).

    The integer product is formed exactly, in int64 while the largest one
    (the last entry's) stays below 2^63 and in Python ints beyond, and
    rounded once into the real dtype before a single square root, so
    float64 and np.longdouble callers each get correctly rounded entries;
    where raising == step, the root P(row, step) is rounded instead.

    m, step and raising are orders (specfun._order) and dim an integer
    >= 1, else DomainError.  A band depends on those and the dtype alone,
    so it is built once and served read-only from a memo of the last
    _BAND_MEMO_SIZE (64) bands asked for.  A band of n entries holds 8n
    bytes (16n in longdouble).  The q^2 trace asks for up to 20000 entries
    (160 kB), and 64 such bands take 10 MiB; the memo holds more only where
    callers ask for longer bands, such as a deep ladder_matrix or the
    dispersions of a label at large |z|.
    """
    m, step, raising = _order(m, "m"), _order(step, "step"), _order(raising, "raising")
    dim = _order(dim, "dim")
    if dim < 1:
        raise DomainError(f"dim must be an integer >= 1, got {dim!r}")
    return _band(m, dim, step, np.dtype(dtype), raising)


@functools.lru_cache(maxsize=_BAND_MEMO_SIZE)
def _band(m: int, dim: int, step: int, dtype: np.dtype, raising: int) -> np.ndarray:
    # the build behind lowering_band, on validated ints
    k = step - raising
    n = dim - abs(k)
    row = max(-k, 0)
    # entry t is the product over the shifts s of (t+s)(m+t+s)
    shifts = [*range(row + 1, row + step + 1), *range(row + k + 1, row + k + raising + 1)]
    if not shifts:
        band = np.ones(n, dtype)
    else:
        if raising == step:
            shifts = shifts[:step]
        largest = math.prod((n - 1 + s) * (m + n - 1 + s) for s in shifts)
        t = np.arange(n, dtype=np.int64 if largest < 2 ** 63 else object)
        first, *rest = shifts
        prod = (t + first) * (t + (m + first))
        for s in rest:
            prod *= t + s
            prod *= t + (m + s)
        band = np.asarray(prod, dtype=dtype)
        if raising != step:
            band = np.sqrt(band)
    band.flags.writeable = False
    return band


def ladder_matrix(kind: str, spec: SubspaceSpec) -> OperatorMatrix:
    """Truncated matrix of one su(1,1) generator on the m sector: k_plus,
    k_minus, k3 or number, each exact within the sector.

    A matrix depends on (kind, m, dim) alone.  Up to dim _LADDER_MEMO_DIM
    (128, 256 KiB of complex128 entries) it is built once and served, the
    same read-only OperatorMatrix, from a memo of the last _LADDER_MEMO_SIZE
    (16) asked for: at most 4 MiB.  A larger one is built on each call."""
    if kind not in _LADDER_KINDS:
        raise DomainError(f"unknown ladder kind {kind!r}; expected one of {_LADDER_KINDS}")
    n = spec.require_depth() + 1
    if n <= _LADDER_MEMO_DIM:
        return _ladder(kind, spec.m, n)
    return _ladder.__wrapped__(kind, spec.m, n)


@functools.lru_cache(maxsize=_LADDER_MEMO_SIZE)
def _ladder(kind: str, m: int, n: int) -> OperatorMatrix:
    # the build behind ladder_matrix, on a checked kind and ints
    if kind in ("k_plus", "k_minus"):
        return OperatorMatrix(n, {1 if kind == "k_minus" else -1: lowering_band(m, n)},
                              label=kind)
    nu = np.arange(n)
    if kind == "k3":
        return OperatorMatrix(n, {0: nu + 0.5 * (m + 1)}, label="k3")
    return OperatorMatrix(n, {0: nu}, label="number")


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
    return OperatorMatrix(K + 1, {0: [level_energy(m + nu, m, params) for nu in range(K + 1)]},
                          label="hamiltonian")
