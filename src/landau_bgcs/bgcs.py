"""Coherent states on a fixed angular-momentum sector: lowering-operator
eigenstates labeled by a complex number, their overlap kernel, photon
statistics and label dynamics.

Amplitudes in the nu-basis are
    a_nu = |z|^(m/2) z^nu / (sqrt(I_m(2|z|)) sqrt(nu! (nu+m)!)),
always assembled in log space.  Whatever takes one number runs on Python
floats: ln I_m(2|z|), the auto-depth tail test and the reduced series.  The
amplitude vector is the same formula elementwise, with ln nu! + ln (nu+m)!
read as two slices of the ln k! table while nu + m <= 512.  A float
and an array element see the same operations in the same order, so they
round alike.  Every overlap is evaluated through the
single-valued series in w = conj(z') z,
    sum_nu w^nu / (nu! (nu+m)!),
so no fractional power of a complex argument is ever taken: the kernel is
branch-free by construction and the Cauchy-Schwarz bound |<z'|z>| <= 1 holds
with equality exactly on the diagonal.  The reproducing-kernel check forms
the same kernel the other way, from the amplitudes, as one radial sum.

Memos.  Every statistic of a label is a ratio of I_m, I_{m+1} and I_{m+2} at
2|z|, and a label's state, statistics, overlap and matrix routes ask for the
same few values.  Two private least-recently-used memos of 64 entries each
serve those repeats from one evaluation: the real reduced series R_k(u)
keyed by (k, u), and the StateVector of bgcs_state keyed by (label, the
signs of its components, m, depth, tail_tol) and their types.  Only real
floats reach the series memo; the public specfun kernels stay uncached, so
past |z| = 40, where the ratios read e^{-x} I_k(x) instead of the series,
each route evaluates its own.  A hit returns what a fresh build returns,
field for field, and an exception is never stored, so a repeat raises
again.  A label's state, statistics and overlap store one state and at
most four series values, so the memos keep the last dozen or more
labels.  A cyclic pass over more than 64 distinct labels, such as a
benchmark round of 512, finds nothing from its previous pass but the one
normaliser its last overlap stored for the first label, which hits only
where those two labels share an order.  The state memo keeps up to 64
amplitude vectors alive, 16 bytes per level.

The ln k! table is the exact one of specfun through k = 256.  A call that
needs ln k! past the table's end appends the scalar ln_factorial(j) for
every j up to k, or up to 512 where k is larger, so the table grows to at
most 513 entries (4 kB) and holds the bits the scalar kernel gives; it is
never shrunk.  Nothing past 256 is computed at import, and each element
past 512 calls the scalar kernel.  The bound covers nu + m of every
amplitude the grid routes admit (at most 485).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .fock import PhysicalParams, SubspaceSpec
from .specfun import (
    DomainError,
    EvaluationError,
    _LN_FACT_TABLE,
    _Record,
    _order,
    bessel_i_reduced,
    bessel_i_scaled,
    ln_factorial,
)

if TYPE_CHECKING:
    from .measure import QuadratureGrid

_TWO_PI = 2.0 * math.pi
DEFAULT_TAIL_TOL = 1e-16
# label truncation for the kernel check: the last kept |a_nu|^2 is below this
_KERNEL_TAIL_TOL = 1e-300

# reduced-series vs scaled-Bessel switchover radius for mean-value ratios
_RATIO_SWITCH = 40.0
# ln k!, the exact table of specfun.ln_factorial through k = 256, grown on
# demand up to _LN_FACT_BOUND by _ln_fact_table
_LN_FACT = np.array(_LN_FACT_TABLE)
# the largest k the table grows to; nu + m of every amplitude the grid
# routes admit is at most 485
_LN_FACT_BOUND = 512
# entries per memo (see the module docstring)
_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _reduced(k: int, u: float) -> float:
    # R_k(u) at real u >= 0
    return bessel_i_reduced(k, u)


@dataclass(frozen=True)
class CoherentLabel(_Record):
    """Complex label z with canonical polar data.

    rho and phi are derived on construction; from_polar stores the supplied
    modulus verbatim so that pure phase rotations preserve every
    modulus-dependent quantity bit-for-bit.
    """

    re: float = 0.0
    im: float = 0.0
    rho: float = field(init=False, repr=False)
    phi: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError("label components must be finite")
        object.__setattr__(self, "rho", math.hypot(self.re, self.im))
        object.__setattr__(self, "phi", math.atan2(self.im, self.re) % _TWO_PI)

    @classmethod
    def from_complex(cls, z: complex) -> "CoherentLabel":
        z = complex(z)
        return cls(re=z.real, im=z.imag)

    @classmethod
    def from_polar(cls, rho: float, phi: float) -> "CoherentLabel":
        if not (math.isfinite(rho) and rho >= 0.0):
            raise DomainError(f"modulus must be finite and >= 0, got {rho}")
        phi = float(phi) % _TWO_PI
        label = cls(re=rho * math.cos(phi), im=rho * math.sin(phi))
        object.__setattr__(label, "rho", float(rho))
        object.__setattr__(label, "phi", phi)
        return label

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


def _as_label(label) -> CoherentLabel:
    if isinstance(label, CoherentLabel):
        return label
    return CoherentLabel.from_complex(label)


@dataclass(frozen=True)
class StateVector:
    """Truncated amplitude vector on one m sector.

    Norm may not exceed 1 (up to 1e-12 roundoff headroom); a tail_tol records
    the auto-depth stopping criterion the vector was built under, enforced on
    the last amplitude.
    """

    m: int
    amplitudes: np.ndarray
    label: CoherentLabel | None = None
    tail_tol: float | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d array")
        object.__setattr__(self, "m", _order(self.m, "m"))
        norm = _norm_sq(a)
        if norm > 1.0 + 1e-12:
            raise ValueError(f"amplitude norm {norm} exceeds 1")
        if self.tail_tol is not None:
            last = abs(a[-1]) ** 2
            if last >= self.tail_tol:
                raise ValueError(
                    f"tail amplitude |a_K|^2 = {last:.3e} above tolerance")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def depth(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm_sq(self) -> float:
        return _norm_sq(self.amplitudes)


def _norm_sq(a: np.ndarray) -> float:
    # exactly rounded, so independent of the summation order
    return math.fsum((a.real ** 2 + a.imag ** 2).tolist())


def _ln_bessel_i(m: int, r: float) -> float:
    # log of I_m(2r) without overflow or small-argument underflow
    if r <= _RATIO_SWITCH:
        return m * math.log(r) + math.log(_reduced(m, r * r))
    return math.log(bessel_i_scaled(m, 2.0 * r)) + 2.0 * r


def _ln_fact_table(top: int) -> np.ndarray:
    # ln k! for k <= min(top, _LN_FACT_BOUND) at least: the exact table of
    # specfun, grown on demand by the scalar ln_factorial past k = 256.
    # Callers read the table returned, so two threads growing it at once
    # only repeat work
    global _LN_FACT
    table = _LN_FACT
    top = min(top, _LN_FACT_BOUND)
    if top >= table.size:
        grown = [ln_factorial(j) for j in range(table.size, top + 1)]
        table = _LN_FACT = np.concatenate((table, grown))
    return table


def _ln_factorials(k: np.ndarray) -> np.ndarray:
    # ln k! over a 1-d integer array: the table, and the scalar kernel past
    # its bound
    table = _ln_fact_table(int(k.max(initial=0)))
    top = table.size - 1
    out = table[np.minimum(k, top)]
    big = k > top
    if big.any():
        out[big] = [ln_factorial(j) for j in k[big].tolist()]
    return out


def _ln_fact_pairs(m: int, n: int) -> np.ndarray:
    # ln nu! + ln (nu+m)! for nu < n: two slices of the table while nu + m
    # stays in its bound, elementwise past it
    table = _ln_fact_table(m + n - 1)
    if m + n <= table.size:
        return table[:n] + table[m:m + n]
    nu = np.arange(n)
    return _ln_factorials(nu) + _ln_factorials(nu + m)


def _ln_amplitude(m: int, ln_r, nu, ln_i):
    """ln a_nu = (m/2 + nu) ln r - ln I_m(2r)/2 - ln(nu! (nu+m)!)/2, for an
    int nu or for nu = np.arange(n), broadcast against ln r and ln I_m(2r)
    (floats, or columns over radii).  An int nu with float ln r and ln I_m
    runs on floats throughout; an array runs the same operations in the
    same order elementwise, so either rounds alike."""
    if isinstance(nu, np.ndarray):
        ln_fact = _ln_fact_pairs(m, nu.size)
    else:
        ln_fact = ln_factorial(nu) + ln_factorial(nu + m)
    return (0.5 * m + nu) * ln_r - 0.5 * ln_i - 0.5 * ln_fact


def _auto_depth(m: int, r: float, tail_tol: float, ln_i: float) -> int:
    """The first depth, from a Poisson-like start in steps of 16, whose
    |a_depth|^2 is below tail_tol.  The tail test is _ln_amplitude at an
    int depth, on floats: the operations of the amplitude vector's element,
    in the same order, so the test reads the bits that element will have,
    and no step builds an array."""
    ln_r, ln_tol = math.log(r), math.log(tail_tol)
    depth = max(30, math.ceil(2.0 * math.e * r) + math.ceil(10.0 * math.sqrt(r + 1.0)))
    while 2.0 * _ln_amplitude(m, ln_r, depth, ln_i) >= ln_tol:
        depth += 16
        if depth > 200_000:
            raise DomainError("auto depth selection diverged")
    return depth


def bgcs_state(label, spec: SubspaceSpec,
               tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Lowering-operator eigenstate with eigenvalue label.z on sector spec.m.

    With spec.depth None the truncation is chosen from the Poisson-like tail
    of the nu distribution and then extended until the last probability drops
    below tail_tol; an explicit depth is honored as given (without the tail
    guarantee).  Served from the state memo on a repeat (module docstring).
    """
    label = _as_label(label)
    signs = (math.copysign(1.0, label.re), math.copysign(1.0, label.im),
             math.copysign(1.0, label.rho))
    return _state(label, signs, spec.m, spec.depth, tail_tol)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _state(label: CoherentLabel, signs: tuple, m: int, depth: int | None,
           tail_tol: float) -> StateVector:
    # the build behind bgcs_state; signs keeps apart labels that differ only
    # in the sign of a zero component, which compare and hash equal
    r = label.rho
    if r == 0.0:
        amps = np.zeros((depth if depth is not None else 30) + 1, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(m=m, amplitudes=amps, label=label,
                           tail_tol=tail_tol if depth is None else None)
    ln_i = _ln_bessel_i(m, r)
    if depth is None:
        depth = _auto_depth(m, r, tail_tol, ln_i)
        checked = tail_tol
    else:
        checked = None
    nu = np.arange(depth + 1)
    ln_mag = _ln_amplitude(m, math.log(r), nu, ln_i)
    amps = np.exp(ln_mag) * np.exp(1j * label.phi * nu)
    return StateVector(m=m, amplitudes=amps, label=label, tail_tol=checked)


def _node_amplitudes(m: int, grid: QuadratureGrid, n: int) -> np.ndarray:
    # amplitudes a_nu(r), nu < n, of the real labels r at the grid's nodes,
    # one row per node: the log-space formula of bgcs_state, with ln I_m(2r)
    # from the grid's cache
    return np.exp(_ln_amplitude(m, np.log(grid.nodes)[:, None], np.arange(n),
                                grid._ln_bessel("i", m)[:, None]))


def _gram_diagonal(m: int, grid: QuadratureGrid, n: int) -> np.ndarray:
    # G_nu = int |a_nu(u)|^2 dmeasure = 2 pi sum_r radial_weight(m) a_nu(r)^2,
    # nu < n, the angular integral being exact; cached on the grid per (m, n)
    def build():
        amp = _node_amplitudes(m, grid, n)
        return _TWO_PI * (grid.radial_weight(m) @ (amp * amp))
    return grid._cached(("gram", m, n), build)


def probability_density(label, m: int, nu: int) -> float:
    """Closed-form occupation probability |z|^(2 nu + m)/(I_m(2|z|) nu! (nu+m)!)."""
    nu, m = _order(nu, "nu"), _order(m, "m")
    label = _as_label(label)
    r = label.rho
    if r == 0.0:
        return 1.0 if nu == 0 else 0.0
    return math.exp(2.0 * _ln_amplitude(m, math.log(r), nu, _ln_bessel_i(m, r)))


# ------------------------------------------------------------------ kernel

def _in_double_range(m: int, values: list[float]) -> list[float]:
    # series values of size ~1/m! go subnormal from m = 171 and underflow to
    # 0 from m = 178; past that no ratio of them means anything
    for v in values:
        if not sys.float_info.min <= v < math.inf:
            raise EvaluationError(
                f"order-{m} Bessel series value {v!r} is outside the normal double range")
    return values


def overlap(zp, z, m: int) -> complex:
    """Inner product of the state labeled zp (bra) with the one labeled z (ket).

    Equal to S_m(conj(zp) z) / sqrt(S_m(|zp|^2) S_m(|z|^2)) where S_m is the
    entire series sum_nu w^nu/(nu!(nu+m)!); all fractional-power prefactors
    cancel identically in this form.  The denominator is sqrt(S) sqrt(S), so
    it stays in range while each S_m(|z|^2) does; where one leaves the normal
    double range (at small |z| from m = 171) EvaluationError is raised.
    """
    m = _order(m, "m")
    zp, z = _as_label(zp), _as_label(z)
    num = bessel_i_reduced(m, zp.z.conjugate() * z.z)
    d1, d2 = _in_double_range(m, [_reduced(m, zp.rho * zp.rho), _reduced(m, z.rho * z.rho)])
    return num / (math.sqrt(d1) * math.sqrt(d2))


def kernel_idempotence_check(z, zp, m: int, grid: QuadratureGrid) -> float:
    """|quadrature of K(z,u) K(u,zp) du - K(z,zp)|: the reproducing-kernel
    self-consistency residual on the given grid.

    The angular integral is exact, so the quadrature is the radial Gram sum
    sum_nu conj(a_nu(z)) a_nu(zp) G_nu over the nu both labels keep
    (_gram_diagonal), and the reference K(z, zp) comes from the reduced
    series (overlap): the two share no formula beyond the quadrature."""
    z, zp = _as_label(z), _as_label(zp)
    a, ap = (bgcs_state(x, SubspaceSpec(m), tail_tol=_KERNEL_TAIL_TOL).amplitudes
             for x in (z, zp))
    n = min(a.size, ap.size)
    quad = complex(np.sum(np.conj(a[:n]) * ap[:n] * _gram_diagonal(m, grid, n)))
    return abs(quad - overlap(z, zp, m))


# ------------------------------------------------------- photon statistics

def _bessel_series(m: int, r: float) -> tuple[float, list[float]]:
    # (u, [f0, f1, f2]) with r^k I_{m+k}(2r) / I_m(2r) = u^k f_k / f_0:
    # reduced series at u = r^2 up to the switch, scaled Bessel at u = r
    # beyond; both leave the double range at large m (the scaled one at
    # m = 1500, r = 41)
    if r <= _RATIO_SWITCH:
        u = r * r
        return u, [_reduced(m + k, u) for k in range(3)]
    return r, _in_double_range(m, [bessel_i_scaled(m + k, 2.0 * r) for k in range(3)])


def _step_ratios(m: int, r: float, second: bool = True) -> tuple[float, float]:
    # (R1, R2) = (|z| I_{m+1} / I_m, |z|^2 I_{m+2} / I_m) at argument 2|z|;
    # zero at z = 0 even where 1/m! underflows.  R2 ~ |z|^2 overflows past
    # sqrt(DBL_MAX); a caller that reads only R1 passes second=False
    m = _order(m, "m")
    if r == 0.0:
        return 0.0, 0.0
    u, (f0, f1, f2) = _bessel_series(m, r)
    r1, r2 = u * f1 / f0, u * u * f2 / f0
    if not (math.isfinite(r1) and (math.isfinite(r2) or not second)):
        raise EvaluationError(
            f"Bessel ratio at m={m}, |z|={r!r} is outside the double range "
            f"(R1 = {r1!r}, R2 = {r2!r})")
    return r1, r2


def mean_n(label, m: int) -> float:
    """Mean radial quantum number |z| I_{m+1}(2|z|)/I_m(2|z|)."""
    return _step_ratios(m, _as_label(label).rho, second=False)[0]


def mean_n_sq(label, m: int) -> float:
    """Second moment |z|^2 I_{m+2}/I_m + |z| I_{m+1}/I_m."""
    r1, r2 = _step_ratios(m, _as_label(label).rho)
    return r2 + r1


def mean_k3(label, m: int) -> float:
    """Mean of the diagonal su(1,1) generator: mean_n + (m+1)/2."""
    return mean_n(label, m) + 0.5 * (m + 1)


def g2(label, m: int) -> float:
    """Intensity correlation I_m I_{m+2} / I_{m+1}^2 at argument 2|z|.

    Finite at z = 0 with value (m+1)/(m+2); approaches 1 from below as
    |z| grows (always sub-Poissonian).  Formed as (f0/f1)(f2/f1), so no
    product of two series of size ~1/m! is taken.
    """
    m = _order(m, "m")
    r = _as_label(label).rho
    if r == 0.0:
        return (m + 1) / (m + 2)
    _, f = _bessel_series(m, r)
    f0, f1, f2 = _in_double_range(m, f)
    return (f0 / f1) * (f2 / f1)


def mandel_q(label, m: int) -> float:
    """(variance - mean)/mean of the radial quantum number; <= 0 here.

    Assembled as (R2 - R1^2)/R1 from the two Bessel ratios, which is free of
    the catastrophic cancellation the literal moment difference would incur
    at small |z|."""
    r = _as_label(label).rho
    if r == 0.0:
        raise DomainError("Mandel parameter undefined at z = 0 (zero mean)")
    r1, r2 = _step_ratios(m, r)
    return (r2 - r1 * r1) / r1


def fano(label, m: int) -> float:
    """Noise-to-signal variance ratio: mandel_q + 1."""
    return mandel_q(label, m) + 1.0


def snr(label, m: int) -> float:
    """Signal-to-noise ratio 2|z|^2 cos^2(phi)/mean_k3 of the dimensionless
    position quadrature."""
    label = _as_label(label)
    trig = math.cos(label.phi)
    try:
        scale = 2.0 * label.rho ** 2
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise EvaluationError(f"snr: 2|z|^2 overflows at |z| = {label.rho!r}")
    return scale * trig * trig / mean_k3(label, m)


# ------------------------------------------------------------------ dynamics

def evolve_label(label, t: float, params: PhysicalParams) -> CoherentLabel:
    """Rotate the label at the slow frequency: z -> z e^{-i (Omega-omega_c) t / 2}.

    The modulus is carried over exactly, so every |z|-only observable is
    preserved bit-for-bit along the orbit.
    """
    label = _as_label(label)
    return CoherentLabel.from_polar(label.rho, label.phi - params.omega_minus * t)

