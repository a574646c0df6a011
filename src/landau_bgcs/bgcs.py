"""Coherent states on a fixed angular-momentum sector: lowering-operator
eigenstates labeled by a complex number, their overlap kernel, photon
statistics and label dynamics.

Amplitudes in the nu-basis are
    a_nu = |z|^(m/2) z^nu / (sqrt(I_m(2|z|)) sqrt(nu! (nu+m)!)),
always assembled in log space.  Whatever takes one number runs on Python
floats: ln I_m(2|z|), a single level's probability and the reduced series.
The amplitude vector is the same formula elementwise, with ln nu! + ln (nu+m)!
read from specfun's ln k! (below).  A float and an array element see the
same operations in the same order, so they round alike.  The auto depth is
read off the vector's own ln a_nu row, whose prefix the amplitudes then
exponentiate, so the tail test reads the bits of the amplitude it tests.
Every overlap is
evaluated through the single-valued series in w = conj(z') z,
    sum_nu w^nu / (nu! (nu+m)!),
so no fractional power of a complex argument is ever taken: the kernel is
branch-free by construction and the Cauchy-Schwarz bound |<z'|z>| <= 1 holds
with equality exactly on the diagonal.  The reproducing-kernel check forms
the same kernel the other way, from the amplitudes, as one radial sum.

Memos.  Every statistic of a label is a ratio of I_m, I_{m+1} and I_{m+2} at
2|z|, and a label's state, statistics, overlap and matrix routes ask for the
same few values.  Five private least-recently-used memos of 64 entries each
serve those repeats from one evaluation:
  - the real reduced series R_k(u), keyed by (k, u): one float each;
  - the tuple (R_m, R_{m+1}, R_{m+2})(u) that each statistic reads in one
    lookup, keyed by (m, u) and built from three reads of the first, so the
    R_m a state build stored is read again: three floats each;
  - past |z| = 40, where the ratios read e^{-x} I_k(x) instead of the
    series, the tuple e^{-x} (I_m, I_{m+1}, I_{m+2})(x) at x = 2|z|, keyed
    by (m, |z|), whose first entry is the state build's ln I_m(2|z|): three
    floats each, so a label's state and statistics evaluate three scaled
    Bessels;
  - the StateVector of bgcs_state, keyed by (label, the signs of its
    components, m, depth, tail_tol) and their types: one amplitude vector
    each, 16 bytes per level;
  - the read-only rows nu, m/2 + nu and (ln nu! + ln (nu+m)!)/2 that the
    amplitudes of sector m at n levels take from (m, n) alone, keyed by
    (m, n) for n up to 1024 (a longer set is built on each call): 24 bytes
    per level, at most 1.5 MiB in all.
Only real floats reach the series memos.  No public specfun kernel's result
is memoised (specfun memoises only the K_0/K_1 pair per float argument that
bessel_k raises to each order); these memos are bgcs's own.  A hit returns
what a fresh build returns, bit for bit, and an exception is never stored,
so a repeat raises again.  A label's state, statistics and overlap store
one state, one tuple and at most four series values, so the label memos
keep the last dozen or more labels.  A cyclic pass over more than 64
distinct labels, such as a benchmark round of 512, finds nothing in them
from its previous pass but the one normaliser its last overlap stored for
the first label, which hits only where those two labels share an order.
The rows depend on the sector and the size alone, so such a round finds
them for most labels: nine keys (m <= 8 at the floor depth of 30) serve
most of the 512.  fock keeps the sector's ladder matrices the same way.

ln nu! + ln (nu+m)! comes from specfun alone: two slices of its exact ln k!
table, which a call whose nu + m runs past 256 extends for itself alone by
ln_factorial's Stirling form (specfun._stirling), run once on the array of
k past 256 and their math.log: the bits of the scalar ln_factorial of each
k, which probability_density reads.  No ln k! table is grown or kept here.
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
    _stirling,
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
# ln k!, the exact table of specfun.ln_factorial through k = 256
_LN_FACT = np.array(_LN_FACT_TABLE)
# entries per memo, and the most levels an amplitude-rows entry holds (see
# the module docstring)
_MEMO_SIZE = 64
_ROWS_MEMO_LEVELS = 1024


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _reduced(k: int, u: float) -> float:
    # R_k(u) at real u >= 0
    return bessel_i_reduced(k, u)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _series_triple(m: int, u: float) -> tuple[float, float, float]:
    # (R_m, R_{m+1}, R_{m+2})(u), one _reduced read per order
    return _reduced(m, u), _reduced(m + 1, u), _reduced(m + 2, u)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _scaled_triple(m: int, r: float) -> tuple[float, float, float]:
    # e^{-x} (I_m, I_{m+1}, I_{m+2})(x) at x = 2r, read past the ratio switch
    return tuple(bessel_i_scaled(m + k, 2.0 * r) for k in range(3))


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
        re, im = rho * math.cos(phi), rho * math.sin(phi)
        # the constructor's check (an infinite phi leaves the modulo NaN),
        # without the polar data it would derive and this would overwrite
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError("label components must be finite")
        label = object.__new__(cls)
        label.__dict__.update(re=re, im=im, rho=float(rho), phi=phi)
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
            raise DomainError("amplitudes must be a nonempty 1-d array")
        object.__setattr__(self, "m", _order(self.m, "m"))
        _check_amplitudes(a, self.tail_tol)
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def _owning(cls, m: int, amplitudes: np.ndarray, label: CoherentLabel | None,
                tail_tol: float | None) -> "StateVector":
        # the constructor on a fresh nonempty 1-d complex128 array that no
        # caller keeps and an m already checked: the same norm and tail
        # checks, and the array itself made read-only, with no copy
        _check_amplitudes(amplitudes, tail_tol)
        amplitudes.flags.writeable = False
        state = object.__new__(cls)
        state.__dict__.update(m=m, amplitudes=amplitudes, label=label, tail_tol=tail_tol)
        return state

    @property
    def depth(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm_sq(self) -> float:
        return _norm_sq(self.amplitudes)


def _norm_sq(a: np.ndarray) -> float:
    # exactly rounded, so independent of the summation order
    return math.fsum((a.real ** 2 + a.imag ** 2).tolist())


def _check_amplitudes(a: np.ndarray, tail_tol: float | None) -> None:
    # the norm and tail checks of both StateVector constructors
    norm = _norm_sq(a)
    if norm > 1.0 + 1e-12:
        raise ValueError(f"amplitude norm {norm} exceeds 1")
    if tail_tol is not None:
        last = abs(a[-1]) ** 2
        if last >= tail_tol:
            raise ValueError(
                f"tail amplitude |a_K|^2 = {last:.3e} above tolerance")


def _ln_bessel_i(m: int, r: float) -> float:
    # log of I_m(2r) without overflow or small-argument underflow
    if r <= _RATIO_SWITCH:
        return m * math.log(r) + math.log(_reduced(m, r * r))
    return math.log(_scaled_triple(m, r)[0]) + 2.0 * r


def _ln_fact_pairs(m: int, n: int) -> np.ndarray:
    # ln nu! + ln (nu+m)! for nu < n: two slices of the exact table, extended
    # for this call alone where nu + m runs past it by Stirling's form of
    # ln_factorial in one array pass, on the same math.log values
    table = _LN_FACT
    if m + n > table.size:
        k = range(table.size, m + n)
        table = np.concatenate((table, _stirling(np.array(k, dtype=float),
                                                 np.array([math.log(j) for j in k]))))
    return table[:n] + table[m:m + n]


def _amplitude_rows(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu, m/2 + nu, (ln nu! + ln (nu+m)!)/2) for nu = 0 .. n-1, read-only:
    what the amplitudes of sector m at n levels take from (m, n) alone.
    Served from a memo of the last _MEMO_SIZE (64) while n is at most
    _ROWS_MEMO_LEVELS (1024); a longer set is built on each call."""
    if n <= _ROWS_MEMO_LEVELS:
        return _rows(m, n)
    return _rows.__wrapped__(m, n)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _rows(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the build behind _amplitude_rows
    nu = np.arange(n)
    rows = nu, 0.5 * m + nu, 0.5 * _ln_fact_pairs(m, n)
    for row in rows:
        row.flags.writeable = False
    return rows


def _ln_amplitude(m: int, ln_r, nu, ln_i):
    """ln a_nu = (m/2 + nu) ln r - ln I_m(2r)/2 - ln(nu! (nu+m)!)/2, for an
    int nu or for nu = np.arange(n), broadcast against ln r and ln I_m(2r)
    (floats, or columns over radii).  An int nu with float ln r and ln I_m
    runs on floats throughout (probability_density); an array runs the same
    operations in the same order elementwise, on the rows of
    _amplitude_rows(m, n), so either rounds alike.  The array is the row a
    state's depth is searched on and its amplitudes exponentiate."""
    if isinstance(nu, np.ndarray):
        _, coef, half = _amplitude_rows(m, nu.size)
        out = coef * ln_r
        out -= 0.5 * ln_i
        out -= half
        return out
    ln_fact = ln_factorial(nu) + ln_factorial(nu + m)
    return (0.5 * m + nu) * ln_r - 0.5 * ln_i - 0.5 * ln_fact


def _tail_row(m: int, r: float, ln_r: float, ln_i: float,
              tail_tol: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(depth, nu, ln a_nu): the first depth d >= start = max(30, ceil(nu*))
    whose |a_d|^2 is below tail_tol, with nu* = (sqrt(m^2 + 4 r^2) - m)/2 the
    peak of the nu distribution, and the rows nu and ln a_nu (_ln_amplitude
    on _amplitude_rows) that d was read from, which run to d or past it.
    The rows grow in windows, each testing its elements past the last one,
    so d is the depth a linear scan from start returns, read off the bits of
    the element the amplitude takes.  The first window ends at start, where
    most labels pass, or, where the Gaussian estimate of the depth,
    nu* + sqrt(-2 ln tail_tol) sigma with sigma^2 = 1/(1/nu* + 1/(nu* + m + 1)),
    lies past start, at twice its distance past the peak: the tail falls
    slower than a Gaussian.  Each later window ends at twice the last end.
    A window of more levels than an array can index raises DomainError."""
    ln_tol = math.log(tail_tol)
    peak = 0.5 * (math.hypot(m, 2.0 * r) - m)
    lo = end = max(30, math.ceil(peak))
    spread = -2.0 * ln_tol * peak * (peak + m + 1) / (2.0 * peak + m + 1)
    if (end - peak) ** 2 < spread < math.inf:
        end = math.ceil(peak + 2.0 * math.sqrt(spread))
    while end < sys.maxsize:
        nu = _amplitude_rows(m, end + 1)[0]
        ln_mag = _ln_amplitude(m, ln_r, nu, ln_i)
        if lo == end:
            # one element: a float test, at a tenth of the array search's cost
            if 2.0 * ln_mag[end] < ln_tol:
                return end, nu, ln_mag
        else:
            below = np.flatnonzero(2.0 * ln_mag[lo:] < ln_tol)
            if below.size:
                return lo + int(below[0]), nu, ln_mag
        lo, end = end + 1, 2 * end
    raise DomainError("auto depth selection diverged")


def bgcs_state(label, spec: SubspaceSpec,
               tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Lowering-operator eigenstate with eigenvalue label.z on sector spec.m.

    With spec.depth None the truncation is the first depth past the peak of
    the nu distribution (and at least 30) whose probability is below
    tail_tol, found on the state's own ln a_nu row (_tail_row); a tail_tol
    that is not > 0, or a depth past what an array can index, raises
    DomainError.  An explicit depth is honored as given (without the tail
    guarantee, and tail_tol is not read).  Served from the state memo on a
    repeat (module docstring).
    """
    return _memo_state(_as_label(label), spec.m, spec.depth, tail_tol)


def _memo_state(label: CoherentLabel, m, depth: int | None = None,
                tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    # bgcs_state(label, SubspaceSpec(m, depth)) on a label without building
    # the spec: m checked as SubspaceSpec checks it, the same memo key
    signs = (math.copysign(1.0, label.re), math.copysign(1.0, label.im),
             math.copysign(1.0, label.rho))
    return _state(label, signs, _order(m, "m"), depth, tail_tol)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _state(label: CoherentLabel, signs: tuple, m: int, depth: int | None,
           tail_tol: float) -> StateVector:
    # the build behind bgcs_state; signs keeps apart labels that differ only
    # in the sign of a zero component, which compare and hash equal
    if depth is None and not tail_tol > 0.0:
        raise DomainError(f"tail_tol must be > 0, got {tail_tol!r}")
    r = label.rho
    if r == 0.0:
        amps = np.zeros((depth if depth is not None else 30) + 1, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector._owning(m, amps, label, tail_tol if depth is None else None)
    ln_r, ln_i = math.log(r), _ln_bessel_i(m, r)
    if depth is None:
        depth, nu, ln_mag = _tail_row(m, r, ln_r, ln_i, tail_tol)
        checked = tail_tol
    else:
        nu = _amplitude_rows(m, depth + 1)[0]
        ln_mag = _ln_amplitude(m, ln_r, nu, ln_i)
        checked = None
    n = depth + 1
    amps = np.exp(ln_mag[:n]) * np.exp(1j * label.phi * nu[:n])
    return StateVector._owning(m, amps, label, checked)


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

def _in_double_range(m: int, values: tuple[float, ...]) -> tuple[float, ...]:
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
    d1, d2 = _in_double_range(m, (_reduced(m, zp.rho * zp.rho), _reduced(m, z.rho * z.rho)))
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

def _bessel_series(m: int, r: float) -> tuple[float, tuple[float, float, float]]:
    # (u, (f0, f1, f2)) with r^k I_{m+k}(2r) / I_m(2r) = u^k f_k / f_0:
    # reduced series at u = r^2 up to the switch, scaled Bessels at u = r
    # beyond, each one read of its memo; both leave the double range at
    # large m (the scaled one at m = 1500, r = 41)
    if r <= _RATIO_SWITCH:
        u = r * r
        return u, _series_triple(m, u)
    return r, _in_double_range(m, _scaled_triple(m, r))


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

