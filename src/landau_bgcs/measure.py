"""Complex-plane quadrature against the Bessel-product measure
(2/pi) I_m(2|z|) K_m(2|z|) d^2 z.

The radial direction uses composite 32-point Gauss-Legendre panels on
(0, R]: eight panels graded geometrically toward the origin up to r = 0.5
(the weight has a log singularity at the origin for m = 0 and steep power
behavior for larger m), one panel [0.5, 4], and uniform panels 8 wide from
r = 4 to R, where every library integrand is a smooth e^{-c r} (c <= 2)
times a slowly varying factor (see build_grid).  The angular direction uses
the uniform trapezoid rule, which is spectrally exact for trigonometric
polynomials below the node count.  Integration is deterministic:
fixed radial-then-angular order with pairwise reductions, so identical inputs
give bit-identical results.

Every Bessel profile the quadrature and thermal routes read depends only on
the grid, so each grid evaluates it once: QuadratureGrid keeps the scaled
logs ln(e^{-x} I_m(x)) and ln(e^x K_m(x)) at x = (2 nodes) factor, keyed by
(kind, order, factor), and the radial weight dr-weight * r * density of each
sector m, built from the order-m scaled logs at factor 1
(QuadratureGrid.radial_weight).  Every integral on that sector reuses the
weight; an integrand of |z| alone needs no angles at all
(integrate_radial).  So do the matrix elements of a monomial z^i conj(z)^j
between coherent amplitudes: their angular integral is exact, and each is
one radial sum against the weight (quantize.quantize_by_quadrature, and the
frame's Gram diagonal G_nu, which resolution_of_identity_check and the
kernel check bgcs.kernel_idempotence_check read from the grid's cache).

integrate alone forms angles.  It writes the complex node matrix r e^{i phi}
into one reusable workspace per thread, at most 10.5 MiB (the node matrix of
the cutoff-600 grid at 256 angles; a larger one is allocated per call), and
hands its integrand a read-only view that is valid only during the call.  No
library route calls it; it stays here as the full 2-D rule that the
benchmark (perfbench) times and that the tests use as an independent check.

Note the plane carries infinite total mass under this measure: the radial
density (2/pi) I_m K_m r tends to the constant 1/(2 pi), exactly as for the
standard Glauber d^2alpha/pi case.  What is finite, and what the grid is
built to resolve, are the per-mode moments 4 int r^(2n-m+1) K_m(2r) dr =
Gamma(n-m+1) Gamma(n+1) underlying the resolution of the identity.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bgcs import _as_label, _gram_diagonal
from .fock import SubspaceSpec
from .specfun import (
    DomainError,
    EvaluationError,
    _ln_bessel_i_scaled,
    _ln_bessel_k_scaled,
    _order,
    _positive_array,
    ln_factorial,
)

_TWO_PI = 2.0 * math.pi
# ln of the largest double and of the smallest subnormal
_LN_LARGEST = math.log(sys.float_info.max)
_LN_SMALLEST = math.log(5e-324)
# geometric subdivision of the first radial panel toward the origin
_GRADING_LEVELS = 8
_GRADING_RATIO = 4.0
# relative tail of the highest declared radial moment left beyond the cutoff
_TAIL_TOL = 1e-12
# Bessel profiles and radial weights one grid keeps; the oldest goes first
_PROFILE_CACHE_SIZE = 64
# the near-origin scale (graded panels up to _PANEL_WIDTH / 4, then one panel
# to 2 _PANEL_WIDTH), the width of the uniform panels past 2 _PANEL_WIDTH and
# the Gauss-Legendre node count of every panel
_PANEL_WIDTH = 2.0
_FAR_PANEL_WIDTH = 8.0
_PANEL_POINTS = 32
_MAX_CUTOFF = 600.0
# the angle count of every library grid; build_grid raises it only for a
# max_mode above 62
_MIN_ANGLES = 256
# grids build_grid keeps, least recently used dropped first; each holds at
# most _PROFILE_CACHE_SIZE profiles of at most 2688 doubles (cutoff 600)
_SHARED_GRIDS = 8
# entries of the node matrix of the largest library grid, cutoff 600 at
# _MIN_ANGLES angles: 2688 x 256 complex, 10.5 MiB.  integrate keeps one
# reusable buffer of at most this size per thread and allocates a larger
# matrix per call
_WORKSPACE_ENTRIES = _MIN_ANGLES * _PANEL_POINTS * (
    _GRADING_LEVELS + 1 + math.ceil((_MAX_CUTOFF - 2.0 * _PANEL_WIDTH) / _FAR_PANEL_WIDTH))
_WORKSPACE = threading.local()


def measure_density(label, m: int):
    """Density (2/pi) I_m(2|z|) K_m(2|z|) of the reproducing measure.

    Accepts a coherent label, a complex number or a radius, and returns a
    float; or an array of radii (or complex labels), and returns the density
    array.  Both take the kernels' branch and formula,
    ln(e^{-x} I_m(x)) + ln(e^x K_m(x)) at x = 2|z|, a scalar on its float,
    so a scalar call has the bits of the same radius inside an array except
    where the I_m recurrence (m >= 8, 20 <= x < 0.4 m^2) sums math.log on a
    float and np.log on an array, a few ulps apart.  At |z| = 0 the
    product limit is 1/(pi m) for m >= 1 and the m = 0 density diverges
    logarithmically (returned as inf).  Away from the origin, where the
    factors I_m and K_m (scaled by e^{-2|z|} and e^{2|z|} beyond |z| = 40)
    leave double range, as I_m does at large m and small |z|,
    EvaluationError is raised; a non-finite |z| raises DomainError.
    """
    m = _order(m)
    if isinstance(label, np.ndarray):
        return _density(np.abs(label).astype(np.float64, copy=False), m)
    r = _as_label(label).rho
    if not math.isfinite(r):
        raise DomainError("measure density needs a finite |z|")
    if r == 0.0:
        return math.inf if m == 0 else 1.0 / (math.pi * m)
    x = 2.0 * r
    return float(_positive_density(r, m, _ln_bessel_i_scaled(m, x),
                                   _ln_bessel_k_scaled(m, x)))


def _density(r: np.ndarray, m: int) -> np.ndarray:
    if not np.all(np.isfinite(r)):
        raise DomainError("measure density needs a finite |z|")
    out = np.full(r.shape, math.inf if m == 0 else 1.0 / (math.pi * m))
    pos = r > 0.0
    rp = r[pos]
    x = 2.0 * rp
    out[pos] = _positive_density(rp, m, _ln_bessel_i_scaled(m, x),
                                 _ln_bessel_k_scaled(m, x))
    return out


def _positive_density(r, m: int, ln_ie, ln_ke):
    # (2/pi) I_m K_m at radii r > 0 (a float or an array) from the scaled
    # logs ln(e^{-x} I_m) and ln(e^x K_m) at x = 2r: the large x and -x never
    # enter the sum
    shift = np.where(r > 40.0, 0.0, 2.0 * r)
    bad = (ln_ie + shift < _LN_SMALLEST) | (ln_ke - shift > _LN_LARGEST)
    if bad.any():
        raise EvaluationError(
            f"order-{m} measure density at |z| = {np.extract(bad, r)[0]:.6g} is "
            "out of range (I_m or K_m leaves double range)")
    return (2.0 / math.pi) * np.exp(ln_ie + ln_ke)


@dataclass(frozen=True)
class QuadratureGrid:
    """Radial nodes/weights plus the angle count of integrate.

    nodes are strictly increasing points in (0, cutoff], cutoff finite;
    weights are plain dr-weights (the r dr dphi area Jacobian is applied by
    integrate, not stored here, so the same weights serve one-dimensional
    radial moments).  max_degree, an integer >= 0, declares the radial
    polynomial degree the grid guarantees to resolve.  n_angular >= 1 is the
    number of uniform angles on which integrate, and nothing else, samples a
    2-D integrand.

    Each instance keeps one bounded cache (at most _PROFILE_CACHE_SIZE
    read-only arrays, oldest evicted first; a dataclasses.replace copy
    starts empty) of the scaled logs ln(e^{-x} I_m(x)) and ln(e^x K_m(x)) at
    x = (2.0 * nodes) * factor, keyed by (kind, order, factor), of the
    per-sector radial factor radial_weight(m), keyed by ("weight", order),
    of the Gram diagonal, keyed by ("gram", order, n), and of the thermal P
    profile, keyed by ("p", order, beta gap).  The thermal profiles, the
    coherent amplitudes and the moment check read their Bessel logs through
    _ln_bessel, so each is evaluated once per grid.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    n_angular: int
    max_degree: int
    _profiles: dict = field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be matching 1-d arrays")
        if not np.all(weights > 0.0):
            raise DomainError("all quadrature weights must be positive")
        if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise DomainError("nodes must be strictly increasing and positive")
        if not math.isfinite(self.cutoff):
            raise DomainError(f"cutoff must be finite, got {self.cutoff!r}")
        if nodes[-1] > self.cutoff * (1.0 + 1e-12):
            raise DomainError("nodes exceed the declared cutoff radius")
        if type(self.n_angular) is not int or self.n_angular < 1:
            raise DomainError(f"n_angular must be an integer >= 1, got {self.n_angular!r}")
        object.__setattr__(self, "max_degree", _order(self.max_degree, "max_degree"))
        if _ln_relative_tail(self.cutoff, self.max_degree) > math.log(_TAIL_TOL):
            raise DomainError(
                f"cutoff {self.cutoff} too small for degree {self.max_degree} "
                f"at tail tolerance {_TAIL_TOL}")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def radial_weight(self, m: int) -> np.ndarray:
        """Read-only radial factor weights * nodes * density_m, built once
        per sector from the cached order-m Bessel logs and reused by every
        integral on this grid."""
        m = _order(m)
        return self._cached(("weight", m), lambda: self.weights * self.nodes
                            * _positive_density(self.nodes, m,
                                                self._scaled_ln_bessel("i", m)[1],
                                                self._scaled_ln_bessel("k", m)[1]))

    def _require_degree(self, need: int) -> None:
        # DomainError unless this grid resolves radial degree need
        if need > self.max_degree:
            raise DomainError(f"grid built for degree {self.max_degree}, need {need}")

    def _ln_bessel(self, kind: str, m: int, factor: float = 1.0) -> np.ndarray:
        """ln I_m(x) (kind "i") or ln K_m(x) (kind "k") at the node arguments
        x = (2.0 * nodes) * factor, formed from the cached scaled log as
        specfun.ln_bessel_i and ln_bessel_k form it, so bit for bit theirs."""
        x, scaled = self._scaled_ln_bessel(kind, m, factor)
        return scaled + x if kind == "i" else scaled - x

    def _scaled_ln_bessel(self, kind: str, m: int, factor: float = 1.0):
        # (x, ln(e^{-x} I_m(x)) or ln(e^x K_m(x))), the log cached per key
        # x is validated only when its profile is built: a cached profile's
        # x passed that check, as the nodes and factor key it
        m = _order(m)
        factor = float(factor)
        if not (math.isfinite(factor) and factor > 0.0):
            raise DomainError(f"profile factor must be finite and > 0, got {factor!r}")
        x = (2.0 * self.nodes) * factor

        def build():
            kernel = {"i": _ln_bessel_i_scaled, "k": _ln_bessel_k_scaled}[kind]
            return kernel(m, _positive_array(x, f"ln_bessel_{kind}"))
        return x, self._cached((kind, m, factor), build)

    def _cached(self, key, build) -> np.ndarray:
        value = self._profiles.get(key)
        if value is None:
            value = build()
            value.flags.writeable = False
            if len(self._profiles) >= _PROFILE_CACHE_SIZE:
                del self._profiles[next(iter(self._profiles))]
            self._profiles[key] = value
        return value


def _ln_relative_tail(radius: float, degree: int) -> float:
    # tail of int_R^inf r^p K(2r) dr bounded by R^p e^{-2R}, measured against
    # the smallest Gamma-moment of that degree; an absolute R^p e^{-2R} bound
    # is unsatisfiable once p exceeds ~25 and would over-demand the cutoff.
    # It holds only past the peak r = p / 2 of r^p e^{-2r}
    if radius <= 0.5 * degree:
        return math.inf
    half = max((degree + 1) // 2 - 1, 0)
    ln_target = 2.0 * ln_factorial(half)
    return degree * math.log(radius) - 2.0 * radius - ln_target


def _required_cutoff(degree: int) -> float:
    r = max(30.0, 0.5 * degree + 10.0)
    ln_tol = math.log(_TAIL_TOL)
    while _ln_relative_tail(r, degree) > ln_tol:
        r += 2.0
        if r > _MAX_CUTOFF:
            raise DomainError(
                f"cannot satisfy tail tolerance {_TAIL_TOL} at degree {degree}")
    return r


def build_grid(max_degree: int = 24,
               max_mode: int = 32,
               cutoff: float | None = None) -> QuadratureGrid:
    """The composite radial rule and the angle count of integrate.

    [0, _PANEL_WIDTH / 4] = [0, 0.5] is split into _GRADING_LEVELS panels
    whose edges shrink geometrically toward the origin by _GRADING_RATIO, so
    the near-origin weight behavior is captured without ever placing a node
    at r = 0.  The next panel is [0.5, 2 _PANEL_WIDTH] = [0.5, 4], and
    uniform panels _FAR_PANEL_WIDTH = 8 wide follow (edges 4, 12, 20, ...),
    the last one cut short at R.  Every panel has _PANEL_POINTS = 32
    Gauss-Legendre nodes.  Past r = 4 every library integrand is e^{-c r}
    (c <= 2) times a factor whose nearest singularity is the origin, at
    least half a far panel away.  The Bernstein-ellipse bound for an
    n-point rule, 64 M / (15 (rho^2 - 1) rho^(2n)) with M the bound on the
    ellipse (Trefethen, SIAM Rev. 50, 67 (2008), Thm 4.5), puts e^{-2r} on
    an 8-wide panel below 1.2e-51 of its midpoint value (rho = 16.6), and
    the factor's singularity (rho < 2 + sqrt 3) still leaves about 1e-29,
    so the wide far panels cost no accuracy.  Without a cutoff, R leaves a
    max_degree moment tail below _TAIL_TOL; a cutoff outside
    (0, _MAX_CUTOFF] raises DomainError.  max_mode only sets
    n_angular = max(256, 4 max_mode + 8); every library route but integrate
    is radial.  Each rule (max_degree, n_angular, R) is one shared grid, its
    profile cache with it, and _SHARED_GRIDS of them are kept.
    """
    max_degree = _order(max_degree, "max_degree")
    max_mode = _order(max_mode, "max_mode")
    radius = _required_cutoff(max_degree) if cutoff is None else float(cutoff)
    if not 0.0 < radius <= _MAX_CUTOFF:
        raise DomainError(f"cutoff must be in (0, {_MAX_CUTOFF:g}], got {cutoff!r}")
    return _shared_grid(max_degree, max(_MIN_ANGLES, 4 * max_mode + 8), radius)


@lru_cache(maxsize=_SHARED_GRIDS)
def _shared_grid(max_degree: int, n_angular: int, radius: float) -> QuadratureGrid:
    edges = [0.0]
    edges += [_PANEL_WIDTH * _GRADING_RATIO ** (k - _GRADING_LEVELS)
              for k in range(_GRADING_LEVELS)]
    # the first step closes the panel [_PANEL_WIDTH / 4, 2 _PANEL_WIDTH];
    # every later one is a far panel
    b, width = _PANEL_WIDTH, _PANEL_WIDTH
    while b < radius - 1e-9:
        b = min(b + width, radius)
        edges.append(b)
        width = _FAR_PANEL_WIDTH
    if edges[-1] < radius:
        edges.append(radius)

    # the rule is formed here, not at import, so numpy.polynomial loads
    # only in a process that builds a grid; the memo forms it once per grid
    panel_x, panel_w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * panel_x)
        weights.append(half * panel_w)
    return QuadratureGrid(nodes=np.concatenate(nodes),
                          weights=np.concatenate(weights),
                          cutoff=radius,
                          n_angular=n_angular,
                          max_degree=max_degree)


def _samples(vals, shape, dtype) -> np.ndarray:
    vals = np.asarray(vals, dtype=dtype)
    if vals.shape != shape:
        raise DomainError("integrand samples have the wrong shape")
    return vals


def _checked_total(total, vals, nodes: np.ndarray, angles: np.ndarray | None = None):
    # IEEE arithmetic never turns an inf or a NaN back into a finite value
    # and the radial weights are finite, so a finite total means that every
    # sample and every partial sum was finite: the callers sum with overflow
    # and invalid-value warnings off, and the samples are scanned only to
    # name the first bad one
    if cmath.isfinite(total):
        return total
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = np.argwhere(bad)[0]
        where = f"r = {nodes[at[0]]:.6g}"
        if at.size > 1:
            where += f", phi = {angles[at[1]]:.6g}"
        raise EvaluationError(f"non-finite integrand sample at {where}")
    raise EvaluationError("integral overflows although every integrand sample is finite")


@lru_cache(maxsize=_SHARED_GRIDS)
def _unit_phases(n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    # the read-only angles 2 pi k / n and phases e^{i phi} of integrate
    angles = _TWO_PI * np.arange(n_angular) / n_angular
    phases = np.exp(1j * angles)
    angles.flags.writeable = False
    phases.flags.writeable = False
    return angles, phases


def _take_workspace(size: int) -> np.ndarray:
    # this thread's buffer if it holds size entries, else a fresh one; the
    # slot stays empty until _return_workspace, so an integrand that calls
    # integrate gets a buffer of its own
    held = getattr(_WORKSPACE, "buffer", None)
    if held is not None and held.size >= size:
        _WORKSPACE.buffer = None
        return held
    if size <= _WORKSPACE_ENTRIES:
        # the larger buffer replaces the held one, which is freed first: the
        # first call on a larger grid then peaks as a per-call matrix did
        _WORKSPACE.buffer = None
    del held
    return np.empty(size, dtype=np.complex128)


def _return_workspace(buf: np.ndarray) -> None:
    held = getattr(_WORKSPACE, "buffer", None)
    if buf.size <= _WORKSPACE_ENTRIES and (held is None or held.size < buf.size):
        _WORKSPACE.buffer = buf


def integrate(f, m: int, grid: QuadratureGrid, vectorized: bool = False) -> complex:
    """Integral of f(z) against the order-m measure over the disk of radius R.

    The area element r dr dphi and the measure density are applied here,
    through the grid's cached radial_weight(m); f receives bare complex
    labels r e^{i phi}.  With vectorized=True, f is called once with the full
    (n_radial, n_angular) complex node matrix and must return a like-shaped
    array.  That matrix is read-only and valid only during the call: it is
    written into one reusable workspace per thread, at most 10.5 MiB (the
    node matrix of the cutoff-600 grid at 256 angles; a larger matrix is
    allocated per call), and an integrand that itself calls integrate gets
    a workspace of its own.  Summation is angular-first then radial, both
    via pairwise reduction, for run-to-run bit identity.  A non-finite
    sample raises EvaluationError naming its r and phi, and so do finite
    samples whose sum overflows.
    """
    n_radial, n_angular = grid.nodes.size, grid.n_angular
    angles, phases = _unit_phases(n_angular)
    buf = _take_workspace(n_radial * n_angular)
    try:
        z_nodes = buf[:n_radial * n_angular].reshape(n_radial, n_angular)
        np.multiply(grid.nodes[:, None], phases[None, :], out=z_nodes)
        z_nodes.flags.writeable = False
        if vectorized:
            vals = f(z_nodes)
        else:
            vals = [[f(z) for z in row] for row in z_nodes]
        vals = _samples(vals, (n_radial, n_angular), np.complex128)
        weight = grid.radial_weight(m)
        with np.errstate(over="ignore", invalid="ignore"):
            angular = vals.sum(axis=1) * (_TWO_PI / n_angular)
            total = complex((weight * angular).sum())
        return _checked_total(total, vals, grid.nodes, angles)
    finally:
        _return_workspace(buf)


def integrate_radial(vals, m: int, grid: QuadratureGrid) -> float:
    """Integral of a radially symmetric f(|z|) against the order-m measure.

    vals samples f on grid.nodes; the angular integral of a constant is
    2 pi, so the result is 2 pi sum_r radial_weight(m) f(r).  A non-finite
    sample, or a sum that overflows, raises EvaluationError, as in integrate.
    """
    vals = _samples(vals, grid.nodes.shape, np.float64)
    weight = grid.radial_weight(m)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _TWO_PI * float((weight * vals).sum())
    return _checked_total(total, vals, grid.nodes)


def radial_moment_check(n: int, m: int, grid: QuadratureGrid) -> float:
    """Relative error of the grid on 4 int r^(2n-m+1) K_m(2r) dr vs the
    Gamma-product Gamma(n-m+1) Gamma(n+1), compared in log space."""
    n, m = _order(n, "n"), _order(m, "m")
    if m > n:
        raise DomainError(f"need n >= m >= 0, got n={n}, m={m}")
    p = 2 * n - m + 1
    grid._require_degree(p)
    ln_terms = np.log(grid.weights) + p * np.log(grid.nodes) + grid._ln_bessel("k", m)
    peak = ln_terms.max()
    ln_quad = math.log(4.0) + peak + math.log(np.exp(ln_terms - peak).sum())
    ln_target = ln_factorial(n - m) + ln_factorial(n)
    return abs(math.expm1(ln_quad - ln_target))


def resolution_of_identity_check(spec: SubspaceSpec, n_check: int,
                                 grid: QuadratureGrid) -> float:
    """Max deviation from 1 of the frame's Gram diagonal
    int |a_nu(z)|^2 dmeasure = 2 pi sum_r radial_weight(m) a_nu(r)^2 over
    the first n_check+1 coherent-amplitude modes.  The angular integral is
    exact: it is 2 pi on the diagonal and zero off it."""
    n_check = _order(n_check, "n_check")
    if spec.depth is not None and n_check > spec.depth - 2:
        raise DomainError(
            f"n_check = {n_check} needs depth >= {n_check + 2}, have {spec.depth}")
    grid._require_degree(2 * n_check + spec.m + 1)

    gram = _gram_diagonal(spec.m, grid, n_check + 1)
    return float(np.max(np.abs(gram - 1.0)))
