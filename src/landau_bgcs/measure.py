"""Complex-plane quadrature against the Bessel-product measure
(2/pi) I_m(2|z|) K_m(2|z|) d^2 z.

The radial direction uses composite Gauss-Legendre panels on (0, R] with a
geometrically graded first panel (the weight has a log singularity at the
origin for m = 0 and steep power behavior for larger m); the angular
direction uses the uniform trapezoid rule, which is spectrally exact for
trigonometric polynomials below the node count.  Integration is deterministic:
fixed radial-then-angular order with pairwise reductions, so identical inputs
give bit-identical results.

The radial weight dr-weight * r * density depends only on the grid and the
sector, so each grid builds it once per order m (QuadratureGrid.radial_weight,
one array density call on the node vector) and every integral on that sector
reuses it; an integrand of |z| alone needs no angles at all
(integrate_radial).  Because the angular trapezoid
rule is a discrete Fourier transform, every matrix element
int f(z) a_nu(|z|) a_up(|z|) e^{i(nu-up)phi} dmeasure comes from one inverse
FFT of the sampled f per radius (angular_mode_matrix); the quadrature
quantization and the frame-identity Gram matrix are both assembled there.

Note the plane carries infinite total mass under this measure: the radial
density (2/pi) I_m K_m r tends to the constant 1/(2 pi), exactly as for the
standard Glauber d^2alpha/pi case.  What is finite, and what the grid is
built to resolve, are the per-mode moments 4 int r^(2n-m+1) K_m(2r) dr =
Gamma(n-m+1) Gamma(n+1) underlying the resolution of the identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import SubspaceSpec
from .specfun import (
    DomainError,
    EvaluationError,
    _ln_bessel_i_scaled,
    _ln_bessel_k_scaled,
    _order,
    ln_bessel_k,
    ln_factorial,
)

_TWO_PI = 2.0 * math.pi
# ln of the largest double and of the smallest subnormal
_LN_LARGEST = math.log(sys.float_info.max)
_LN_SMALLEST = math.log(5e-324)
# geometric subdivision of the first radial panel toward the origin
_GRADING_LEVELS = 8
_GRADING_RATIO = 4.0


def _label_radius(label) -> float:
    rho = getattr(label, "rho", None)
    if rho is not None:
        return float(rho)
    return abs(complex(label))


def measure_density(label, m: int):
    """Density (2/pi) I_m(2|z|) K_m(2|z|) of the reproducing measure.

    Accepts a coherent label, a complex number or a radius, and returns a
    float; or an array of radii (or complex labels), and returns the density
    array.  Both go through one elementwise route, the array kernels'
    ln(e^{-x} I_m(x)) + ln(e^x K_m(x)) at x = 2|z|, so a scalar call is
    bit-identical to the same radius inside an array.  At |z| = 0 the
    product limit is 1/(pi m) for m >= 1 and the m = 0 density diverges
    logarithmically (returned as inf).  Away from the origin, where the
    factors I_m and K_m (scaled by e^{-2|z|} and e^{2|z|} beyond |z| = 40)
    leave double range, as I_m does at large m and small |z|,
    EvaluationError is raised; a non-finite |z| raises DomainError.
    """
    m = _order(m)
    if isinstance(label, np.ndarray):
        return _density(np.abs(label).astype(np.float64, copy=False), m)
    return float(_density(np.array([_label_radius(label)]), m)[0])


def _density(r: np.ndarray, m: int) -> np.ndarray:
    if not np.all(np.isfinite(r)):
        raise DomainError("measure density needs a finite |z|")
    out = np.full(r.shape, math.inf if m == 0 else 1.0 / (math.pi * m))
    pos = r > 0.0
    rp = r[pos]
    x = 2.0 * rp
    # ln(e^{-x} I_m) + ln(e^x K_m): the large x and -x never enter the sum
    ln_ie, ln_ke = _ln_bessel_i_scaled(m, x), _ln_bessel_k_scaled(m, x)
    shift = np.where(rp > 40.0, 0.0, x)
    bad = (ln_ie + shift < _LN_SMALLEST) | (ln_ke - shift > _LN_LARGEST)
    if bad.any():
        raise EvaluationError(
            f"order-{m} measure density at |z| = {rp[np.argmax(bad)]:.6g} is "
            "out of range (I_m or K_m leaves double range)")
    out[pos] = (2.0 / math.pi) * np.exp(ln_ie + ln_ke)
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Radial nodes/weights plus uniform angular sampling.

    nodes are strictly increasing points in (0, cutoff]; weights are plain
    dr-weights (the r dr dphi area Jacobian is applied by integrate, not
    stored here, so the same weights serve one-dimensional radial moments).
    max_degree and max_mode declare the polynomial degree and Fourier mode
    content the grid guarantees to resolve.  radial_weight(m) caches the
    per-sector radial factor on the instance.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    n_angular: int
    max_degree: int
    max_mode: int
    tail_tol: float = 1e-12
    _radial_weights: dict = field(init=False, repr=False, compare=False,
                                  default_factory=dict)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not np.all(weights > 0.0):
            raise ValueError("all quadrature weights must be positive")
        if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise ValueError("nodes must be strictly increasing and positive")
        if nodes[-1] > self.cutoff * (1.0 + 1e-12):
            raise ValueError("nodes exceed the declared cutoff radius")
        if self.n_angular <= 2 * self.max_mode:
            raise ValueError(
                f"n_angular = {self.n_angular} cannot resolve modes up to {self.max_mode}")
        if not 0.0 < self.tail_tol < 1e-3:
            raise ValueError(f"tail_tol out of range: {self.tail_tol}")
        if _ln_relative_tail(self.cutoff, self.max_degree) > math.log(self.tail_tol):
            raise ValueError(
                f"cutoff {self.cutoff} too small for degree {self.max_degree} "
                f"at tail tolerance {self.tail_tol}")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def angles(self) -> np.ndarray:
        return _TWO_PI * np.arange(self.n_angular) / self.n_angular

    @property
    def z_nodes(self) -> np.ndarray:
        """Complex node matrix r e^{i phi}, shape (n_radial, n_angular)."""
        return self.nodes[:, None] * np.exp(1j * self.angles)[None, :]

    def radial_weight(self, m: int) -> np.ndarray:
        """Read-only radial factor weights * nodes * density_m, built once
        per sector and reused by every integral on this grid."""
        m = _order(m)
        w = self._radial_weights.get(m)
        if w is None:
            w = self.weights * self.nodes * measure_density(self.nodes, m)
            w.flags.writeable = False
            self._radial_weights[m] = w
        return w


def _ln_relative_tail(radius: float, degree: int) -> float:
    # tail of int_R^inf r^p K(2r) dr bounded by R^p e^{-2R}, measured against
    # the smallest Gamma-moment of that degree; an absolute R^p e^{-2R} bound
    # is unsatisfiable once p exceeds ~25 and would over-demand the cutoff
    half = max((degree + 1) // 2 - 1, 0)
    ln_target = 2.0 * ln_factorial(half)
    return degree * math.log(radius) - 2.0 * radius - ln_target


def _required_cutoff(degree: int, tail_tol: float) -> float:
    r = max(30.0, 0.5 * degree + 10.0)
    ln_tol = math.log(tail_tol)
    while _ln_relative_tail(r, degree) > ln_tol:
        r += 2.0
        if r > 600.0:
            raise DomainError(
                f"cannot satisfy tail tolerance {tail_tol} at degree {degree}")
    return r


@lru_cache(maxsize=8)
def _panel_rule(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(max_degree: int = 24,
               max_mode: int = 32,
               cutoff: float | None = None,
               panel_width: float = 2.0,
               points_per_panel: int = 32,
               n_angular: int | None = None,
               tail_tol: float = 1e-12) -> QuadratureGrid:
    """Build the composite radial rule and angular sampling.

    The first panel [0, panel_width] is subdivided geometrically toward the
    origin (_GRADING_LEVELS intervals shrinking by _GRADING_RATIO) so the
    near-origin weight behavior is captured without ever placing a node at
    r = 0; the rest of [0, R] uses uniform panels of panel_width.
    """
    if max_degree < 0 or max_mode < 0:
        raise ValueError("max_degree and max_mode must be >= 0")
    if panel_width <= 0 or points_per_panel < 4:
        raise ValueError("invalid panel geometry")
    radius = float(cutoff) if cutoff is not None \
        else _required_cutoff(max_degree, tail_tol)
    if n_angular is None:
        n_angular = max(256, 4 * max_mode + 8)

    edges = [0.0]
    edges += [panel_width * _GRADING_RATIO ** (k - _GRADING_LEVELS)
              for k in range(_GRADING_LEVELS)]
    b = panel_width
    while b < radius - 1e-9:
        b = min(b + panel_width, radius)
        edges.append(b)
    if edges[-1] < radius:
        edges.append(radius)

    xs, ws = _panel_rule(points_per_panel)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return QuadratureGrid(nodes=np.concatenate(nodes),
                          weights=np.concatenate(weights),
                          cutoff=radius,
                          n_angular=int(n_angular),
                          max_degree=int(max_degree),
                          max_mode=int(max_mode),
                          tail_tol=tail_tol)


def _checked_samples(vals, grid: QuadratureGrid, shape, dtype) -> np.ndarray:
    vals = np.asarray(vals, dtype=dtype)
    if vals.shape != shape:
        raise ValueError("integrand samples have the wrong shape")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = np.argwhere(bad)[0]
        where = f"r = {grid.nodes[at[0]]:.6g}"
        if at.size > 1:
            where += f", phi = {grid.angles[at[1]]:.6g}"
        raise EvaluationError(f"non-finite integrand sample at {where}")
    return vals


def integrate(f, m: int, grid: QuadratureGrid, vectorized: bool = False) -> complex:
    """Integral of f(z) against the order-m measure over the disk of radius R.

    The area element r dr dphi and the measure density are applied here,
    through the grid's cached radial_weight(m); f receives bare complex
    labels r e^{i phi}.  With vectorized=True, f is called once with the full
    (n_radial, n_angular) complex node matrix and must return a like-shaped
    array.  Summation is angular-first then radial, both via pairwise
    reduction, for run-to-run bit identity.
    """
    z_nodes = grid.z_nodes
    if vectorized:
        vals = f(z_nodes)
    else:
        vals = [[f(z) for z in row] for row in z_nodes]
    vals = _checked_samples(vals, grid, (grid.nodes.size, grid.n_angular),
                            np.complex128)
    angular = vals.sum(axis=1) * (_TWO_PI / grid.n_angular)
    return complex((grid.radial_weight(m) * angular).sum())


def integrate_radial(vals, m: int, grid: QuadratureGrid) -> float:
    """Integral of a radially symmetric f(|z|) against the order-m measure.

    vals samples f on grid.nodes; the angular integral of a constant is
    2 pi, so the result is 2 pi sum_r radial_weight(m) f(r).  A non-finite
    sample raises EvaluationError, as in integrate.
    """
    vals = _checked_samples(vals, grid, grid.nodes.shape, np.float64)
    return _TWO_PI * float((grid.radial_weight(m) * vals).sum())


def angular_mode_matrix(vals, amp: np.ndarray, m: int,
                        grid: QuadratureGrid) -> np.ndarray:
    """Matrix M[nu, up] = int f(z) a_nu(|z|) a_up(|z|) e^{i(nu-up)phi} dmeasure.

    vals samples f on the (n_radial, n_angular) node matrix and amp holds the
    real radial amplitudes, one row per radial node.  The angular trapezoid
    sum of f e^{ik phi} is 2 pi ifft(f)[k mod n_angular], so one inverse FFT
    per radius yields every entry with no approximation beyond the
    quadrature itself; the radial sum runs against radial_weight(m).
    """
    shape = (grid.nodes.size, grid.n_angular)
    coef = np.fft.ifft(_checked_samples(vals, grid, shape, np.complex128), axis=1)
    d = np.arange(amp.shape[1])
    modes = np.subtract.outer(d, d) % grid.n_angular
    # 2 pi applied after the radial sum: a constant symbol then reproduces
    # the plain Gram sum sum_r w a_nu a_up times 2 pi bit for bit
    return _TWO_PI * np.einsum("r,ra,rb,rab->ab", grid.radial_weight(m),
                               amp, amp, coef[:, modes])


def radial_moment_check(n: int, m: int, grid: QuadratureGrid) -> float:
    """Relative error of the grid on 4 int r^(2n-m+1) K_m(2r) dr vs the
    Gamma-product Gamma(n-m+1) Gamma(n+1), compared in log space."""
    if not 0 <= m <= n:
        raise DomainError(f"need n >= m >= 0, got n={n}, m={m}")
    p = 2 * n - m + 1
    if p > grid.max_degree:
        raise ValueError(
            f"grid built for degree {grid.max_degree}, moment needs {p}")
    r = grid.nodes
    ln_terms = np.log(grid.weights) + p * np.log(r) + ln_bessel_k(m, 2.0 * r)
    peak = ln_terms.max()
    ln_quad = math.log(4.0) + peak + math.log(np.exp(ln_terms - peak).sum())
    ln_target = ln_factorial(n - m) + ln_factorial(n)
    return abs(math.expm1(ln_quad - ln_target))


def resolution_of_identity_check(spec: SubspaceSpec, n_check: int,
                                 grid: QuadratureGrid) -> float:
    """Max deviation from the identity of the quadrature Gram matrix
    M[nu, up] = int a_nu(z) conj(a_up(z)) dmeasure over the first
    n_check+1 coherent-amplitude modes, assembled by angular_mode_matrix
    with the constant symbol (the quadrature quantization's code path)."""
    from .bgcs import radial_amplitudes

    if n_check < 0:
        raise ValueError("n_check must be >= 0")
    if spec.depth is not None and n_check > spec.depth - 2:
        raise ValueError(
            f"n_check = {n_check} needs depth >= {n_check + 2}, have {spec.depth}")
    if grid.max_mode < 2 * n_check:
        raise ValueError(
            f"grid resolves modes up to {grid.max_mode}, need {2 * n_check}")
    need_degree = 2 * n_check + spec.m + 1
    if grid.max_degree < need_degree:
        raise ValueError(
            f"grid built for degree {grid.max_degree}, need {need_degree}")

    nr = grid.nodes.size
    amp = radial_amplitudes(spec.m, grid.nodes, n_check + 1)
    matrix = angular_mode_matrix(np.ones((nr, grid.n_angular)), amp, spec.m, grid)
    return float(np.max(np.abs(matrix - np.eye(n_check + 1))))
