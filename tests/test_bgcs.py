"""Coherent states: amplitudes, kernel, statistics, dynamics, entire functions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs import bgcs
from landau_bgcs.bgcs import (
    DEFAULT_TAIL_TOL,
    CoherentLabel,
    StateVector,
    bgcs_state,
    evolve_label,
    fano,
    g2,
    kernel_idempotence_check,
    mandel_q,
    mean_k3,
    mean_n,
    mean_n_sq,
    overlap,
    probability_density,
    _auto_depth,
    _ln_amplitude,
    _ln_fact_pairs,
    _ln_bessel_i,
    _node_amplitudes,
    snr,
)
from landau_bgcs.fock import PhysicalParams, SubspaceSpec, hamiltonian_matrix, ladder_matrix
from landau_bgcs.measure import (build_grid, integrate, measure_density,
                                  resolution_of_identity_check)
from landau_bgcs.quantize import dispersions
from landau_bgcs.specfun import (
    DomainError,
    EvaluationError,
    bessel_i,
    bessel_i_reduced,
    bessel_i_scaled,
    bessel_k,
    bessel_k_scaled,
    ln_bessel_i,
    ln_factorial,
)
from conftest import panel_grid
from oracles import bessel_power_sum, from_polar_reference

# frozen 60-digit reference values
_OV_OPP = -0.035140024107915261894          # <-2|2> at m = 0
_OV_OPP_SQ = 0.0012348212943048657975
_OV_CPLX = 0.72205121656671780514 - 0.19344407861098605133j  # <1+i|0.5-0.3i>, m=2
_PDF_213 = 0.091079672388756755257          # |a_3|^2 at |z|=2, m=1
_MEAN_N_21 = 1.3160945347187191711
_MEAN_N2_21 = 2.6839054652812808289
_MEAN_K3_21 = 2.3160945347187191711
_G2_21 = 0.78968138149625163355
_Q_21 = -0.27679918436237450676
_G2_50 = 0.990000382651127133539
_SNR_50 = 99.5037377444598883578


def _label(rho, phi=0.0):
    return CoherentLabel.from_polar(rho, phi)


@pytest.fixture(scope="module")
def grid():
    return build_grid(max_degree=24, max_mode=32)


# ---------------------------------------------------------------- labels

def test_label_polar_canonicalization():
    assert CoherentLabel(re=-1.0, im=0.0).phi == pytest.approx(math.pi)
    assert CoherentLabel(re=0.0, im=-1.0).phi == pytest.approx(1.5 * math.pi)
    lab = CoherentLabel.from_polar(2.0, -0.5 * math.pi)
    assert lab.rho == 2.0
    assert lab.phi == pytest.approx(1.5 * math.pi)
    assert CoherentLabel(re=0.6, im=-0.8).rho == pytest.approx(1.0, rel=1e-15)


def test_label_accessors():
    lab = CoherentLabel(re=0.3, im=-0.4)
    assert lab.z == complex(0.3, -0.4)
    assert CoherentLabel.from_complex(1 + 2j) == CoherentLabel(re=1.0, im=2.0)


def test_label_validation():
    with pytest.raises(DomainError):
        CoherentLabel(re=math.inf, im=0.0)
    with pytest.raises(DomainError):
        CoherentLabel.from_polar(-1.0, 0.0)


_RNG = np.random.default_rng(20261020)
_POLAR_CASES = list(zip(np.exp(_RNG.uniform(-30.0, 30.0, 60)).tolist(),
                        _RNG.uniform(-50.0, 50.0, 60).tolist())) + [
    (0.0, 0.0), (-0.0, 1.0), (0.0, -0.0), (5e-324, 2.0), (1.7e308, 0.3),
    (1.0, 2.0 * math.pi), (1.0, -1e-300), (2.0, 1e300), (3, 4), (np.float64(2.5), 1.0),
    (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf),
    (1.0, -math.inf), (0.0, math.nan), (1.0, "x"), ("1", 0.0),
]


def _polar_outcome(build, rho, phi):
    try:
        lab = build(rho, phi)
    except (DomainError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return lab, [(type(v), float(v).hex()) for v in (lab.re, lab.im, lab.rho, lab.phi)]


@pytest.mark.parametrize("rho,phi", _POLAR_CASES)
def test_from_polar_keeps_the_constructor_built_label(rho, phi):
    got = _polar_outcome(CoherentLabel.from_polar, rho, phi)
    want = _polar_outcome(from_polar_reference, rho, phi)
    assert got[1] == want[1]
    if isinstance(want[0], CoherentLabel):
        assert got[0] == want[0] and hash(got[0]) == hash(want[0])
        assert repr(got[0]) == repr(want[0])
    else:
        assert got[0] is want[0]


# ---------------------------------------------------------------- states

def test_zero_label_state():
    st0 = bgcs_state(_label(0.0), SubspaceSpec(3))
    assert st0.amplitudes[0] == 1.0
    assert np.all(st0.amplitudes[1:] == 0.0)
    assert st0.norm_sq == 1.0


def test_amplitude_matches_closed_form_pdf():
    st1 = bgcs_state(_label(2.0, math.pi / 3.0), SubspaceSpec(1))
    assert abs(st1.amplitudes[3]) ** 2 == pytest.approx(_PDF_213, rel=1e-12)
    assert probability_density(_label(2.0, math.pi / 3.0), 1, 3) \
        == pytest.approx(_PDF_213, rel=1e-12)
    assert cmath.phase(st1.amplitudes[3]) == pytest.approx(math.pi, rel=1e-12)


def test_pdf_validation_and_zero_label():
    for rho, m, nu in ((1.0, 0, -1), (1.0, 0, True), (0.0, -1, 0), (0.0, True, 0)):
        with pytest.raises(DomainError):
            probability_density(_label(rho), m, nu)
    assert probability_density(_label(0.0), 2, 0) == 1.0
    assert probability_density(_label(0.0), 2, 4) == 0.0


def test_norm_and_tail_with_auto_depth():
    for rho, m in [(1e-4, 0), (0.5, 2), (7.0, 5), (50.0, 8)]:
        v = bgcs_state(_label(rho, 0.7), SubspaceSpec(m))
        assert abs(v.norm_sq - 1.0) < 1e-12
        assert abs(v.amplitudes[-1]) ** 2 < 1e-16


def test_explicit_depth_honored():
    v = bgcs_state(_label(1.0), SubspaceSpec(0, depth=16))
    assert v.depth == 16
    assert v.tail_tol is None


@pytest.mark.parametrize("tail_tol", [1e-16, 1e-300])
@pytest.mark.parametrize("m", [0, 1, 8, 50])
def test_auto_depth_is_the_first_tail_depth_past_the_peak(m, tail_tol):
    # the doubling-and-bisection search returns what a linear scan from the
    # same start, max(30, ceil(peak)), returns
    for rho in np.logspace(-3.0, 4.0, 29).tolist():
        ln_r, ln_i = math.log(rho), _ln_bessel_i(m, rho)
        depth = max(30, math.ceil(0.5 * (math.hypot(m, 2.0 * rho) - m)))
        while 2.0 * _ln_amplitude(m, ln_r, depth, ln_i) >= math.log(tail_tol):
            depth += 1
        assert _auto_depth(m, rho, tail_tol, ln_i) == depth, rho


def test_auto_depth_from_the_gaussian_probe_is_the_linear_scan_depth(monkeypatch):
    # the first probe sits near the tail crossing, past the floor of 30 for
    # the larger moduli; the depth is still the linear scan's, and a state
    # takes fewer than four tail tests on average (doubling from the start
    # would take about five)
    tests = []
    scalar = bgcs._ln_amplitude

    def counted(m, ln_r, nu, ln_i):
        tests.append(nu)
        return scalar(m, ln_r, nu, ln_i)
    rhos = np.geomspace(1.0, 60.0, 60).tolist() + [40.0, 41.9, 50.0]
    points = [(m, rho) for m in (0, 1, 3, 8, 19, 50) for rho in rhos]
    for m, rho in points:
        ln_r, ln_i = math.log(rho), _ln_bessel_i(m, rho)
        depth = max(30, math.ceil(0.5 * (math.hypot(m, 2.0 * rho) - m)))
        while 2.0 * _ln_amplitude(m, ln_r, depth, ln_i) >= math.log(DEFAULT_TAIL_TOL):
            depth += 1
        monkeypatch.setattr(bgcs, "_ln_amplitude", counted)
        assert _auto_depth(m, rho, DEFAULT_TAIL_TOL, ln_i) == depth, (m, rho)
        monkeypatch.setattr(bgcs, "_ln_amplitude", scalar)
    assert len(tests) < 4 * len(points)


def _counted_auto_depth(monkeypatch, m, rho, tail_tol):
    # (_auto_depth, the linear scan's depth, the tail tests it took)
    ln_r, ln_i = math.log(rho), _ln_bessel_i(m, rho)
    depth = max(30, math.ceil(0.5 * (math.hypot(m, 2.0 * rho) - m)))
    while 2.0 * _ln_amplitude(m, ln_r, depth, ln_i) >= math.log(tail_tol):
        depth += 1
    tests = []
    scalar = bgcs._ln_amplitude

    def counted(m, ln_r, nu, ln_i):
        tests.append(nu)
        return scalar(m, ln_r, nu, ln_i)
    monkeypatch.setattr(bgcs, "_ln_amplitude", counted)
    got = _auto_depth(m, rho, tail_tol, ln_i)
    monkeypatch.setattr(bgcs, "_ln_amplitude", scalar)
    return got, depth, len(tests)


@pytest.mark.parametrize("tail_tol", [1e-16, 1e-300])
def test_auto_depth_from_the_newton_probe_is_the_linear_scan_depth(monkeypatch, tail_tol):
    # at small moduli the 1e-300 crossing lies far past the Gaussian
    # estimate; the Newton probe still lands next to it, so no state takes
    # more than five tail tests
    for m in (0, 1, 3, 8, 19, 50):
        for rho in np.geomspace(1e-3, 60.0, 80).tolist():
            got, depth, tests = _counted_auto_depth(monkeypatch, m, rho, tail_tol)
            assert got == depth, (m, rho)
            assert tests <= 5, (m, rho)


def test_kernel_check_labels_take_at_most_five_tail_tests(monkeypatch):
    # the kernel check truncates its labels at 1e-300; the benchmark's
    # quadrature labels have |z| in [0.05, 3] on sectors 0 and 2, where the
    # doubling from a Gaussian probe took 10 to 14 tests per state
    assert bgcs._KERNEL_TAIL_TOL == 1e-300
    for m in (0, 2):
        for rho in np.linspace(0.05, 3.0, 60).tolist():
            got, depth, tests = _counted_auto_depth(monkeypatch, m, rho, 1e-300)
            assert got == depth and tests <= 5, (m, rho)


def test_auto_depth_where_the_newton_slope_or_lgamma_leaves_double_range():
    # at 1e100 the slope rounds to zero: the probe falls back to the
    # estimate, and the depth is still the first one that passes the tail
    # test; at 1e306 lgamma overflows, and the tail test itself leaves
    # double range, which is the typed error it was before the Newton steps
    ln_r, ln_i, ln_tol = math.log(1e100), _ln_bessel_i(0, 1e100), math.log(1e-300)
    depth = _auto_depth(0, 1e100, 1e-300, ln_i)
    assert 2.0 * _ln_amplitude(0, ln_r, depth, ln_i) < ln_tol
    assert 2.0 * _ln_amplitude(0, ln_r, depth - 1, ln_i) >= ln_tol
    with pytest.raises(DomainError, match="auto depth selection diverged"):
        _auto_depth(0, 1e306, 1e-300, _ln_bessel_i(0, 1e306))


def test_auto_depth_serves_a_large_modulus():
    v = bgcs_state(_label(5e4), SubspaceSpec(0))
    assert v.depth == 51247
    assert abs(v.amplitudes[-1]) ** 2 < 1e-16


@pytest.mark.parametrize("m,rho", [(0, 2598.0), (3, 5000.0), (0, 1e4)])
@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 13: normalisation from the state's own "
                          "sum; waits for item 1 (edge slice)")
def test_large_modulus_norm_stays_within_one(m, rho):
    # ln a_nu carries the rounding of terms of size 2|z| and nu ln|z|, so the
    # norm here exceeds 1 by more than the 1e-12 StateVector allows
    bgcs_state(_label(rho), SubspaceSpec(m))


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(m=0, amplitudes=np.array([1.0, 0.5]))  # norm > 1
    with pytest.raises(ValueError):
        StateVector(m=0, amplitudes=np.array([0.5, 0.5]), tail_tol=1e-16)
    with pytest.raises(ValueError):
        StateVector(m=0, amplitudes=np.array([]))
    for m in (-1, True, 2.5):
        with pytest.raises(DomainError):
            StateVector(m=m, amplitudes=np.array([1.0]))


def test_state_vector_stores_an_integral_m_as_int():
    # as SubspaceSpec does: a float 2.0 is the order 2
    v = StateVector(m=2.0, amplitudes=np.array([0.6, 0.8j]))
    assert type(v.m) is int and v.m == 2


def test_lowering_eigenvector_property():
    z = _label(1.5, math.pi / 3.0)
    v = bgcs_state(z, SubspaceSpec(2))
    km = ladder_matrix("k_minus", SubspaceSpec(2, depth=v.depth)).entries
    lhs = km @ v.amplitudes
    rhs = z.z * v.amplitudes
    # final component of the matrix action is corrupted by truncation
    err = np.linalg.norm((lhs - rhs)[:-1]) / np.linalg.norm(v.amplitudes)
    assert err < 1e-10


@pytest.mark.parametrize("m", [0, 2])
def test_radial_amplitudes_match_bgcs_state(m):
    # the amplitude matrix over a depth-8 quadrature grid's radii, row by
    # row against the per-node state construction
    g = build_grid(max_degree=2 * 8 + m + 3)
    got = _node_amplitudes(m, g, 9)
    assert got.shape == (g.nodes.size, 9)
    want = np.array([bgcs_state(CoherentLabel(float(r)), SubspaceSpec(m, depth=8))
                     .amplitudes.real for r in g.nodes])
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("m", [0, 3, 200, 300])
def test_ln_amplitude_factorials_match_the_scalar_kernel(m):
    # nu and nu + m run across the end of ln_factorial's exact table (256),
    # as an array and one by one; every value is bit-identical to the
    # formula summed with the scalar kernel.  Lengths n with m + n in
    # {256, 257, 258} end on both sides of the table's last entry
    ln_r, ln_i = math.log(2.5), 1.7
    want = np.array([(0.5 * m + k) * ln_r - 0.5 * ln_i
                     - 0.5 * (ln_factorial(k) + ln_factorial(k + m)) for k in range(300)])
    for n in (256 - m, 257 - m, 258 - m, 300):
        if n > 0:
            assert _ln_amplitude(m, ln_r, np.arange(n), ln_i).tobytes() == want[:n].tobytes()
    for k in (0, 255, 256, 257, 299):
        assert _ln_amplitude(m, ln_r, k, ln_i) == want[k]


def test_ln_fact_pairs_past_the_table_are_the_scalar_kernel_bit_for_bit():
    # past k = 256 the table is extended by Stirling's form in one array
    # pass; each entry has the float.hex of the scalar ln_factorial (m = 0
    # gives 2 ln k!, and halving it is exact)
    got = _ln_fact_pairs(0, 20000)[257:] / 2.0
    assert [float(x).hex() for x in got] == [ln_factorial(k).hex() for k in range(257, 20000)]


# ---------------------------------------------------------------- overlap

def test_overlap_self_is_one():
    for lab in (_label(0.3, 1.0), _label(2.0, 4.0), _label(45.0, 0.2)):
        assert overlap(lab, lab, 2) == pytest.approx(1.0, abs=1e-14)


def test_overlap_opposite_points_frozen():
    val = overlap(_label(2.0, math.pi), _label(2.0), 0)
    assert val.real == pytest.approx(_OV_OPP, rel=1e-12)
    assert abs(val.imag) < 1e-15


def test_overlap_complex_frozen():
    val = overlap(1.0 + 1.0j, 0.5 - 0.3j, 2)
    assert val == pytest.approx(_OV_CPLX, rel=1e-13)


def test_overlap_hermitian_symmetry():
    a, b = 1.0 + 1.0j, 2.0 - 0.5j
    assert abs(overlap(a, b, 3) - overlap(b, a, 3).conjugate()) < 1e-13


def test_overlap_against_amplitude_inner_product():
    za, zb = _label(2.0, math.pi), _label(2.0)
    va = bgcs_state(za, SubspaceSpec(0))
    vb = bgcs_state(zb, SubspaceSpec(0))
    k = min(va.amplitudes.size, vb.amplitudes.size)
    direct = np.vdot(va.amplitudes[:k], vb.amplitudes[:k])
    kernel = overlap(za, zb, 0)
    assert abs(kernel - direct) < 1e-12
    assert abs(kernel) ** 2 == pytest.approx(_OV_OPP_SQ, rel=1e-10)


def test_kernel_idempotence(grid):
    assert kernel_idempotence_check(_label(0.8), _label(0.8), 0, grid) < 1e-6
    assert kernel_idempotence_check(1.0 + 0.3j, 0.5 - 0.2j, 2, grid) < 1e-6
    assert kernel_idempotence_check(_label(0.0), _label(0.8), 0, grid) < 1e-6


@pytest.fixture(scope="module")
def mp_kernel_grid():
    # a small grid whose 16 angles and 48 nodes keep the test fast, with
    # K_0, K_1 and K_2 = K_0 + (2/x) K_1 at x = 2r on its nodes, 40 digits
    mpmath = pytest.importorskip("mpmath")
    g = panel_grid(4, width=4.0, max_degree=4, cutoff=20.0, n_angular=16)
    k = []
    with mpmath.workdps(40):
        for r in g.nodes:
            x = 2 * mpmath.mpf(float(r))
            k0, k1 = mpmath.besselk(0, x), mpmath.besselk(1, x)
            k.append((k0, k1, k0 + 2 / x * k1))
    return mpmath, g, k


def _mp_kernel_quadrature(mpmath, z, zp, m, grid, bessel_k, n):
    # sum_{nu<n} conj(a_nu(z)) a_nu(zp) G_nu with the Gram diagonal
    # G_nu = 2 pi sum_r w_r r (2/pi) I_m(2r) K_m(2r) a_nu(r)^2
    def amplitudes(x):
        x = mpmath.mpc(x)
        scale = abs(x) ** m / mpmath.besseli(m, 2 * abs(x))
        return [mpmath.sqrt(scale / (mpmath.factorial(nu) * mpmath.factorial(nu + m)))
                * x ** nu for nu in range(n)]
    gram = [mpmath.mpf(0)] * n
    for r, w, k in zip(grid.nodes, grid.weights, bessel_k):
        r, w = mpmath.mpf(float(r)), mpmath.mpf(float(w))
        i_m = mpmath.besseli(m, 2 * r)
        term = 4 * w * r * i_m * k[m] * r ** m / (i_m * mpmath.factorial(m))
        r_sq = r * r
        for nu in range(n):
            if nu:
                term *= r_sq / (nu * (nu + m))
            gram[nu] += term
    return mpmath.fsum(mpmath.conj(a) * b * g
                       for a, b, g in zip(amplitudes(z), amplitudes(zp), gram))


@pytest.mark.parametrize("z, zp, m", [
    (2.0, -1.0 + 1.5j, 0),
    (1.5 - 2.0j, 2.5 + 0.5j, 2),
    (cmath.rect(10.0, 0.9), cmath.rect(10.0, -0.9), 1),
])
def test_kernel_quadrature_vs_mpmath(mp_kernel_grid, z, zp, m):
    # the residual |sum_nu conj(a_nu(z)) a_nu(zp) G_nu - K(z, zp)| against
    # the same radial rule and K(z, zp) = S_m(conj(z) zp) / sqrt(S_m(|z|^2)
    # S_m(|zp|^2)) at 40 digits, with S_m(w) = 0F1(; m+1; w) / m!.  At
    # |z| = 10 the labels keep 179 amplitudes, more than twice the 64 angles
    # an angular sampling would need; the grid's 16 angles would alias the
    # mode differences, but the radial form reads no angles
    mpmath, g, bessel_k = mp_kernel_grid
    a, ap = (bgcs_state(x, SubspaceSpec(m), tail_tol=1e-300).amplitudes for x in (z, zp))
    n = min(a.size, ap.size)
    if abs(z) == 10.0:
        assert n == 179
    got = kernel_idempotence_check(z, zp, m, g)
    with mpmath.workdps(40):
        def series(w):
            return mpmath.hyp0f1(m + 1, w) / mpmath.factorial(m)
        zc, zpc = mpmath.mpc(z), mpmath.mpc(zp)
        want_k = series(mpmath.conj(zc) * zpc) / mpmath.sqrt(
            series(abs(zc) ** 2) * series(abs(zpc) ** 2))
        want = abs(_mp_kernel_quadrature(mpmath, z, zp, m, g, bessel_k, n) - want_k)
    assert abs(got - float(want)) < 1e-14


def test_kernel_check_reads_the_identity_checks_gram_diagonal():
    # both checks read one cached G_nu per (grid, m, mode count): the label 0
    # keeps 31 amplitudes, the modes of n_check = 30, so after the identity
    # check neither a kernel check nor its repeat adds a cache entry
    g = build_grid(max_degree=64)
    assert resolution_of_identity_check(SubspaceSpec(0), 30, g) < 1e-10
    keys = list(g._profiles)
    assert bgcs_state(0.8, SubspaceSpec(0), tail_tol=1e-300).amplitudes.size > 31
    first = kernel_idempotence_check(0.0, 0.8, 0, g)
    assert list(g._profiles) == keys
    assert kernel_idempotence_check(0.0, 0.8, 0, g) == first
    assert list(g._profiles) == keys


def test_kernel_diagonal_reproduces_normalization(grid):
    lab = _label(1.1, 0.4)
    assert kernel_idempotence_check(lab, lab, 1, grid) < 1e-6
    assert overlap(lab, lab, 1) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------- statistics

def test_mean_values_frozen():
    lab = _label(2.0, 0.9)
    assert mean_n(lab, 1) == pytest.approx(_MEAN_N_21, rel=5e-14)
    assert mean_n_sq(lab, 1) == pytest.approx(_MEAN_N2_21, rel=5e-14)
    assert mean_k3(lab, 1) == pytest.approx(_MEAN_K3_21, rel=5e-14)
    assert g2(lab, 1) == pytest.approx(_G2_21, rel=1e-13)
    assert mandel_q(lab, 1) == pytest.approx(_Q_21, rel=1e-13)


def test_mean_values_at_zero_label():
    lab = _label(0.0)
    assert mean_n(lab, 4) == 0.0
    assert mean_n_sq(lab, 4) == 0.0
    assert mean_k3(lab, 4) == 2.5
    assert g2(lab, 4) == pytest.approx(5.0 / 6.0, rel=1e-14)
    with pytest.raises(DomainError):
        mandel_q(lab, 4)
    # 1/200! underflows to 0, so the zero means cannot come from the ratio
    assert mean_n(lab, 200) == 0.0
    assert mean_n_sq(lab, 200) == 0.0


# every entry that takes an order m, called at z = 0 (where several return
# early) and at z = 1
_ORDER_TAKERS = {
    "mean_n": mean_n,
    "mean_n_sq": mean_n_sq,
    "mean_k3": mean_k3,
    "g2": g2,
    "mandel_q": mandel_q,
    "snr": snr,
    "probability_density": lambda z, m: probability_density(z, m, 0),
    "overlap": lambda z, m: overlap(z, z, m),
    # the radial amplitudes a_nu(r) at a grid's nodes, from their one builder
    "radial_amplitudes": lambda z, m: _node_amplitudes(
        m, panel_grid(4, cutoff=20.0), 3),
    "bessel_i": lambda z, m: bessel_i(m, abs(z)),
    "bessel_i_scaled": lambda z, m: bessel_i_scaled(m, abs(z)),
    "bessel_i_reduced": lambda z, m: bessel_i_reduced(m, z),
    "bessel_k": lambda z, m: bessel_k(m, abs(z)),
    "bessel_k_scaled": lambda z, m: bessel_k_scaled(m, abs(z)),
    "measure_density": measure_density,
}


@pytest.mark.parametrize("m", [-2, -1, True, np.True_, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("z", [0.0, 1.0])
@pytest.mark.parametrize("name", list(_ORDER_TAKERS))
def test_order_must_be_an_integer_at_least_zero(name, z, m):
    with pytest.raises(DomainError):
        _ORDER_TAKERS[name](complex(z), m)


def _series_means(rho, m):
    s0 = bessel_power_sum(0, m, rho)
    s1 = bessel_power_sum(1, m, rho)
    s2 = bessel_power_sum(2, m, rho)
    return s1 / s0, s2 / s0


@pytest.mark.parametrize("rho,m", [(0.3, 0), (2.0, 1), (3.0, 1), (7.5, 4),
                                   (20.0, 2), (45.0, 0), (45.0, 6)])
def test_closed_forms_match_series_oracle(rho, m):
    lab = _label(rho)
    n1, n2 = _series_means(rho, m)
    assert mean_n(lab, m) == pytest.approx(n1, rel=1e-10)
    assert mean_n_sq(lab, m) == pytest.approx(n2, rel=1e-10)
    assert mean_k3(lab, m) == pytest.approx(n1 + 0.5 * (m + 1), rel=1e-10)
    assert g2(lab, m) == pytest.approx((n2 - n1) / n1 ** 2, rel=1e-10)


def test_second_moment_against_state_amplitudes():
    lab = _label(2.0)
    v = bgcs_state(lab, SubspaceSpec(0))
    nu = np.arange(v.amplitudes.size)
    p = np.abs(v.amplitudes) ** 2
    assert mean_n_sq(lab, 0) == pytest.approx(float((nu ** 2 * p).sum()), rel=1e-12)


def test_mean_k3_small_label_expansion():
    for m in range(5):
        lab = _label(1e-2)
        approx = (2.0 * lab.rho ** 2 + (m + 1) ** 2) / (2.0 * (m + 1))
        assert mean_k3(lab, m) == pytest.approx(approx, rel=1e-4)


def test_g2_limits():
    for m in range(6):
        assert g2(_label(1e-3), m) == pytest.approx((m + 1) / (m + 2), rel=1e-4)
    assert g2(_label(50.0), 0) == pytest.approx(_G2_50, rel=1e-12)
    assert abs(g2(_label(50.0), 0) - 1.0) < 0.02


@pytest.mark.parametrize("m", [100, 101, 120, 166])
def test_g2_and_overlap_at_large_order_vs_mpmath(m):
    # the series are ~1/m!, so a product of two of them is subnormal from
    # m = 101 and 0 from m = 102
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for r in (1e-3, 0.5, 2.0, 10.0, 39.0, 45.0):
            x = 2 * mpmath.mpf(r)
            want = mpmath.besseli(m, x) * mpmath.besseli(m + 2, x) \
                / mpmath.besseli(m + 1, x) ** 2
            assert g2(_label(r), m) == pytest.approx(float(want), rel=2e-13)

        def series(w):
            return mpmath.hyp0f1(m + 1, w) / mpmath.factorial(m)
        for zp, z in ((1.0, 1.0 + 0.5j), (0.3 + 0.2j, 1.1 - 0.4j), (3.0, -3.0),
                      (0.0, 1.0)):
            a, b = mpmath.mpc(zp), mpmath.mpc(z)
            want = series(mpmath.conj(a) * b) \
                / mpmath.sqrt(series(abs(a) ** 2) * series(abs(b) ** 2))
            assert abs(overlap(zp, z, m) - complex(want)) < 1e-14
    assert g2(_label(0.0), m) == (m + 1) / (m + 2)


def test_g2_and_overlap_out_of_double_range_raise():
    # 1/k! is subnormal from k = 171 and 0 from k = 178; g2 sums the series
    # of orders m..m+2 and overlap that of order m
    assert g2(_label(0.0), 200) == 201 / 202
    for m in (170, 200):
        with pytest.raises(EvaluationError):
            g2(_label(0.5), m)
    for m in (171, 200):
        with pytest.raises(EvaluationError):
            overlap(1.0, 1.0 + 0.5j, m)


@pytest.mark.parametrize("m,r", [(1500, 41.0), (5000, 350.0)])
def test_scaled_branch_statistics_out_of_double_range_raise(m, r):
    # past the ratio switch the statistics divide by e^{-2r} I_m(2r), which
    # underflows to 0 at these orders
    for fn in (mean_n, mean_n_sq, mandel_q, g2):
        with pytest.raises(EvaluationError, match="normal double range"):
            fn(_label(r), m)


def test_scaled_branch_statistics_in_range_keep_their_values():
    # 2|z| = 82 is below x0 = 0.4 m^2 for orders 171 to 173, so bessel_i_scaled
    # takes them from the backward ratio recurrence; the bits are pinned, and
    # each statistic is within 1.1e-14 (mean_n), 5.8e-15 (mean_n_sq), 1.6e-14
    # (g2) and 3.1e-12 (mandel_q) of mpmath at 60 digits.  The bounds below
    # are the errors of the peak-outward sum it replaced
    mpmath = pytest.importorskip("mpmath")
    lab, m = _label(41.0), 171
    got = [mean_n(lab, m), mean_n_sq(lab, m), g2(lab, m), mandel_q(lab, m)]
    assert [v.hex() for v in got] == ["0x1.28d2214a3fb5fp+3", "0x1.7b74786cede2cp+6",
                                      "0x1.fd530f899cddbp-1", "-0x1.8d141f9ab2111p-5"]
    with mpmath.workdps(60):
        r = mpmath.mpf(41)
        i0, i1, i2 = (mpmath.besseli(m + k, 2 * r) for k in range(3))
        r1, r2 = r * i1 / i0, r * r * i2 / i0
        want = [r1, r2 + r1, i0 * i2 / i1 ** 2, (r2 - r1 * r1) / r1]
        for v, w, bound in zip(got, want, (3.9e-14, 4.3e-14, 1.3e-13, 2.5e-11)):
            assert abs(v / w - 1) <= bound, (v, bound)


@pytest.mark.parametrize("rho", [1.3e154, 1.4e154, 1e300])
@pytest.mark.parametrize("m", [0, 3])
def test_statistics_past_sqrt_dbl_max_raise(rho, m):
    # past sqrt(DBL_MAX) |z|^2 I_{m+2}/I_m and mean_k3^2 overflow; snr's
    # 2|z|^2 overflows already from sqrt(DBL_MAX/2); the first ratio stays finite
    lab = _label(rho)
    overflows = (mean_n_sq, mandel_q, fano, dispersions) if math.isinf(rho * rho) else ()
    for fn in overflows + (snr,):
        with pytest.raises(EvaluationError):
            fn(lab, m)
    for fn in (mean_n, mean_k3, g2):
        assert math.isfinite(fn(lab, m))


@pytest.mark.parametrize("m", [0, 1, 5])
def test_statistics_past_690_vs_mpmath(m):
    # |z| > 345 puts 2|z| past 690, where only the scaled Bessel values stay
    # in double range (here from the Hankel sum); mandel_q cancels (R2 - R1^2) ~ |z| / 2 against R1^2
    # ~ |z|^2, so its error may grow like |z|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for r in (346.0, 500.0, 2000.0, 1e4):
            i0, i1, i2 = (mpmath.besseli(m + k, 2 * mpmath.mpf(r)) for k in range(3))
            r1, r2 = r * i1 / i0, r * r * i2 / i0
            lab = _label(r)
            assert mean_n(lab, m) == pytest.approx(float(r1), rel=1e-14), r
            assert g2(lab, m) == pytest.approx(float(i0 * i2 / i1 ** 2), rel=1e-14), r
            assert mandel_q(lab, m) == pytest.approx(float((r2 - r1 * r1) / r1),
                                                     rel=r * 1e-13), r


def test_mandel_small_label():
    got = mandel_q(_label(1e-2), 1)
    assert got == pytest.approx(-1e-4 / 6.0, rel=1e-2)
    assert fano(_label(1e-2), 1) == pytest.approx(1.0 + got, rel=1e-12)


def test_ratio_switchover_continuity():
    below, above = _label(39.95), _label(40.05)
    assert abs(mean_n(below, 2) - mean_n(above, 2)) < 0.2
    assert abs(g2(below, 2) - g2(above, 2)) < 1e-4


# ---------------------------------------------------------------- snr

def test_snr_vanishes_on_imaginary_axis():
    assert snr(_label(1.3, 0.5 * math.pi), 0) < 1e-25


def test_snr_large_label_frozen():
    val = snr(_label(50.0), 0)
    assert val == pytest.approx(_SNR_50, rel=1e-12)
    assert val / (4.0 * 50.0 ** 2 / (2.0 * 50.0 + 1.0)) == pytest.approx(1.0, abs=0.01)


def test_snr_small_label_expansion():
    rho, m = 1e-2, 0
    want = (m + 1) * 4.0 * rho ** 2 / (2.0 * rho ** 2 + (m + 1) ** 2)
    assert snr(_label(rho), m) == pytest.approx(want, rel=1e-3)
    assert snr(_label(1e-6), 3) < 1e-11


def test_snr_momentum_variant():
    # the momentum quadrature's ratio is snr at the label a quarter turn back
    lab = _label(2.0, 0.5 * math.pi)
    full = 2.0 * lab.rho ** 2 / mean_k3(lab, 1)
    assert snr(_label(lab.rho, lab.phi - 0.5 * math.pi), 1) == pytest.approx(full, rel=1e-12)


# ---------------------------------------------------------------- dynamics

def test_evolution_identity_and_half_turn():
    p = PhysicalParams(omega0=1.0, omega_c=1.0)
    lab = _label(1.3, 0.4)
    same = evolve_label(lab, 0.0, p)
    assert same.rho == lab.rho and same.phi == lab.phi
    period_half = 2.0 * math.pi / (p.omega - p.omega_c)
    flipped = evolve_label(lab, period_half, p)
    assert flipped.rho == lab.rho
    assert flipped.phi == pytest.approx((0.4 - math.pi) % (2.0 * math.pi), abs=1e-12)


def test_evolution_preserves_statistics_bitwise():
    p = PhysicalParams(omega0=0.8, omega_c=1.1)
    lab = _label(2.7, 1.9)
    ev = evolve_label(lab, 3.21, p)
    assert mean_n(ev, 2) == mean_n(lab, 2)
    assert g2(ev, 2) == g2(lab, 2)
    assert mandel_q(ev, 2) == mandel_q(lab, 2)


@pytest.mark.parametrize("t", [0.9, 2.3])
@pytest.mark.parametrize("rho", [0.6, 1.7])
@pytest.mark.parametrize("m", [0, 2, 5])
@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: evolve_label rotates at omega_minus, "
                   "hamiltonian_matrix is spaced by Omega")
def test_evolved_label_is_the_hamiltonian_evolved_state(m, rho, t):
    # temporal stability: e^{-iHt}|z> is the state of the evolved label up to
    # a phase.  H is diagonal, so e^{-iHt} is one phase per level
    p = PhysicalParams(omega0=0.8, omega_c=1.1)
    spec = SubspaceSpec(m, depth=60)
    energies = np.diag(hamiltonian_matrix(spec, p).entries).real
    z = _label(rho, 0.4)
    evolved = np.exp(-1j * energies * t) * bgcs_state(z, spec).amplitudes
    moved = bgcs_state(evolve_label(z, t, p), spec).amplitudes
    assert abs(abs(np.vdot(moved, evolved)) - 1.0) <= 1e-12


def test_orbit_density_matches_bessel_product_form():
    p = PhysicalParams(omega0=1.0, omega_c=1.0)
    z0, z, m = _label(1.2, 0.3), _label(0.9, 2.0), 1
    for t in (0.0, 0.7, 3.9):
        zt = evolve_label(z0, t, p)
        got = abs(overlap(z, zt, m)) ** 2
        u = z.z.conjugate() * zt.z
        prod = bessel_i(m, 2.0 * cmath.sqrt(u)) * bessel_i(m, 2.0 * cmath.sqrt(u.conjugate()))
        want = prod.real / (bessel_i(m, 2.0 * z.rho).real * bessel_i(m, 2.0 * zt.rho).real)
        assert got == pytest.approx(want, rel=1e-10)


# ------------------------------------------------------- entire functions

def test_scalar_product_identity_under_quadrature(grid):
    m = 1
    rng = np.random.default_rng(7)
    def random_state():
        a = rng.normal(size=7) + 1j * rng.normal(size=7)
        return StateVector(m=m, amplitudes=a / (np.linalg.norm(a) * (1.0 + 1e-15)))
    s1, s2 = random_state(), random_state()
    direct = complex(np.vdot(s1.amplitudes, s2.amplitudes))

    c = np.array([math.exp(-0.5 * (math.lgamma(k + 1) + math.lgamma(k + m + 1)))
                  for k in range(7)])
    c1 = s1.amplitudes * c
    c2 = s2.amplitudes * c

    def integrand(u):
        zbar = np.conj(u)
        f1 = np.zeros_like(u)
        f2 = np.zeros_like(u)
        for k in range(6, -1, -1):
            f1 = f1 * zbar + c1[k]
            f2 = f2 * zbar + c2[k]
        r = np.abs(u)
        weight = 1.0 / np.exp(ln_bessel_i(m, 2.0 * r) - m * np.log(r))  # 1/S_m(r^2)
        return weight * np.conj(f1) * f2

    quad = integrate(integrand, m, grid, vectorized=True)
    assert abs(quad - direct) < 1e-6


# ---------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(rho=st.floats(min_value=1e-4, max_value=50.0),
       m=st.integers(min_value=0, max_value=8),
       phi=st.floats(min_value=0.0, max_value=6.28))
def test_norm_property(rho, m, phi):
    v = bgcs_state(_label(rho, phi), SubspaceSpec(m))
    assert abs(v.norm_sq - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(min_value=1e-4, max_value=60.0),
       m=st.integers(min_value=0, max_value=8))
def test_sub_poissonian_property(rho, m):
    assert mandel_q(_label(rho), m) <= 0.0
    assert g2(_label(rho), m) < 1.0


@settings(max_examples=40, deadline=None)
@given(r1=st.floats(min_value=0.0, max_value=6.0),
       r2=st.floats(min_value=0.0, max_value=6.0),
       p1=st.floats(min_value=0.0, max_value=6.28),
       p2=st.floats(min_value=0.0, max_value=6.28),
       m=st.integers(min_value=0, max_value=6))
def test_overlap_bound_property(r1, r2, p1, p2, m):
    a, b = _label(r1, p1), _label(r2, p2)
    val = abs(overlap(a, b, m))
    assert val <= 1.0 + 1e-12
    if abs(a.z - b.z) > 1e-3:
        assert val < 1.0


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(min_value=1e-3, max_value=30.0),
       m=st.integers(min_value=0, max_value=8))
def test_closed_form_vs_series_property(rho, m):
    n1, n2 = _series_means(rho, m)
    lab = _label(rho)
    assert mean_n(lab, m) == pytest.approx(n1, rel=1e-10)
    assert mean_n_sq(lab, m) == pytest.approx(n2, rel=1e-10)
