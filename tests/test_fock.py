"""Ladder matrices: algebra relations, adjoints, spectrum, reconstruction,
and the diagonal-built OperatorMatrix."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs import fock
from landau_bgcs.bgcs import bgcs_state
from landau_bgcs.fock import (
    OperatorMatrix,
    PhysicalParams,
    SubspaceSpec,
    hamiltonian_matrix,
    ladder_matrix,
    level_energy,
    lowering_band,
)
from landau_bgcs.specfun import DomainError


def _spec(m, depth=24):
    return SubspaceSpec(m=m, depth=depth)


# ---------------------------------------------------------------- matrices

@pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
def test_raising_entries(m):
    kp = ladder_matrix("k_plus", _spec(m))
    for nu in range(1, kp.entries.shape[0]):
        assert kp.entries[nu, nu - 1] == math.sqrt(nu * (nu + m))
    assert kp.band == 1


@pytest.mark.parametrize("m", [0, 3, 10 ** 7, 10 ** 9])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_lowering_band_matches_entry_by_entry_route(m, dtype):
    # reference: each entry's exact integer product converted on its own,
    # then rooted; at m = 1e7 the K-^2 products pass 2^53 and are rounded,
    # and at m = 1e9 they pass 2^63, so they are formed in Python ints
    for step in (1, 2):
        band = lowering_band(m, 30, step, dtype)
        assert band.dtype == dtype and band.size == 30 - step
        for nu in range(30 - step):
            exact = math.prod((nu + j) * (m + nu + j) for j in range(1, step + 1))
            assert band[nu] == np.sqrt(np.asarray(exact, dtype=dtype))


def _ladder_square(m, row, lower, raise_):
    # <row| K-^lower K+^raise |row + lower - raise>^2 in Python ints, one
    # ladder step at a time from the column: K+|c> = sqrt((c+1)(m+c+1))|c+1>,
    # K-|c> = sqrt(c (m+c))|c-1>
    c, sq = row + lower - raise_, 1
    for _ in range(raise_):
        sq *= (c + 1) * (m + c + 1)
        c += 1
    for _ in range(lower):
        sq *= c * (m + c)
        c -= 1
    assert c == row
    return sq


@pytest.mark.parametrize("m", [0, 3, 10 ** 9])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_lowering_band_of_every_monomial(m, dtype):
    # the diagonal i - j of K-^i K+^j; at m = 1e9 the squares pass 2^63 and
    # are formed in Python ints.  Where i == j the square is a perfect
    # square, and its integer root is rounded once
    dim = 20
    for i in range(4):
        for j in range(4):
            band = lowering_band(m, dim, i, dtype, raising=j)
            k = i - j
            assert band.dtype == dtype and band.size == dim - abs(k)
            for t in range(dim - abs(k)):
                sq = _ladder_square(m, t + max(-k, 0), i, j)
                want = np.asarray(math.isqrt(sq), dtype=dtype) if i == j \
                    else np.sqrt(np.asarray(sq, dtype=dtype))
                assert band[t] == want, (i, j, t)
            if i == j == 1:
                nu = np.arange(dim)
                assert np.array_equal(band, ((nu + 1) * (nu + 1 + m)).astype(dtype))
            if j == 0 and i:
                assert np.array_equal(band, lowering_band(m, dim, 0, dtype, raising=i))


@pytest.mark.parametrize("m", [0, 3, 10 ** 6, 10 ** 9, 10 ** 12])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_square_band_is_its_integer_root_rounded_once(m, dtype):
    # K-^s K+^s has the integer diagonal P(nu, s) = prod_{l<=s} (nu+l)(m+nu+l).
    # Rounded once, it is the correctly rounded value; the square-then-root
    # route of the other bands gives the same bits for s = 1 (the quantized
    # |z|^2 of energy_commutators), and for s = 2 differs only where P passes
    # 2^53, by at most one rounding of the dtype
    dim = 2000
    up, down = dtype(np.inf), dtype(0.0)
    for step in (1, 2):
        exact = [math.prod((t + l) * (m + t + l) for l in range(1, step + 1))
                 for t in range(dim)]
        got = lowering_band(m, dim, step, dtype, raising=step)
        assert got.dtype == dtype and got.size == dim
        for x, p in zip(got, exact):
            err = abs(int(x) - p)
            assert err <= abs(int(np.nextafter(x, up)) - p)
            assert err <= abs(int(np.nextafter(x, down)) - p)
        rooted = np.sqrt(np.asarray([p * p for p in exact], dtype=dtype))
        if step == 1:
            assert np.array_equal(got, rooted)
        else:
            moved = np.flatnonzero(got != rooted)
            assert all(exact[t] > 2 ** 53 for t in moved)
            assert np.all(np.abs(got - rooted) <= np.finfo(dtype).eps * rooted)


def _value_bytes(a):
    # the bytes that hold each value: x86 extended precision keeps 80 bits
    # (63-bit mantissa) in a 16-byte slot whose padding is not set
    width = 10 if np.finfo(a.dtype).nmant == 63 else a.dtype.itemsize
    return a.view(np.uint8).reshape(a.size, a.dtype.itemsize)[:, :width].tobytes()


@pytest.mark.parametrize("m", [0, 5, 10 ** 9])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_memoised_band_equals_an_uncached_build_and_is_read_only(m, dtype):
    build = fock._band.__wrapped__
    for dim in (1, 9, 31):
        for step, raising in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (3, 1)):
            want = build(m, dim, step, np.dtype(dtype), raising)
            for _ in range(2):
                got = lowering_band(m, dim, step, dtype, raising=raising)
                assert got.dtype == want.dtype and _value_bytes(got) == _value_bytes(want)
                assert not got.flags.writeable
                if got.size:
                    with pytest.raises(ValueError):
                        got[0] = 0.0
    # an accepted int-valued float is the same key, served the same band
    assert lowering_band(float(m), 31.0, 1.0, dtype, 0.0) is lowering_band(m, 31, 1, dtype)


def test_band_memo_is_bounded():
    fock._band.cache_clear()
    for dim in range(1, 101):
        lowering_band(3, dim)
    info = fock._band.cache_info()
    assert info.maxsize == fock._BAND_MEMO_SIZE == 64 and info.currsize == 64


@pytest.mark.parametrize("kind", ["k_plus", "k_minus", "k3", "number"])
@pytest.mark.parametrize("m", [0, 3, 50])
def test_memoised_ladder_equals_a_fresh_build_and_is_read_only(kind, m):
    # dims 9 and 31 are served from the memo, 129 is past its cap of 128
    # and is built on every call without being stored
    build = fock._ladder.__wrapped__
    fock._ladder.cache_clear()
    for dim in (9, 31, 129):
        want = build(kind, m, dim)
        ops = [ladder_matrix(kind, SubspaceSpec(m, depth=dim - 1)) for _ in range(2)]
        for op in ops:
            assert op.entries.tobytes() == want.entries.tobytes()
            assert (op.band, op.label) == (want.band, want.label)
            assert not op.entries.flags.writeable
            with pytest.raises(ValueError):
                op.entries[0, 0] = 1.0
        assert (ops[0] is ops[1]) == (dim <= fock._LADDER_MEMO_DIM)
    info = fock._ladder.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)


def test_ladder_memo_is_bounded():
    fock._ladder.cache_clear()
    for m in range(40):
        ladder_matrix("k_minus", SubspaceSpec(m, depth=127))
    info = fock._ladder.cache_info()
    assert info.maxsize == fock._LADDER_MEMO_SIZE == 16 and info.currsize == 16
    assert fock._LADDER_MEMO_DIM == 128


def test_ladder_memo_stores_no_refusal():
    fock._ladder.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError):
            ladder_matrix("k_bogus", SubspaceSpec(2, depth=8))
        with pytest.raises(DomainError):
            ladder_matrix("k3", SubspaceSpec(2))
    assert fock._ladder.cache_info().currsize == 0


@pytest.mark.parametrize("args", [
    (-2, 6), (3, 10, -1), (2.5, 10), (True, 10), (np.bool_(True), 10), (2, 0),
    (2, -3), (2, 10.5), (2, True), (2, 10, 1, np.float64, -1), (2, 10, 1.5),
    (2, 10, 1, np.float64, 0.5), (math.nan, 10), ("2", 10), (2, math.inf),
])
def test_lowering_band_rejects_what_is_no_order(args):
    with pytest.raises(DomainError):
        lowering_band(*args)


def test_diagonal_entries():
    k3 = ladder_matrix("k3", _spec(4))
    assert k3.entries[3, 3] == 3 + 2.5
    num = ladder_matrix("number", _spec(4))
    assert np.array_equal(np.diag(num.entries).real, np.arange(25))


def test_adjoint_pairs_exact():
    for m in (0, 3):
        kp = ladder_matrix("k_plus", _spec(m))
        km = ladder_matrix("k_minus", _spec(m))
        assert np.array_equal(kp.entries.conj().T, km.entries)


def test_lowering_annihilates_bottom():
    km = ladder_matrix("k_minus", _spec(3))
    e0 = np.zeros(km.entries.shape[0])
    e0[0] = 1.0
    assert np.all(km.entries @ e0 == 0.0)


# ---------------------------------------------------------------- algebra

def _interior(mat, edge=2):
    return mat[:-edge, :-edge]


def _commutator(a, b):
    return a.entries @ b.entries - b.entries @ a.entries


@pytest.mark.parametrize("m", [0, 1, 2, 7])
def test_su11_commutation(m):
    sp = _spec(m, depth=40)
    kp = ladder_matrix("k_plus", sp)
    km = ladder_matrix("k_minus", sp)
    k3 = ladder_matrix("k3", sp)
    # truncation corrupts only the last row/column of [K+, K-]
    lhs = _commutator(kp, km)
    rhs = -2.0 * k3.entries
    assert np.max(np.abs(_interior(lhs) - _interior(rhs))) < 1e-12
    assert np.max(np.abs(_commutator(k3, kp) - kp.entries)) < 1e-12
    assert np.max(np.abs(_commutator(k3, km) + km.entries)) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 4])
def test_casimir_constant_on_interior(m):
    sp = _spec(m, depth=30)
    kp = ladder_matrix("k_plus", sp).entries
    km = ladder_matrix("k_minus", sp).entries
    k3 = ladder_matrix("k3", sp).entries
    cas = k3 @ k3 - 0.5 * (kp @ km + km @ kp)
    want = (m * m - 1) / 4.0
    diag = np.diag(cas).real
    assert np.max(np.abs(diag[:-1] - want)) < 1e-12


def test_raising_lowering_products():
    m = 3
    sp = _spec(m)
    kp = ladder_matrix("k_plus", sp).entries
    km = ladder_matrix("k_minus", sp).entries
    nu = np.arange(sp.depth + 1)
    assert np.allclose(np.diag(kp @ km).real, nu * (nu + m), atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ladder_matrix("a_plus", _spec(0))


def test_retired_surrogate_kinds_rejected():
    # the m-changing ladders have no matrix on one sector; their products
    # are diagonal and assemble hamiltonian_matrix
    for kind in ("pi_plus", "pi_minus", "x_plus", "x_minus"):
        with pytest.raises(ValueError, match="unknown ladder kind"):
            ladder_matrix(kind, _spec(0))


# ---------------------------------------------------------------- matrices API

def _full_band(dim, band):
    # nonzero (real and imaginary) on every diagonal within the band
    idx = np.arange(dim)
    return np.where(abs(idx[:, None] - idx) <= band, 1.0 + 1.0j, 0.0)


def _from_dense(a):
    # the operator whose diagonals are those of the square array a
    n = a.shape[0]
    return OperatorMatrix(n, {k: np.diagonal(a, k) for k in range(1 - n, n)})


@pytest.mark.parametrize("value", [1.0, 1e-300j, math.nan], ids=["real", "tiny-imag", "nan"])
@pytest.mark.parametrize("triangle", ["upper", "lower"])
@pytest.mark.parametrize("offset", ["band+1", "dim-1"])
@pytest.mark.parametrize("band", [0, 1, 2])
def test_operator_matrix_band_enforced(band, offset, triangle, value):
    # the band is derived from the entries: one nonzero real or imaginary
    # part (NaN counts) on diagonal k widens it to k
    dim = 6
    k = band + 1 if offset == "band+1" else dim - 1
    entries = _full_band(dim, band)
    assert _from_dense(entries).band == band
    entries[(0, k) if triangle == "upper" else (k, 0)] = value
    op = _from_dense(entries)
    assert op.band == k
    assert np.array_equal(op.entries, entries, equal_nan=True)


@pytest.mark.parametrize("band", [0, 5])
def test_operator_matrix_band_accepts_signed_zero_and_full_band(band):
    # -0.0 outside the band is zero; at band dim - 1 nothing is outside
    entries = _full_band(6, band)
    entries[entries == 0.0] = complex(-0.0, -0.0)
    op = _from_dense(entries)
    assert op.band == band
    assert np.array_equal(op.entries, entries)
    assert np.array_equal(np.signbit(op.entries.view(np.float64)),
                          np.signbit(entries.view(np.float64)))
    entries[0, 0] = 7.0
    assert op.entries[0, 0] == 1.0 + 1.0j


def test_operator_matrix_from_diagonals():
    # each offset lands on np.diag(entries, offset); no input array is shared
    upper, lower = np.array([1.0, 2.0, 3.0]), np.array([4j, 5j])
    op = OperatorMatrix(4, {1: upper, -2: lower, 0: np.zeros(4)}, "t")
    want = np.diag(upper, 1).astype(complex) + np.diag(lower, -2)
    assert np.array_equal(op.entries, want) and op.band == 2 and op.label == "t"
    upper[0] = 9.0
    assert op.entries[0, 1] == 1.0


@pytest.mark.parametrize("offset,values", [
    (1, np.ones(6)), (1, np.ones(4)), (-2, np.ones(5)), (0, np.ones((2, 3))),
    (6, np.ones(0)), (-7, np.ones(1)), (0, 1.0),
])
def test_operator_matrix_rejects_diagonal_of_wrong_length(offset, values):
    with pytest.raises(ValueError, match="needs"):
        OperatorMatrix(6, {offset: values})


def test_ladder_builds_one_dense_array():
    # a band ladder and its first entries read allocate the entries and
    # nothing else of their size; one warm call first, so first-call
    # allocations are not counted
    ladder_matrix("k_minus", SubspaceSpec(3, depth=20)).entries
    tracemalloc.start()
    try:
        entries = ladder_matrix("k_minus", SubspaceSpec(3, depth=344)).entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entries.nbytes == 345 ** 2 * 16
    assert peak <= 1.25 * entries.nbytes


def test_entries_are_formed_once_and_equal_an_eager_layout():
    # two reads return the same read-only array, bit for bit the layout of
    # every kept diagonal into zeros, and the diagonals are read-only copies
    lower = np.array([-0.0, 2.5j, math.nan])
    op = OperatorMatrix(5, {2: np.arange(3.0), -2: lower, 0: np.full(5, -0.0)})
    first = op.entries
    assert op.entries is first and not first.flags.writeable
    want = np.zeros((5, 5), np.complex128)
    for k, d in op.diagonals.items():
        t = np.arange(5 - abs(k))
        want[t + max(-k, 0), t + max(k, 0)] = d
    assert first.tobytes() == want.tobytes()
    lower[1] = 0.0
    assert op.diagonals[-2][1] == 2.5j and not op.diagonals[-2].flags.writeable
    with pytest.raises(TypeError):
        op.diagonals[1] = np.ones(4)


def test_operator_matrix_read_only():
    op = ladder_matrix("k3", _spec(1))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 99.0


# ---------------------------------------------------------------- parameters

def test_params_derived_quantities():
    p = PhysicalParams(omega0=1.0, omega_c=1.0, hbar=1.0, mass=1.0)
    assert p.omega == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert p.omega_minus == pytest.approx(0.5 * (math.sqrt(5.0) - 1.0), rel=1e-15)
    assert p.epsilon_gap == pytest.approx(p.omega_minus, rel=1e-15)
    assert math.sqrt(p.hbar / (p.mass * p.omega)) == pytest.approx(5.0 ** -0.25, rel=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(omega0=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(omega0=0.0, omega_c=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(mass=-2.0)


@pytest.mark.parametrize("name", ["omega0", "omega_c", "hbar", "mass"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(name, bad):
    # every comparison is False for NaN, so finiteness is checked by name
    with pytest.raises(DomainError, match=name):
        PhysicalParams(**{name: bad})


def test_slow_length_requires_confinement():
    p = PhysicalParams(omega0=0.0, omega_c=2.0)
    assert p.omega == pytest.approx(2.0)
    with pytest.raises(DomainError):
        _ = p.slow_length


def test_subspace_validation():
    with pytest.raises(DomainError):
        SubspaceSpec(m=-1)
    with pytest.raises(DomainError):
        SubspaceSpec(m=True)
    with pytest.raises(DomainError):
        SubspaceSpec(m=np.True_)
    for depth in (4, 8.5, math.inf, math.nan, True, "9"):
        with pytest.raises(DomainError):
            SubspaceSpec(m=0, depth=depth)
    with pytest.raises(ValueError):
        SubspaceSpec(m=0).require_depth()


def test_subspace_stores_int_orders():
    # an integral float is stored as the int it equals, so it can index the
    # ln k! table
    spec = SubspaceSpec(2.0, depth=9.0)
    assert (type(spec.m), type(spec.depth)) == (int, int)
    assert spec == SubspaceSpec(2, depth=9)
    assert bgcs_state(1.0, SubspaceSpec(2.0)).m == 2
    assert bgcs_state(1.0, SubspaceSpec(0, depth=9.0)).depth == 9


# ---------------------------------------------------------------- Hamiltonian

def test_spectrum_example():
    # Omega = 2, omega_c = 1 needs omega0 = sqrt(3)/2
    p = PhysicalParams(omega0=math.sqrt(3.0) / 2.0, omega_c=1.0)
    assert p.omega == pytest.approx(2.0, rel=1e-15)
    assert level_energy(3, 1, p) == pytest.approx(6.5, rel=1e-14)
    assert level_energy(0, 0, p) == pytest.approx(1.0, rel=1e-14)


def test_level_energy_domain():
    p = PhysicalParams()
    for n, m in ((1, 2), (-1, -1), (True, 0), (1, True)):
        with pytest.raises(DomainError):
            level_energy(n, m, p)


@pytest.mark.parametrize("m", [0, 2, 6])
def test_hamiltonian_reconstruction(m):
    # (1/2) [ (pi+ pi- / 2M)(1 + omega_c/Omega)
    #         + (M Omega^2 / 2)(1 - omega_c/Omega) X- X+  + hbar Omega ]
    # with the within-sector products pi+ pi- = 2 M Omega hbar n and
    # X- X+ = 2 l^2 nu, both diagonal in the number operator nu
    p = PhysicalParams(omega0=0.7, omega_c=1.3, hbar=0.9, mass=1.7)
    sp = _spec(m, depth=32)
    nu = ladder_matrix("number", sp).entries
    om, hbar, mass = p.omega, p.hbar, p.mass
    pi_product = 2.0 * mass * om * hbar * (nu + m * np.eye(sp.depth + 1))
    x_product = 2.0 * math.sqrt(p.hbar / (p.mass * p.omega)) ** 2 * nu
    rebuilt = 0.5 * (pi_product / (2.0 * mass) * (1.0 + p.omega_c / om)
                     + 0.5 * mass * om * om * (1.0 - p.omega_c / om) * x_product
                     + hbar * om * np.eye(sp.depth + 1))
    closed = hamiltonian_matrix(sp, p).entries
    scale = np.max(np.abs(np.diag(closed)))
    assert np.max(np.abs(closed - rebuilt)) < 1e-13 * scale


def test_hamiltonian_gap_between_levels():
    # fixed m: successive nu levels are spaced by hbar Omega exactly
    p = PhysicalParams(omega0=2.0, omega_c=3.0, hbar=2.0)
    d = np.diff(np.diag(hamiltonian_matrix(_spec(4), p).entries).real)
    assert np.allclose(d, p.hbar * p.omega, rtol=1e-14)


def test_hamiltonian_commutes_with_k3():
    sp = _spec(3)
    h = hamiltonian_matrix(sp, PhysicalParams())
    k3 = ladder_matrix("k3", sp)
    assert np.max(np.abs(_commutator(h, k3))) == 0.0


# ---------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=0, max_value=20),
       depth=st.integers(min_value=8, max_value=48))
def test_su11_commutation_property(m, depth):
    sp = SubspaceSpec(m=m, depth=depth)
    kp = ladder_matrix("k_plus", sp)
    km = ladder_matrix("k_minus", sp)
    k3 = ladder_matrix("k3", sp)
    lhs = _commutator(kp, km)
    rhs = -2.0 * k3.entries
    assert np.max(np.abs(lhs[:-1, :-1] - rhs[:-1, :-1])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(om0=st.floats(min_value=0.05, max_value=20.0),
       omc=st.floats(min_value=0.0, max_value=20.0))
def test_composite_frequency_dominates(om0, omc):
    p = PhysicalParams(omega0=om0, omega_c=omc)
    assert p.omega >= omc
    assert p.omega >= 2.0 * om0 - 1e-15
    assert p.omega_minus > 0.0
