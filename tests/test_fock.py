"""Ladder matrices: algebra relations, adjoints, spectrum, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs.fock import (
    OperatorMatrix,
    PhysicalParams,
    SubspaceSpec,
    adjoint,
    commutator,
    hamiltonian_from_ladders,
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
    for nu in range(1, kp.dim):
        assert kp.entries[nu, nu - 1] == math.sqrt(nu * (nu + m))
    assert kp.band == 1 and not kp.surrogate


@pytest.mark.parametrize("m", [0, 3, 10 ** 7])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_lowering_band_matches_entry_by_entry_route(m, dtype):
    # reference: each entry's exact integer product converted on its own,
    # then rooted; at m = 1e7 the K-^2 products pass 2^53 and are rounded
    for step in (1, 2):
        band = lowering_band(m, 30, step, dtype)
        assert band.dtype == dtype and band.size == 30 - step
        for nu in range(30 - step):
            exact = math.prod((nu + j) * (m + nu + j) for j in range(1, step + 1))
            assert band[nu] == np.sqrt(np.asarray(exact, dtype=dtype))


def test_diagonal_entries():
    k3 = ladder_matrix("k3", _spec(4))
    assert k3.entries[3, 3] == 3 + 2.5
    num = ladder_matrix("number", _spec(4))
    assert np.array_equal(np.diag(num.entries).real, np.arange(25))


def test_adjoint_pairs_exact():
    for m in (0, 3):
        kp = ladder_matrix("k_plus", _spec(m))
        km = ladder_matrix("k_minus", _spec(m))
        assert np.array_equal(adjoint(kp).entries, km.entries)
        xp = ladder_matrix("x_plus", _spec(m))
        xm = ladder_matrix("x_minus", _spec(m))
        assert np.array_equal(adjoint(xp).entries, xm.entries)


def test_lowering_annihilates_bottom():
    km = ladder_matrix("k_minus", _spec(3))
    e0 = np.zeros(km.dim)
    e0[0] = 1.0
    assert np.all(km.entries @ e0 == 0.0)


# ---------------------------------------------------------------- algebra

def _interior(mat, edge=2):
    return mat[:-edge, :-edge]


@pytest.mark.parametrize("m", [0, 1, 2, 7])
def test_su11_commutation(m):
    sp = _spec(m, depth=40)
    kp = ladder_matrix("k_plus", sp)
    km = ladder_matrix("k_minus", sp)
    k3 = ladder_matrix("k3", sp)
    # truncation corrupts only the last row/column of [K+, K-]
    lhs = commutator(kp, km).entries
    rhs = -2.0 * k3.entries
    assert np.max(np.abs(_interior(lhs) - _interior(rhs))) < 1e-12
    assert np.max(np.abs(commutator(k3, kp).entries - kp.entries)) < 1e-12
    assert np.max(np.abs(commutator(k3, km).entries + km.entries)) < 1e-12


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
    xm = ladder_matrix("x_minus", sp).entries
    xp = ladder_matrix("x_plus", sp).entries
    assert np.allclose(np.diag(xm @ xp).real, nu, atol=0)


# ---------------------------------------------------------------- surrogates

def test_surrogate_flags():
    sp = _spec(2)
    for kind in ("pi_plus", "pi_minus", "x_plus", "x_minus"):
        assert ladder_matrix(kind, sp).surrogate
    for kind in ("k_plus", "k_minus", "k3", "number"):
        assert not ladder_matrix(kind, sp).surrogate


def test_pi_surrogate_is_total_level_diagonal():
    sp = _spec(5)
    pp = ladder_matrix("pi_plus", sp)
    assert np.array_equal(np.diag(pp.entries).real, 5 + np.arange(sp.depth + 1))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ladder_matrix("a_plus", _spec(0))


# ---------------------------------------------------------------- matrices API

def test_operator_matrix_band_enforced():
    bad = np.zeros((4, 4))
    bad[0, 3] = 1.0
    with pytest.raises(ValueError):
        OperatorMatrix(bad, band=1)


def test_operator_matrix_read_only():
    op = ladder_matrix("k3", _spec(1))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 99.0


def test_commutator_dim_mismatch():
    a = ladder_matrix("k3", _spec(1, depth=10))
    b = ladder_matrix("k3", _spec(1, depth=12))
    with pytest.raises(ValueError):
        commutator(a, b)


# ---------------------------------------------------------------- parameters

def test_params_derived_quantities():
    p = PhysicalParams(omega0=1.0, omega_c=1.0, hbar=1.0, mass=1.0)
    assert p.omega == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert p.omega_minus == pytest.approx(0.5 * (math.sqrt(5.0) - 1.0), rel=1e-15)
    assert p.epsilon_gap == pytest.approx(p.omega_minus, rel=1e-15)
    assert p.magnetic_length == pytest.approx(5.0 ** -0.25, rel=1e-15)


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
    with pytest.raises(ValueError):
        SubspaceSpec(m=0, depth=4)
    with pytest.raises(ValueError):
        SubspaceSpec(m=0).require_depth()


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
    p = PhysicalParams(omega0=0.7, omega_c=1.3, hbar=0.9, mass=1.7)
    sp = _spec(m, depth=32)
    closed = hamiltonian_matrix(sp, p).entries
    rebuilt = hamiltonian_from_ladders(sp, p).entries
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
    assert np.max(np.abs(commutator(h, k3).entries)) == 0.0


# ---------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=0, max_value=20),
       depth=st.integers(min_value=8, max_value=48))
def test_su11_commutation_property(m, depth):
    sp = SubspaceSpec(m=m, depth=depth)
    kp = ladder_matrix("k_plus", sp)
    km = ladder_matrix("k_minus", sp)
    k3 = ladder_matrix("k3", sp)
    lhs = commutator(kp, km).entries
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
