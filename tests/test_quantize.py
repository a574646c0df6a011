"""Quantized symbols: ladder forms, quadrature cross-route, operator reports."""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau_bgcs.bgcs import CoherentLabel, bgcs_state, mean_k3
from landau_bgcs.fock import SubspaceSpec, ladder_matrix
from landau_bgcs.measure import _TAIL_TOL, build_grid, integrate
from landau_bgcs.quantize import (
    CommutatorReport,
    DecompositionReport,
    SymbolSpec,
    dispersions,
    dispersions_matrix_route,
    energy_commutators,
    energy_operator_decomposition_check,
    quantize_by_quadrature,
    quantize_closed_form,
)
from landau_bgcs.specfun import DomainError, EvaluationError
from conftest import panel_grid
from oracles import (energy_commutators_reference, energy_operator_decomposition_reference,
                     symbol_value)


def _spec(m, depth=16):
    return SubspaceSpec(m, depth=depth)


@pytest.fixture(scope="module")
def grid():
    return build_grid(max_degree=24, max_mode=16)


# ------------------------------------------------------------ closed forms

def test_lowering_symbol_entries():
    op = quantize_closed_form(SymbolSpec("z"), _spec(0))
    assert op.entries[0, 1] == 1.0
    op3 = quantize_closed_form(SymbolSpec("z"), _spec(3))
    for nu in range(10):
        assert op3.entries[nu, nu + 1] == math.sqrt((nu + 1) * (nu + 4))
    assert op3.band == 1


def test_energy_symbol_diagonal():
    op = quantize_closed_form(SymbolSpec("abs_z_sq"), _spec(1))
    want = [(nu + 1) * (nu + 2) for nu in range(op.entries.shape[0])]
    assert np.array_equal(np.diag(op.entries).real, want)


def test_adjoint_pairs():
    for m in (0, 2):
        az = quantize_closed_form(SymbolSpec("z"), _spec(m))
        azb = quantize_closed_form(SymbolSpec("z_bar"), _spec(m))
        assert np.array_equal(az.entries.conj().T, azb.entries)
        a2 = quantize_closed_form(SymbolSpec("z_sq"), _spec(m))
        a2b = quantize_closed_form(SymbolSpec("z_bar_sq"), _spec(m))
        assert np.array_equal(a2.entries.conj().T, a2b.entries)


def test_self_adjoint_symbols():
    for tag in ("q", "p", "abs_z_sq", "q_sq", "p_sq"):
        op = quantize_closed_form(SymbolSpec(tag), _spec(2))
        assert np.max(np.abs(op.entries - op.entries.conj().T)) == 0.0


@pytest.mark.parametrize("m", [0, 1, 3])
def test_lowering_raising_commutator_is_k3(m):
    sp = _spec(m)
    az = quantize_closed_form(SymbolSpec("z"), sp).entries
    azb = quantize_closed_form(SymbolSpec("z_bar"), sp).entries
    comm = az @ azb - azb @ az
    k3 = 2.0 * ladder_matrix("k3", sp).entries
    assert np.max(np.abs((comm - k3)[:-1, :-1])) < 1e-12


@pytest.mark.parametrize("m", [0, 2])
def test_coordinate_momentum_commutator(m):
    sp = _spec(m)
    q = quantize_closed_form(SymbolSpec("q"), sp).entries
    p = quantize_closed_form(SymbolSpec("p"), sp).entries
    want = 2j * ladder_matrix("k3", sp).entries
    assert np.max(np.abs((q @ p - p @ q - want)[:-1, :-1])) < 1e-12


def test_energy_symbol_is_ordered_product():
    sp = _spec(2)
    az = quantize_closed_form(SymbolSpec("z"), sp).entries
    azb = quantize_closed_form(SymbolSpec("z_bar"), sp).entries
    diag = quantize_closed_form(SymbolSpec("abs_z_sq"), sp).entries
    assert np.max(np.abs((az @ azb - diag)[:-1, :-1])) < 1e-12


def test_squared_symbol_is_square_of_symbol():
    # the double-step quantized symbol coincides with the matrix square of
    # the single-step one; no extra boundary corrections exist
    for m in (0, 1, 4):
        sp = _spec(m)
        az = quantize_closed_form(SymbolSpec("z"), sp).entries
        a2 = quantize_closed_form(SymbolSpec("z_sq"), sp).entries
        assert np.max(np.abs((az @ az - a2)[:-2, :-2])) < 1e-12


def test_symbol_validation():
    with pytest.raises(ValueError):
        SymbolSpec("w")
    with pytest.raises(ValueError):
        SymbolSpec("z", terms=((1, 0, 1.0),))
    with pytest.raises(ValueError):
        SymbolSpec("custom")
    with pytest.raises(ValueError):
        SymbolSpec("custom", terms=((-1, 0, 1.0),))
    # a custom symbol has a closed form: z^2 conj(z) / 2 is K-^2 K+ / 2, the
    # lowering band times the diagonal of the quantized |z|^2
    for m in (0, 3):
        sp = _spec(m)
        got = quantize_closed_form(SymbolSpec("custom", terms=((2, 1, 0.5),)), sp).entries
        want = 0.5 * quantize_closed_form(SymbolSpec("z"), sp).entries \
            @ quantize_closed_form(SymbolSpec("abs_z_sq"), sp).entries
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("power", [1.5, True, -1, math.nan])
def test_custom_powers_must_be_integers_at_least_zero(power):
    # a fractional power of z has a branch cut, and a bool is no power
    for terms in (((power, 0, 1.0),), ((0, power, 1.0),)):
        with pytest.raises(DomainError):
            SymbolSpec("custom", terms=terms)


def test_symbol_evaluation():
    z = 1.0 + 2.0j
    assert symbol_value(SymbolSpec("q"), z) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert symbol_value(SymbolSpec("p"), z) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert symbol_value(SymbolSpec("abs_z_sq"), z) == pytest.approx(5.0, rel=1e-15)
    custom = SymbolSpec("custom", terms=((1, 1, 2.0), (0, 0, -1.0)))
    assert symbol_value(custom, z) == pytest.approx(9.0, rel=1e-15)
    assert custom.degree == 2


_SQRT2 = math.sqrt(2.0)
_TAG_FORMULAS = {
    # each named symbol as a formula of z and conj(z), not from its terms
    "z": lambda z, zc: z,
    "z_bar": lambda z, zc: zc,
    "z_sq": lambda z, zc: z * z,
    "z_bar_sq": lambda z, zc: zc * zc,
    "abs_z_sq": lambda z, zc: (z * zc).real.astype(np.complex128),
    "q": lambda z, zc: (z + zc) / _SQRT2,
    "p": lambda z, zc: (z - zc) / (1j * _SQRT2),
    "q_sq": lambda z, zc: ((z + zc) / _SQRT2) ** 2,
    "p_sq": lambda z, zc: ((z - zc) / (1j * _SQRT2)) ** 2,
}


@pytest.mark.parametrize("tag", sorted(_TAG_FORMULAS))
def test_named_terms_evaluate_as_their_formulas(tag):
    # the sum of terms rounds at the scale of its largest term: q^2 expanded
    # as z^2/2 + |z|^2 + conj(z)^2/2 cancels where |Re z| << |Im z|
    sym = SymbolSpec(tag)
    rng = np.random.default_rng(7)
    z = rng.normal(size=2000) * 3.0 + 1j * rng.normal(size=2000) * 3.0
    got = symbol_value(sym, z)
    want = _TAG_FORMULAS[tag](z, np.conj(z))
    scale = sum(abs(c) * np.abs(z) ** (i + j) for i, j, c in sym.terms)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
    assert sym.degree == (1 if tag in ("z", "z_bar", "q", "p") else 2)


def _dense_closed_form(tag, m, dim):
    # the named closed forms as sums of np.diag matrices of the K- and K-^2
    # bands and the diagonal (nu+1)(m+nu+1)
    nu = np.arange(1, dim + 1, dtype=np.float64)
    b = np.sqrt([float(n * (n + m)) for n in range(1, dim)])
    b2 = np.sqrt([float(n * (n + m) * (n + 1) * (n + 1 + m)) for n in range(1, dim - 1)])
    diag = np.diag(nu * (nu + m))
    return {"z": np.diag(b, 1), "z_bar": np.diag(b, -1), "z_sq": np.diag(b2, 2),
            "z_bar_sq": np.diag(b2, -2), "abs_z_sq": diag,
            "q_sq": diag + 0.5 * np.diag(b2, 2) + 0.5 * np.diag(b2, -2),
            "p_sq": diag - 0.5 * np.diag(b2, 2) - 0.5 * np.diag(b2, -2)}[tag], b


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("depth", [12, 344])
def test_named_closed_forms_match_dense_sums(m, depth):
    dim = depth + 1
    for tag in ("z", "z_bar", "z_sq", "z_bar_sq", "abs_z_sq", "q_sq", "p_sq"):
        got = quantize_closed_form(SymbolSpec(tag), _spec(m, depth)).entries
        want, b = _dense_closed_form(tag, m, dim)
        assert np.array_equal(got.view(np.uint64), want.astype(np.complex128).view(np.uint64)), tag
    # q and p are sqrt(1/2) b, one rounding from the band, where the complex
    # quotient b / sqrt2 rounds twice; they differ by at most 2 ulps
    bc = b.astype(np.complex128)
    for tag, upper, lower in (("q", bc / _SQRT2, bc / _SQRT2),
                              ("p", bc / (1j * _SQRT2), (0.0 - bc) / (1j * _SQRT2))):
        got = quantize_closed_form(SymbolSpec(tag), _spec(m, depth)).entries
        for k, want in ((1, upper), (-1, lower)):
            d = np.diagonal(got, k)
            assert np.array_equal(np.signbit(d.real), np.signbit(want.real))
            assert np.array_equal(np.abs(d.real) == 0.0, np.abs(want.real) == 0.0)
            part = d.imag if tag == "p" else d.real
            ref = want.imag if tag == "p" else want.real
            assert np.all(np.abs(part - ref) <= 2 * np.spacing(np.abs(ref)))
        assert np.count_nonzero(got) == 2 * depth


@pytest.mark.parametrize("m", [0, 3])
def test_quantized_q_band_is_closer_to_exact_than_complex_quotient(m):
    # mean distance in ulps from the exact sqrt((nu+1)(m+nu+1)/2) at depth 344
    dim = 345
    got = np.diagonal(quantize_closed_form(SymbolSpec("q"), _spec(m, 344)).entries, 1).real
    b = np.sqrt([float(n * (n + m)) for n in range(1, dim)]).astype(np.complex128)
    quotient = (b / _SQRT2).real
    err_new = err_old = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        for nu in range(dim - 1):
            exact = (Decimal((nu + 1) * (nu + 1 + m)) / 2).sqrt()
            err_new += float(abs(Decimal(float(got[nu])) - exact)) / math.ulp(got[nu])
            err_old += float(abs(Decimal(float(quotient[nu])) - exact)) / math.ulp(quotient[nu])
    assert err_new < err_old
    assert err_new / (dim - 1) < 0.55


def test_custom_term_outside_truncation_adds_nothing():
    sym = SymbolSpec("custom", terms=((20, 0, 1.0), (1, 1, 2.0)))
    got = quantize_closed_form(sym, _spec(1, depth=8)).entries
    want = 2.0 * quantize_closed_form(SymbolSpec("abs_z_sq"), _spec(1, depth=8)).entries
    assert np.array_equal(got, want)


# ------------------------------------------------------------- quadrature

def _interior_err(a, b, margin):
    d = a[:a.shape[0] - margin, :a.shape[1] - margin] \
        - b[:b.shape[0] - margin, :b.shape[1] - margin]
    return float(np.max(np.abs(d)))


def test_quadrature_matches_closed_form_lowering(grid):
    sp = SubspaceSpec(0, depth=8)
    quad = quantize_by_quadrature(SymbolSpec("z"), sp, grid)
    closed = quantize_closed_form(SymbolSpec("z"), sp)
    assert _interior_err(quad.entries, closed.entries, 2) < 1e-6


def test_quadrature_constant_symbol_gives_identity(grid):
    sp = SubspaceSpec(1, depth=8)
    one = SymbolSpec("custom", terms=((0, 0, 1.0),))
    quad = quantize_by_quadrature(one, sp, grid)
    assert _interior_err(quad.entries, np.eye(9, dtype=complex), 2) < 1e-6


def test_quadrature_energy_symbol_diagonal(grid):
    sp = SubspaceSpec(1, depth=8)
    quad = quantize_by_quadrature(SymbolSpec("abs_z_sq"), sp, grid)
    want = np.diag([(nu + 1.0) * (nu + 2.0) for nu in range(9)]).astype(complex)
    assert _interior_err(quad.entries, want, 2) < 1e-6


def test_quadrature_quadratic_coordinate(grid):
    sp = SubspaceSpec(2, depth=8)
    quad = quantize_by_quadrature(SymbolSpec("q_sq"), sp, grid)
    closed = quantize_closed_form(SymbolSpec("q_sq"), sp)
    assert _interior_err(quad.entries, closed.entries, 2) < 1e-6


def test_quadrature_custom_integer_powers(grid):
    # anti-normal order: z^2 conj(z) quantizes to K-^2 K+ on both routes
    sp = SubspaceSpec(0, depth=8)
    sym = SymbolSpec("custom", terms=((2, 1, 0.5),))
    quad = quantize_by_quadrature(sym, sp, grid)
    closed = quantize_closed_form(sym, sp)
    assert _interior_err(quad.entries, closed.entries, 2) < 1e-6


def _entry_by_entry_quadrature(sym, spec, grid):
    # reference: one full 2-D integrate call per matrix entry, with the
    # angular phase e^{i(nu-up)phi} applied sample by sample
    depth = spec.depth
    amp = np.array([bgcs_state(CoherentLabel(re=float(r), im=0.0), spec).amplitudes.real
                    for r in grid.nodes])
    entries = np.empty((depth + 1, depth + 1), dtype=np.complex128)
    for nu in range(depth + 1):
        for up in range(depth + 1):
            def integrand(z, k=nu - up, a=amp[:, nu:nu + 1] * amp[:, up:up + 1]):
                return symbol_value(sym, z) * a * np.exp(1j * k * np.angle(z))
            entries[nu, up] = integrate(integrand, spec.m, grid, vectorized=True)
    return entries


@pytest.mark.parametrize("m", [0, 2])
def test_quadrature_radial_route_matches_entry_by_entry(m):
    # a custom symbol carrying angular modes +2, 0 and -2; the radial route
    # integrates the angle exactly, the reference by the trapezoid rule
    sym = SymbolSpec("custom", terms=((3, 1, 0.5), (0, 2, 1j), (1, 1, -0.25)))
    sp = SubspaceSpec(m, depth=8)
    g = panel_grid(16, max_degree=2 * 8 + m + 5, n_angular=64)
    got = quantize_by_quadrature(sym, sp, g).entries
    want = _entry_by_entry_quadrature(sym, sp, g)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    # both routes give the untruncated operator's entries, so they agree up
    # to the last row and column
    closed = quantize_closed_form(sym, sp).entries
    assert np.max(np.abs(got - closed)) <= 1e-14 * np.max(np.abs(closed))


@pytest.mark.parametrize("m", [0, 20])
@pytest.mark.parametrize("tag", ["q", "p_sq"])
def test_quadrature_matches_closed_form_at_depth_64(tag, m):
    # the grid resolves every moment the 65 modes need, up to its declared
    # relative tail _TAIL_TOL, which bounds the interior of the difference
    sym = SymbolSpec(tag)
    sp = SubspaceSpec(m, depth=64)
    g = build_grid(max_degree=2 * 64 + m + sym.degree + 1)
    quad = quantize_by_quadrature(sym, sp, g).entries
    closed = quantize_closed_form(sym, sp).entries
    assert _interior_err(quad, closed, 2) <= _TAIL_TOL * np.max(np.abs(closed))


def test_quadrature_reads_no_angles():
    # the angular integral is exact, so the angular sampling cannot enter:
    # grids that differ only in it give the same bits
    sp = SubspaceSpec(2, depth=8)
    sym = SymbolSpec("custom", terms=((3, 1, 0.5), (0, 2, 1j), (1, 1, -0.25)))
    wide = build_grid(max_degree=24, max_mode=16)
    narrow = dataclasses.replace(build_grid(max_degree=24), n_angular=4)
    assert np.array_equal(quantize_by_quadrature(sym, sp, wide).entries,
                          quantize_by_quadrature(sym, sp, narrow).entries)


def test_quadrature_non_finite_symbol_raises(grid):
    bad = SymbolSpec("custom", terms=((1, 0, 1.0), (0, 0, complex(math.nan, 0.0))))
    with pytest.raises(EvaluationError, match="non-finite"):
        quantize_by_quadrature(bad, SubspaceSpec(0, depth=8), grid)
    for c in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(EvaluationError, match="non-finite"):
            quantize_closed_form(SymbolSpec("custom", terms=((1, 0, c),)), SubspaceSpec(0, depth=8))


def test_quadrature_grid_validation(grid):
    with pytest.raises(ValueError):
        quantize_by_quadrature(SymbolSpec("z"), SubspaceSpec(0, depth=12), grid)
    big = SymbolSpec("custom", terms=((5, 5, 1.0),))
    with pytest.raises(ValueError):
        quantize_by_quadrature(big, SubspaceSpec(0, depth=8), grid)


# ------------------------------------------------------------ mean values

def _mean_on_bgcs(tag, label, m):
    # <z|A_f|z> on the coherent state at its automatic depth
    state = bgcs_state(label, SubspaceSpec(m))
    op = quantize_closed_form(SymbolSpec(tag), SubspaceSpec(m, depth=state.depth))
    v = state.amplitudes
    return complex(np.vdot(v, op.entries @ v))


def test_mean_of_lowering_symbol_reproduces_label():
    lab = CoherentLabel.from_polar(1.2, 0.7)
    got = _mean_on_bgcs("z", lab, 2)
    assert got == pytest.approx(lab.z, rel=1e-10)
    got_bar = _mean_on_bgcs("z_bar", lab, 2)
    assert got_bar == pytest.approx(lab.z.conjugate(), rel=1e-10)


def test_mean_coordinates():
    lab = CoherentLabel.from_polar(1.5, 2.2)
    q = math.sqrt(2.0) * lab.rho * math.cos(lab.phi)
    p = math.sqrt(2.0) * lab.rho * math.sin(lab.phi)
    assert _mean_on_bgcs("q", lab, 1).real == pytest.approx(q, rel=1e-10)
    assert _mean_on_bgcs("p", lab, 1).real == pytest.approx(p, rel=1e-10)


def test_mean_of_squared_symbol():
    lab = CoherentLabel.from_polar(0.9, 1.1)
    got = _mean_on_bgcs("z_sq", lab, 0)
    assert got == pytest.approx(lab.z ** 2, rel=1e-9)


def test_mean_energy_symbol_and_orderings():
    lab, m = CoherentLabel.from_polar(2.0, 0.3), 1
    k3 = mean_k3(lab, m)
    got = _mean_on_bgcs("abs_z_sq", lab, m).real
    assert got == pytest.approx(lab.rho ** 2 + 2.0 * k3, rel=1e-8)

    state = bgcs_state(lab, SubspaceSpec(m))
    sp = SubspaceSpec(m, depth=state.depth)
    az = quantize_closed_form(SymbolSpec("z"), sp).entries
    azb = quantize_closed_form(SymbolSpec("z_bar"), sp).entries
    v = state.amplitudes
    anti = np.vdot(v, az @ azb @ v).real
    normal = np.vdot(v, azb @ az @ v).real
    assert normal == pytest.approx(lab.rho ** 2, rel=1e-8)
    assert anti - normal == pytest.approx(2.0 * k3, rel=1e-8)


# ------------------------------------------------------------ dispersions

def test_dispersions_equal_k3():
    lab = CoherentLabel.from_polar(1.7, 0.5)
    dq2, dp2, prod = dispersions(lab, 2)
    k3 = mean_k3(lab, 2)
    assert dq2 == k3 and dp2 == k3
    assert prod == k3 * k3


def test_dispersion_product_saturates_uncertainty_floor():
    dq2, dp2, prod = dispersions(CoherentLabel.from_polar(1e-6, 0.0), 0)
    assert prod == pytest.approx(0.25, abs=1e-6)


def test_dispersion_product_large_label():
    _, _, prod = dispersions(CoherentLabel.from_polar(50.0, 0.0), 0)
    assert prod / (50.0 + 0.5) ** 2 == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("rho,phi,m", [(0.7, 0.9, 0), (2.0, 0.0, 1), (1.3, 2.5, 3)])
def test_dispersions_matrix_route(rho, phi, m):
    lab = CoherentLabel.from_polar(rho, phi)
    dq2, dp2 = dispersions_matrix_route(lab, m)
    k3 = mean_k3(lab, m)
    assert dq2 == pytest.approx(k3, rel=1e-8)
    assert dp2 == pytest.approx(k3, rel=1e-8)


def _dense_dispersions(lab, m):
    # test-only reference: dense (depth+1)^2 q and p, squared by two
    # products, with both moments divided by the state's squared norm
    v = bgcs_state(lab, SubspaceSpec(m)).amplitudes
    spec = SubspaceSpec(m, depth=v.size - 1)
    norm = np.vdot(v, v).real
    out = []
    for tag in ("q", "p"):
        x = quantize_closed_form(SymbolSpec(tag), spec).entries
        first = np.vdot(v, x @ v) / norm
        out.append(float((np.vdot(v, x @ (x @ v)) / norm - first * first).real))
    return out[0], out[1]


@pytest.mark.parametrize("rho,phi,m,depth", [
    (0.7, 0.9, 0, 30), (2.0, 0.0, 1, 30), (1.3, 2.5, 3, 30),
    (1e-3, 0.4, 50, 30), (6.0, 4.0, 25, 30), (20.0, 1.0, 50, 35),
    (50.0, 0.3, 0, 97), (49.0, 2.2, 8, 92), (50.0, 5.9, 50, 76)])
def test_dispersions_matrix_route_matches_dense_reference(rho, phi, m, depth):
    lab = CoherentLabel.from_polar(rho, phi)
    assert bgcs_state(lab, SubspaceSpec(m)).depth == depth
    band = dispersions_matrix_route(lab, m)
    dense = _dense_dispersions(lab, m)
    for got, want in zip(band, dense):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------- reports

@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_energy_decomposition_interior_residuals_vanish(m):
    rep = energy_operator_decomposition_check(m, _spec(m, depth=16))
    assert isinstance(rep, DecompositionReport)
    assert rep.energy_split_max_err < 1e-12
    assert rep.symmetric_sum_max_err < 1e-12
    assert rep.max_interior_residual_q < 1e-12
    assert rep.max_interior_residual_p < 1e-12
    assert rep.residual_q_entries == ()
    assert rep.residual_p_entries == ()


def test_energy_decomposition_projector_hypothesis_rejected():
    # the single-entry corrections claimed for the squared-coordinate
    # quantization do not appear in the brute-force matrices
    rep0 = energy_operator_decomposition_check(0, _spec(0, depth=16))
    assert rep0.claimed_coefficient == pytest.approx(1.0)
    assert rep0.computed_at_claimed_entry_q == pytest.approx(0.0, abs=1e-15)
    assert not rep0.matches_claimed_projectors
    rep1 = energy_operator_decomposition_check(1, _spec(1, depth=16))
    assert rep1.claimed_coefficient == pytest.approx(math.sqrt(3.0))
    assert not rep1.matches_claimed_projectors


def test_energy_decomposition_edge_is_truncation_artifact():
    rep = energy_operator_decomposition_check(0, _spec(0, depth=16))
    # the full-matrix residual is confined to the truncation boundary
    assert rep.edge_residual_q > 1.0


def test_energy_decomposition_depth_validation():
    with pytest.raises(ValueError):
        energy_operator_decomposition_check(0, SubspaceSpec(0, depth=None))


def test_decomposition_report_serializable():
    rep = energy_operator_decomposition_check(2, _spec(2, depth=12))
    d = rep.as_dict()
    assert d["m"] == 2 and d["claimed_entry"] == [2, 0]
    assert isinstance(d["residual_q_entries"], list)


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_energy_commutators_match_closed_forms(m):
    rep = energy_commutators(m, _spec(m, depth=20))
    assert isinstance(rep, CommutatorReport)
    assert rep.max_err < 1e-12
    assert len(rep.checks) == 4


def test_energy_commutator_example_entries():
    rep = energy_commutators(0, _spec(0, depth=12))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["[abs_z_sq, z]"].example_value == pytest.approx(-3.0, rel=1e-14)
    assert by_name["[abs_z_sq, z_sq]"].example_value == pytest.approx(-16.0, rel=1e-14)
    rep1 = energy_commutators(1, _spec(1, depth=12))
    zb = {c.name: c for c in rep1.checks}["[abs_z_sq, z_bar]"]
    assert zb.example_value == pytest.approx(6.0 * math.sqrt(6.0), rel=1e-14)
    assert zb.expected_value == pytest.approx(6.0 * math.sqrt(6.0), rel=1e-14)


@pytest.mark.parametrize("depth", [8, 16, 40, 120])
@pytest.mark.parametrize("m", [0, 1, 3, 7, 50])
def test_energy_commutators_equal_the_matrix_product_reference(m, depth):
    # scaling by the diagonal forms each entry's one nonzero product, so
    # every field keeps the bits of the dense longdouble products
    spec = _spec(m, depth=depth)
    assert energy_commutators(m, spec).as_dict() == \
        energy_commutators_reference(m, spec).as_dict()


@pytest.mark.parametrize("depth", [8, 16, 120, 344])
@pytest.mark.parametrize("m", [0, 1, 3, 7, 50])
def test_energy_decomposition_equals_the_matrix_product_reference(m, depth):
    # each product of the quantized z and z-bar is one shifted product of
    # the K- band, the one nonzero term of the dense longdouble product, so
    # every field of the report keeps its bits
    spec = _spec(m, depth=depth)
    assert energy_operator_decomposition_check(m, spec).as_dict() == \
        energy_operator_decomposition_reference(m, spec).as_dict()


@pytest.mark.parametrize("report", [energy_commutators, energy_operator_decomposition_check])
@pytest.mark.parametrize("m,spec_m", [(1, 3), (3, 1), (0, 2)])
def test_energy_reports_refuse_a_sector_other_than_the_specs(report, m, spec_m):
    with pytest.raises(DomainError, match=f"m={m} differs from the spec's m={spec_m}"):
        report(m, _spec(spec_m))


def test_commutator_report_serializable():
    rep = energy_commutators(1, _spec(1, depth=12))
    d = rep.as_dict()
    assert len(d["checks"]) == 4
    assert d["max_err"] == rep.max_err


# --------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=0, max_value=12),
       depth=st.integers(min_value=8, max_value=24))
def test_adjoint_symmetry_property(m, depth):
    sp = SubspaceSpec(m, depth=depth)
    az = quantize_closed_form(SymbolSpec("z"), sp)
    azb = quantize_closed_form(SymbolSpec("z_bar"), sp)
    assert np.array_equal(az.entries.T.conj(), azb.entries)
    q = quantize_closed_form(SymbolSpec("q"), sp)
    assert np.array_equal(q.entries, q.entries.conj().T)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=0, max_value=8))
def test_decomposition_residual_property(m):
    rep = energy_operator_decomposition_check(m, SubspaceSpec(m, depth=10))
    assert rep.max_interior_residual_q < 1e-12
    assert rep.max_interior_residual_p < 1e-12
