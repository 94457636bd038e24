"""One code path, two fields: exact results, read as complex, match the float path at the same point."""
from fractions import Fraction as Q
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones import charts
from flagcones.charts import make_spec, resolve_case
from flagcones.exact import QC, hermitian_elimination, to_field
from flagcones.hvcone import determinant_residual, plucker_residual, quadric_residual, remmert
from flagcones.reps import act, derivation_matrix, outer_tensor, sl2_module, so_vector_module, wedge_module

# one concrete case per catalog identifier pattern, plus the other embedding cases
CASES = ["cp:1", "cp:2", "gr24", "grassmann:4:2", "wallach", "fullflag:A:3", "flag:A:3:1,3",
         "quadric:5", "quadric:6", "quadric:8", "conifold", "hopf:cp1"]
EMBEDDING = [("cp:1", 1), ("cp:2", 1), ("gr24", 1), ("grassmann:4:2", 1), ("quadric:6", 1), ("quadric:8", 1),
             ("conifold", 1), ("cp:1", 2)]


def _point(rng, n):
    """A Gaussian-rational point and the same point in complex128."""
    zq = [QC(Q(int(rng.integers(-6, 7)), 5), Q(int(rng.integers(-6, 7)), 7)) for _ in range(n)]
    return to_field(zq, object), np.asarray(zq, dtype=complex)


def _close(exact, approx, tol=1e-12):
    exact = np.asarray(exact, dtype=complex)
    assert exact.shape == np.shape(approx)
    assert np.max(np.abs(exact - approx), initial=0.0) <= tol * max(1.0, np.max(np.abs(exact), initial=0.0))


@pytest.mark.parametrize("case", CASES)
def test_frames_logs_and_derivations_match(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(41)
    for _ in range(3):
        zq, zc = _point(rng, chart.n_z)
        _close(chart.h_closed(zq), chart.h_closed(zc))
        for gen in range(chart.n_gen):
            _close(chart.word_element(gen, zq), chart.word_element(gen, zc))
        if chart.kind != "wedge":
            continue
        n, ks, slots = chart._wedge()
        Lq, Lc = (charts.nilpotent_log(charts._big_cell(n, slots, z), n + 1) for z in (zq, zc))
        assert Lq.dtype == object and Lc.dtype == complex
        _close(Lq, Lc)
        for k in ks:
            _close(derivation_matrix(n, k, Lq), derivation_matrix(n, k, Lc))


@pytest.mark.parametrize("case", CASES)
def test_module_action_matches(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(43)
    zq, zc = _point(rng, chart.n_z)
    for gen in range(chart.n_gen):
        rep = chart.rep(gen)
        vq = act(rep, [(chart.word_element(gen, zq), 1)], rep.hw_raw)
        vc = act(rep, [(chart.word_element(gen, zc), 1)], np.asarray(rep.hw_raw, dtype=complex))
        assert vq.dtype == object and all(type(x) is QC for x in vq)
        _close(vq, vc)
        assert chart.generic_h(gen, zq, exact=True) == chart.h_closed_exact(zq)[gen]


@pytest.mark.parametrize("case, ell", EMBEDDING)
def test_reduction_images_match(case, ell):
    spec = make_spec(case, ell=ell)
    rng = np.random.default_rng(47)
    zq, zc = _point(rng, spec.n_z)
    wq = QC(Q(6, 5), Q(-1, 3))
    u, s2 = remmert(spec, zq, wq, exact=True)
    _close(np.asarray(u, dtype=complex) * np.sqrt(float(s2)), remmert(spec, zc, complex(wq)))
    assert float(spec.K1(zq, wq)) == pytest.approx(spec.K1(zc, complex(wq)), rel=1e-12)


def _relative(exact_sq, modulus):
    """An exact squared residual against the square of its float modulus."""
    assert isinstance(exact_sq, Q) and type(modulus) is float
    assert abs(float(exact_sq) - modulus ** 2) <= 1e-12 * max(float(exact_sq), 1e-300)


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 3)])
def test_plucker_residual_matches(n, k):
    rng = np.random.default_rng(53)
    for _ in range(5):
        vq, vc = _point(rng, comb(n + 1, k))
        _relative(plucker_residual(n, k, vq), plucker_residual(n, k, vc))


@pytest.mark.parametrize("N", [3, 5, 6, 8])
def test_quadric_and_determinant_residuals_match(N):
    rng = np.random.default_rng(59)
    for _ in range(5):
        vq, vc = _point(rng, N)
        _relative(quadric_residual(N, vq), quadric_residual(N, vc))
        vq, vc = _point(rng, 4)
        _relative(determinant_residual(vq), determinant_residual(vc))


# -- the integer paths: Gram minors and squared norms over Gaussian integers ---------------

# Gaussian rationals with denominators up to 10^6, and the ints and Fractions exact arrays mix in
_rationals = st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
_exact_entries = st.one_of(st.builds(QC, _rationals, _rationals), _rationals, st.integers(-50, 50))
# every wedge catalog shape: projective spaces, Grassmannians, full and partial flags
WEDGE_CASES = ["cp:1", "cp:2", "hopf:cp1", "gr24", "grassmann:4:2", "grassmann:6:3", "wallach", "fullflag:A:3",
               "fullflag:A:4", "flag:A:3:1,3", "flag:A:4:1,3"]


def _reference_minors(F):
    """Running products of the pivots of ``hermitian_elimination`` on the QC Gram matrix ``F* F``, (..., r)."""
    F = to_field(F, object)
    G = np.moveaxis(np.conj(np.swapaxes(F, -1, -2)) @ F, (-2, -1), (0, 1))
    out, det = [], 1
    for pivot in hermitian_elimination(G)[0]:
        det = det * pivot
        out.append(det)
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("case", WEDGE_CASES)
@settings(deadline=None, derandomize=True, max_examples=12)
@given(data=st.data())
def test_exact_gram_minors_match_the_elimination_reference(case, data):
    """Bareiss minors in Gaussian integers equal the Fraction elimination, with and without unit tables, batched."""
    chart = resolve_case(case)
    lead = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    z = np.array(data.draw(st.lists(_exact_entries, min_size=int(np.prod(lead)) * chart.n_z,
                                    max_size=int(np.prod(lead)) * chart.n_z)), dtype=object)
    F, ks = chart._frame(z.reshape(lead + (chart.n_z,)))
    units = charts._frame_tables(chart.params["n"], ks)[-1]
    want = _reference_minors(F)
    for got in (charts.gram_minors(F, units), charts.gram_minors(F)):
        assert got.dtype == object and got.shape == lead + (ks[-1],)
        assert all(type(x) is Q for x in got.flat) and np.all(got == want)


def _modules():
    return [sl2_module(1), sl2_module(3), wedge_module(3, 2), so_vector_module(6),
            outer_tensor(sl2_module(1), sl2_module(2))]


@pytest.mark.parametrize("rep", _modules(), ids=lambda rep: rep.name)
@settings(deadline=None, derandomize=True, max_examples=20)
@given(data=st.data())
def test_exact_norm_sq_matches_the_fraction_sum(rep, data):
    """One ``Fraction`` per row, equal to ``sum g_i |v_i|^2`` summed in Fractions: a (d,) vector gives a scalar."""
    lead = data.draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    v = np.array(data.draw(st.lists(_exact_entries, min_size=int(np.prod(lead)) * rep.dim,
                                    max_size=int(np.prod(lead)) * rep.dim)), dtype=object).reshape(lead + (rep.dim,))
    got = rep.norm_sq(v)
    want = [sum(Q(g) * QC.of(x).abs2() for g, x in zip(rep.gram, row)) for row in v.reshape(-1, rep.dim).tolist()]
    if lead == ():
        assert type(got) is Q and got == want[0]
    else:
        assert got.dtype == object and got.shape == lead
        assert all(type(x) is Q for x in got.flat) and got.ravel().tolist() == want


@pytest.mark.parametrize("rep", _modules(), ids=lambda rep: rep.name)
def test_exact_norm_sq_of_zero_and_int_vectors(rep):
    zero = np.full(rep.dim, QC(0), dtype=object)
    assert type(rep.norm_sq(zero)) is Q and rep.norm_sq(zero) == 0
    ints = np.arange(1, rep.dim + 1).astype(object)
    assert rep.norm_sq(ints) == sum(Q(g) * k * k for g, k in zip(rep.gram, range(1, rep.dim + 1)))
    assert rep.norm_sq(np.stack([ints, zero])).tolist() == [rep.norm_sq(ints), 0]
    assert rep.norm_sq(rep.hw_raw) == rep.hw_norm_sq
