"""Potential catalog: closed forms, the module path, exponents, constants."""
from fractions import Fraction as Q

import numpy as np
import pytest

from flagcones import charts
from flagcones.charts import (DomainError, canonical_exponents,
                              dhomothetic_constant, fullflag_h, generic_h,
                              grassmann_h, log_potential_eval, make_spec,
                              potential_eval, product_h, quadric_h,
                              resolve_case, ricci_flat_exponent)
from flagcones.exact import QC, to_complex_matrix
from flagcones.roots import ConfigurationError

CASES = ["cp:1", "cp:2", "gr24", "grassmann:4:2", "grassmann:5:3", "wallach", "fullflag:A:3",
         "quadric:5", "quadric:6", "quadric:8", "conifold"]


def _rand_z(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _rand_qc(rng, n):
    return tuple(QC(Q(int(rng.integers(-6, 7)), 5), Q(int(rng.integers(-6, 7)), 7)) for _ in range(n))


# -- closed forms ---------------------------------------------------------------

def test_grassmann_h_origin():
    assert np.allclose(grassmann_h(3, 2, np.zeros((2, 2), dtype=complex)), 1.0)


def test_grassmann_h_klein_point():
    # one unit entry in the lower block: 1 + sum|z|^2 + |det|^2 = 2
    Z = np.zeros((2, 2), dtype=complex)
    Z[0, 0] = 1.0
    assert np.allclose(grassmann_h(3, 2, Z), 2.0)


def test_grassmann_h_projective_space():
    rng = np.random.default_rng(0)
    z = _rand_z(rng, 4)
    val = grassmann_h(4, 1, z.reshape(4, 1))
    assert np.allclose(val, 1.0 + np.sum(np.abs(z) ** 2))


def test_grassmann_klein_closed_form():
    """1 + sum |z_k|^2 + |z1 z4 - z2 z3|^2 in the published coordinate order."""
    rng = np.random.default_rng(1)
    z = _rand_z(rng, 4)
    # chart layout: row-major block [[z1, z3], [z2, z4]]
    Z = np.array([[z[0], z[2]], [z[1], z[3]]])
    expect = 1.0 + np.sum(np.abs(z) ** 2) + np.abs(z[0] * z[3] - z[1] * z[2]) ** 2
    assert np.allclose(grassmann_h(3, 2, Z), expect)


@pytest.mark.parametrize("shape, unit_top", [((2, 2), True), ((3, 2), True), ((3, 2), False),
                                             ((4, 3), False), ((5, 4), False)])
def test_gram_minors_float_matches_exact(shape, unit_top):
    """Float minors equal the exact ones for one frame and batched over (m,) and (m, S)."""
    rng = np.random.default_rng(11 * shape[0] + shape[1])
    m, r = shape
    frames = []
    for _ in range(6):
        F = [list(_rand_qc(rng, r)) for _ in range(m)]
        if not unit_top:        # first columns of a big-cell unipotent, as in fullflag_h
            for i in range(r):
                F[i][i:] = [QC(1)] + [QC(0)] * (r - 1 - i)
        frames.append(F)
    exact = np.array([[float(x) for x in charts.gram_minors(F, unit_top=unit_top)] for F in frames])
    F = np.array([to_complex_matrix(Fq) for Fq in frames])
    # plain reference: determinants of the leading blocks of F* F
    G = np.conj(np.swapaxes(F, -1, -2)) @ F + (np.eye(r) if unit_top else 0)
    ref = np.stack([np.linalg.det(G[:, :k, :k]).real for k in range(1, r + 1)], axis=-1)
    assert np.allclose(ref, exact, rtol=1e-12, atol=0)
    single = np.array([charts.gram_minors(Fi, unit_top=unit_top) for Fi in F])
    batched = charts.gram_minors(F, unit_top=unit_top)
    stencil = charts.gram_minors(F.reshape((3, 2) + shape), unit_top=unit_top).reshape(6, r)
    for got in (single, batched, stencil):
        assert got.shape == exact.shape
        assert np.allclose(got, exact, rtol=1e-13, atol=0)


def test_fullflag_h_origin_and_point():
    assert np.allclose(fullflag_h(2, np.zeros(3, dtype=complex)), [1.0, 1.0])
    z = np.zeros(3, dtype=complex)
    z[0] = 1.0   # z21 = 1
    assert np.allclose(fullflag_h(2, z), [2.0, 1.0])


def test_fullflag_wallach_closed_form():
    rng = np.random.default_rng(2)
    z = _rand_z(rng, 3)   # (z21, z31, z32)
    h = fullflag_h(2, z)
    h1 = 1 + abs(z[0]) ** 2 + abs(z[1]) ** 2
    h2 = 1 + abs(z[2]) ** 2 + abs(z[0] * z[2] - z[1]) ** 2
    assert np.allclose(h, [h1, h2])


def test_quadric_h_values():
    assert quadric_h(6, np.zeros(4, dtype=complex)) == 1.0
    z = np.zeros(4, dtype=complex)
    z[0] = 1.0
    assert np.allclose(quadric_h(6, z), 25.0 / 16.0)


def test_quadric_h_exact_value():
    z = (QC(1), QC(0), QC(0), QC(0))
    assert quadric_h(6, z) == Q(25, 16)


def test_product_h_conifold():
    h = lambda z: 1.0 + abs(z) ** 2
    assert product_h(h, h, 0.0, 0.0) == 1.0
    assert product_h(h, h, 1.0, 1.0) == 4.0


def test_conifold_trace_form():
    """The product potential is the trace form of the rank-one matrix."""
    rng = np.random.default_rng(3)
    z1, z2 = _rand_z(rng, 2)
    W = np.array([[1, z2], [z1, z1 * z2]])
    chart = resolve_case("conifold")
    hs = chart.h_closed(np.array([z1, z2]))
    assert np.allclose(np.prod(hs), np.sum(np.abs(W) ** 2))


# -- generic path ----------------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_generic_matches_closed_float(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = _rand_z(rng, chart.n_z)
        hc = np.ravel(np.asarray(chart.h_closed(z)))
        hg = np.ravel(generic_h(chart, z))
        assert np.allclose(hc, hg, rtol=1e-12), case


@pytest.mark.parametrize("case", ["cp:2", "gr24", "grassmann:4:2", "grassmann:5:3", "wallach",
                                  "fullflag:A:3", "quadric:5", "quadric:6", "conifold"])
def test_generic_matches_closed_exact(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(13)
    for _ in range(5):
        z = _rand_qc(rng, chart.n_z)
        assert chart.h_closed_exact(z) == tuple(chart.generic_h(g, z, exact=True)
                                                for g in range(chart.n_gen))


def test_quadric_word_element_converts_basis_once(monkeypatch):
    chart = resolve_case("quadric:8")
    converted = []

    def counting(Y):
        converted.append(Y)
        return to_complex_matrix(Y)

    monkeypatch.setattr(charts, "to_complex_matrix", counting)
    z = np.arange(1, 7) * (0.1 + 0.2j)
    X1 = chart.word_element(0, z)
    X2 = chart.word_element(0, 2 * z)
    assert len(converted) == chart.n_z
    assert np.allclose(X2, 2 * X1)


def test_generic_at_origin():
    for case in CASES:
        chart = resolve_case(case)
        z = np.zeros(chart.n_z, dtype=complex)
        assert np.allclose(generic_h(chart, z), 1.0)


# -- potentials -------------------------------------------------------------------

def test_potential_eval_hopf():
    spec = make_spec("hopf:cp1")
    assert potential_eval(spec, [0.0], 1.0) == 1.0
    assert np.isclose(potential_eval(spec, [1.0], 1.0), 2.0)


def test_potential_phase_invariance():
    spec = make_spec("gr24")
    rng = np.random.default_rng(5)
    z = _rand_z(rng, 4)
    vals = [potential_eval(spec, z, 1.3 * np.exp(1j * phi)) for phi in np.linspace(0, 2 * np.pi, 7)]
    assert np.allclose(vals, vals[0])


def test_canonical_root_potential_cp1():
    """Level-1 canonical root over the projective line: K = (1+|z|^2)|w|^2."""
    spec = make_spec("cp:1", ell=1)
    assert spec.exponents == (Q(1),)
    z = 0.37 - 0.21j
    assert np.isclose(potential_eval(spec, [z], 0.8), (1 + abs(z) ** 2) * 0.64)


def test_log_potential_eval():
    spec = make_spec("conifold", b=Q(2, 3))
    z = [0.3 + 0.1j, -0.2j]
    w = 1.7 - 0.4j
    assert np.isclose(log_potential_eval(spec, z, w), np.log(potential_eval(spec, z, w)))


def test_positive_exponent_required():
    with pytest.raises(DomainError):
        make_spec("conifold", exponents=[1, 0])
    with pytest.raises(DomainError):
        make_spec("cp:1", exponents=[-1])


def test_unknown_case():
    with pytest.raises(ConfigurationError):
        resolve_case("projective:oops")
    with pytest.raises(ConfigurationError):
        resolve_case("quadric:4")


# -- rescaling constants -----------------------------------------------------------

def test_dhomothetic_constants():
    assert dhomothetic_constant(resolve_case("cp:3"), 1) == 1
    assert dhomothetic_constant(resolve_case("conifold"), 1) == Q(2, 3)
    assert dhomothetic_constant(resolve_case("cp:1"), 2) == 2


def test_ricci_flat_exponents():
    assert ricci_flat_exponent(resolve_case("cp:4"), 1) == 1
    assert ricci_flat_exponent(resolve_case("conifold"), 1) == Q(2, 3)
    assert ricci_flat_exponent(resolve_case("cp:1"), 2) == Q(1, 2)
    assert ricci_flat_exponent(resolve_case("gr24"), 1) == Q(4, 5)
    assert ricci_flat_exponent(resolve_case("quadric:6"), 1) == Q(4, 5)


def test_canonical_exponents_catalog():
    for case in CASES:
        chart = resolve_case(case)
        assert all(e == 1 for e in canonical_exponents(chart, 1))
    assert canonical_exponents(resolve_case("cp:1"), 3) == (Q(3),)


def test_chart_metadata():
    gr = resolve_case("gr24")
    assert (gr.m, gr.fano, gr.delta_pairings) == (4, 4, (4,))
    q6 = resolve_case("quadric:6")
    assert (q6.m, q6.fano) == (4, 4)
    co = resolve_case("conifold")
    assert (co.m, co.fano, co.delta_pairings) == (2, 2, (2, 2))
    wal = resolve_case("wallach")
    assert (wal.m, wal.fano, wal.delta_pairings) == (3, 2, (2, 2))


def test_catalog_h_at_least_one_on_samples():
    """Each closed form is 1 plus nonnegative terms on the sample domain."""
    rng = np.random.default_rng(17)
    for case in CASES:
        chart = resolve_case(case)
        for _ in range(20):
            r = 1.5 * np.sqrt(rng.uniform(size=chart.n_z))
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi, size=chart.n_z))
            hs = np.ravel(np.asarray(chart.h_closed(z)))
            assert np.all(hs >= 1.0 - 1e-12), case
