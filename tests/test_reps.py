"""Module layer: generator relations, invariant products, words, Casimirs."""
from fractions import Fraction as Q

import numpy as np
import pytest

from flagcones import reps
from flagcones.exact import QC, QI, ZERO, to_field
from flagcones.reps import (ExactModeError, RepSpace, act, casimir_matrix,
                            outer_tensor, sl2_module, so_radical_basis,
                            so_vector_module, wedge_module)
from flagcones.roots import ConfigurationError, build_root_system, casimir_eigenvalue

CATALOG = [
    sl2_module(1), sl2_module(2), sl2_module(3),
    wedge_module(3, 2), wedge_module(4, 2), wedge_module(2, 1),
    so_vector_module(5), so_vector_module(6), so_vector_module(8),
]


def trivial_module() -> RepSpace:
    """The one-dimensional trivial module."""
    return RepSpace(name="trivial", dim=1, simple={}, gram=(Q(1),), hw_raw=to_field([1], object),
                    hw_norm_sq=Q(1), algebra_rep=(), algebra_gram=np.full((0, 0), ZERO, dtype=object))


def compact_directions(rep, i: int):
    """E - F, i(E + F), iH for the simple index ``i`` (exact matrices)."""
    E, F, H = rep.simple[i]
    return (E - F, (E + F) * QI, H * QI)


def _mat_equal(a, b):
    return not np.any(a - b)


def _is_zero_vec(v):
    return not np.any(v)


# -- structural invariants -----------------------------------------------------

@pytest.mark.parametrize("rep", CATALOG, ids=lambda r: r.name)
def test_bracket_relations(rep):
    rs = rep.root_system
    for i, (E, F, H) in rep.simple.items():
        assert _mat_equal(E @ F - F @ E, H)
        for j, (Ej, Fj, Hj) in rep.simple.items():
            aij = rs.coroot_pairing(rs.simple_roots[j - 1], i)
            assert _mat_equal(H @ Ej - Ej @ H, Ej * QC(aij))


@pytest.mark.parametrize("rep", CATALOG, ids=lambda r: r.name)
def test_highest_weight_vector(rep):
    for i, (E, _, H) in rep.simple.items():
        assert _is_zero_vec(E @ rep.hw_raw)
        expect = rep.highest_weight.pairing(i)
        hv = H @ rep.hw_raw
        assert all((x - QC(expect) * y).is_zero() for x, y in zip(hv, rep.hw_raw))
    # unit norm after the stored normalisation
    assert rep.norm_sq(rep.hw_raw) == rep.hw_norm_sq
    assert abs(np.linalg.norm(rep.hw_unit() * np.sqrt(rep.gram_np())) - 1.0) < 1e-14


@pytest.mark.parametrize("rep", CATALOG, ids=lambda r: r.name)
def test_compact_generators_skew(rep):
    """E - F, i(E + F), iH are skew-adjoint for the invariant product."""
    G = np.diag(to_field(rep.gram, object))
    for i in rep.simple:
        for M in compact_directions(rep, i):
            A = G @ M
            Ad = np.conj(A.T)
            assert all(all((x + y).is_zero() for x, y in zip(ra, rb)) for ra, rb in zip(A, Ad))


def test_sl2_ell1_matrices():
    rep = sl2_module(1)
    E = np.asarray(rep.simple[1][0], dtype=complex)
    assert np.allclose(E, [[0, 1], [0, 0]])


def test_sl2_h_eigenvalues():
    rep = sl2_module(2)
    H = np.asarray(rep.simple[1][2], dtype=complex)
    assert np.allclose(np.diag(H), [2, 0, -2])


def test_sl2_trivial():
    rep = sl2_module(0)
    assert rep.dim == 1


def test_wedge_32():
    rep = wedge_module(3, 2)
    assert rep.dim == 6
    assert rep.basis_labels[np.flatnonzero(rep.hw_raw)[0]] == (1, 2)
    # E_1 moves e2^e3 to e1^e3
    idx = {b: i for i, b in enumerate(rep.basis_labels)}
    v = [QC(0)] * 6
    v[idx[(2, 3)]] = QC(1)
    out = rep.simple[1][0] @ to_field(v, object)
    expect = [QC(0)] * 6
    expect[idx[(1, 3)]] = QC(1)
    assert all((x - y).is_zero() for x, y in zip(out, expect))


def test_wedge_defining():
    rep = wedge_module(4, 1)
    assert rep.dim == 5


def test_so_vector_isotropy_and_norm():
    rep = so_vector_module(5)
    q = sum((x * x for x in rep.hw_raw), QC(0))
    assert q.is_zero()
    assert rep.hw_norm_sq == 2


def test_so_low_dims():
    assert so_vector_module(3).dim == 3
    with pytest.raises(ConfigurationError):
        so_vector_module(4)


def test_outer_tensor_product():
    a = wedge_module(1, 1)
    prod = outer_tensor(a, a)
    assert prod.dim == 4
    v = np.asarray(prod.hw_raw, dtype=complex)
    assert np.allclose(v, [1, 0, 0, 0])
    t = outer_tensor(trivial_module(), a)
    assert t.dim == 2
    # norm multiplicativity
    rng = np.random.default_rng(0)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert abs(prod.norm_sq(np.kron(u, w)) - a.norm_sq(u) * a.norm_sq(w)) < 1e-13


def _object_killing_gram(scale, defining):
    """Reference: the traces as an object-dtype einsum of ``QC`` products and sums."""
    return np.einsum("aij,bji->ab", defining, defining) * scale


def test_killing_gram_in_gaussian_integers_equals_the_object_einsum(monkeypatch):
    """Every module builder's Killing Gram, from int64 traces of the cleared basis, equals the object
    einsum ``QC`` for ``QC``: sl(2) modules, wedge powers of sl(2..6), so(5..10), outer tensors, and
    random Gaussian-rational bases."""
    killing_gram, grams = reps._killing_gram, {}

    def checked(scale, defining):
        got, want = killing_gram(scale, defining), _object_killing_gram(scale, defining)
        assert got.shape == want.shape and all(type(x) is QC for x in got.flat) and np.all(got == want)
        return got

    monkeypatch.setattr(reps, "_killing_gram", checked)
    modules = ([reps.sl2_module.__wrapped__(ell) for ell in range(4)]
               + [reps.wedge_module.__wrapped__(n, k) for n in range(1, 6) for k in range(1, n + 1)]
               + [reps.so_vector_module.__wrapped__(N) for N in range(5, 11)])
    for rep in modules:
        grams[rep.name] = rep.algebra_gram
    a, b = reps.sl2_module.__wrapped__(1), reps.sl2_module.__wrapped__(2)
    for r1, r2 in ((a, a), (a, b), (b, reps.wedge_module.__wrapped__(2, 1))):
        m1, m2 = len(r1.algebra_rep), len(r2.algebra_rep)
        want = np.full((m1 + m2,) * 2, ZERO, dtype=object)
        want[:m1, :m1], want[m1:, m1:] = r1.algebra_gram, r2.algebra_gram
        assert np.all(outer_tensor.__wrapped__(r1, r2).algebra_gram == want)
    assert grams["sl2:V(0w)"].shape == (3, 3) and grams["so10:vector"].shape == (45, 45)
    rng = np.random.default_rng(83)                 # the catalog bases are real integers: clear other ones too
    for m, N, scale in ((1, 1, Q(1)), (3, 2, Q(4)), (5, 4, Q(-3, 7)), (8, 6, Q(12, 5))):
        basis = np.array([QC(Q(int(a), int(d)), Q(int(b), int(e))) for a, b, d, e in
                          zip(*rng.integers(-9, 10, size=(2, m * N * N)), *rng.integers(1, 13, size=(2, m * N * N)))],
                         dtype=object).reshape(m, N, N)
        checked(scale, basis)


# -- group words ---------------------------------------------------------------

def test_act_empty_word():
    rep = sl2_module(3)
    v = tuple(QC(k) for k in range(4))
    assert tuple(act(rep, [], v)) == v


def test_act_sl2_lowering():
    rep = sl2_module(1)
    F = rep.simple[1][1]
    out = act(rep, [(F, QC(Q(2, 3)))], rep.hw_raw)
    assert tuple(out) == (QC(1), QC(Q(2, 3)))


def test_act_wedge_minors():
    """Lower-unipotent action on the wedge module = minors of the frame."""
    rep = wedge_module(3, 2)
    from flagcones.charts import resolve_case

    chart = resolve_case("grassmann:3:2")
    z = (QC(Q(1, 2)), QC(0, Q(1, 3)), QC(Q(-2, 7)), QC(1))
    X = chart.word_element(0, to_field(z, object))
    v = act(rep, [(X, 1)], rep.hw_raw)
    # oracle: cofactor expansion of the frame [[1,0],[z1,z3],[z2,z4]] padded
    Z = [[z[0], z[1]], [z[2], z[3]]]
    frame = [[QC(1), QC(0)], [QC(0), QC(1)], Z[0], Z[1]]
    from itertools import combinations

    for pos, (i, j) in enumerate(combinations(range(4), 2)):
        det = frame[i][0] * frame[j][1] - frame[i][1] * frame[j][0]
        assert (v[pos] - det).is_zero()


def test_exp_nilpotent_rejects_semisimple():
    """A step whose series does not terminate raises in either field."""
    rep = sl2_module(1)
    H = rep.simple[1][2]
    with pytest.raises(ExactModeError):
        act(rep, [(H, QC(1))], rep.hw_raw)
    with pytest.raises(ExactModeError):
        act(rep, [(H, 1.0)], rep.hw_unit())


def test_act_batch_takes_a_nilpotent_step_per_row():
    """A block whose rows take different nilpotent steps (E or F) equals per-row ``act``.

    One row with a non-nilpotent (H, t) step makes the whole block raise.
    """
    rep = sl2_module(3)
    E, F, H = (np.asarray(M, dtype=complex) for M in rep.simple[1])
    rng = np.random.default_rng(12)
    t = rng.normal(size=6) + 1j * rng.normal(size=6)
    s = rng.normal(size=6) + 1j * rng.normal(size=6)
    second = np.stack([E, F, E, E, F, F])
    word = [(F, t), (second, s)]
    batch = act(rep, word, rep.hw_unit())
    assert batch.shape == (6, rep.dim)
    for i in range(6):
        row = act(rep, [(F, t[i]), (second[i], s[i])], rep.hw_unit())
        assert np.max(np.abs(batch[i] - row)) <= 1e-14 * np.max(np.abs(row)), i
    assert rep.norm_sq(batch).tolist() == [rep.norm_sq(row) for row in batch]
    with pytest.raises(ExactModeError):
        act(rep, [(F, t), (np.stack([E, F, H, E, F, F]), s)], rep.hw_unit())


# -- Casimir operators ----------------------------------------------------------

def test_casimir_sl2_fundamental():
    C = casimir_matrix(sl2_module(1), exact=True)
    assert all(all((x - (QC(Q(3, 8)) if i == j else QC(0))).is_zero()
                   for j, x in enumerate(row)) for i, row in enumerate(C))


def test_casimir_sl2_adjoint_identity():
    C = casimir_matrix(sl2_module(2), exact=True)
    assert all(all((x - (QC(1) if i == j else QC(0))).is_zero()
                   for j, x in enumerate(row)) for i, row in enumerate(C))


@pytest.mark.parametrize("rep", CATALOG, ids=lambda r: r.name)
def test_casimir_schur_matches_weight_formula(rep):
    C = casimir_matrix(rep)
    c = float(casimir_eigenvalue(rep.highest_weight))
    assert np.max(np.abs(C - c * np.eye(rep.dim))) < 1e-12


@pytest.mark.parametrize("rep", [sl2_module(2), wedge_module(3, 2), so_vector_module(5)],
                         ids=lambda r: r.name)
def test_casimir_commutes_with_generators(rep):
    C = casimir_matrix(rep)
    for i in rep.simple:
        for M in rep.simple[i]:
            M = np.asarray(M, dtype=complex)
            assert np.max(np.abs(C @ M - M @ C)) < 1e-12


def test_casimir_exact_schur_small():
    """Exact Schur check for small modules: C = c(mu) Id over the rationals."""
    for rep in [sl2_module(1), sl2_module(2), sl2_module(3), wedge_module(3, 2), so_vector_module(5)]:
        C = casimir_matrix(rep, exact=True)
        c = casimir_eigenvalue(rep.highest_weight)
        for i, row in enumerate(C):
            for j, x in enumerate(row):
                assert x == (QC(c) if i == j else QC(0)), rep.name


def test_casimir_tensor_on_highest_vector(dense_casimir_tensor):
    """v+ (x) v+ spans the top component: Delta(C) acts there by c(2 mu)."""
    for rep in [sl2_module(1), sl2_module(2), wedge_module(3, 2)]:
        D = dense_casimir_tensor(rep)
        v = rep.hw_unit()
        vv = np.kron(v, v)
        c = float(casimir_eigenvalue(2 * rep.highest_weight))
        assert np.max(np.abs(D @ vv - c * vv)) < 1e-12


def test_so_radical_basis_weights():
    """The isotropic-chart lowering operators annihilate e1 + i e2."""
    for N in (5, 6, 8):
        ubar = [QC(1), QC(0, 1)] + [QC(0)] * (N - 2)
        for Y in so_radical_basis(N):
            assert _is_zero_vec(Y @ to_field(ubar, object))


@pytest.mark.parametrize("call, fragment", [
    (lambda: sl2_module(-1), "nonnegative"),
    (lambda: wedge_module(3, 0), "wedge index"),
    (lambda: so_vector_module(2), "N = 3 or N >= 5"),
    (lambda: so_radical_basis(4), "N >= 5"),
], ids=["sl2_degree", "wedge_index", "so_vector_N", "so_radical_N"])
def test_input_checks_raise_configuration_errors(call, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        call()
