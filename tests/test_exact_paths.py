"""One code path, two fields: exact results, read as complex, match the float path at the same point."""
from contextlib import contextmanager
from fractions import Fraction as Q
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones import charts, reps
from flagcones.charts import make_spec, resolve_case
from flagcones.exact import QC, hermitian_elimination, to_field
from flagcones.hvcone import determinant_residual, plucker_residual, quadric_residual, remmert, remmert_norm_sq
from flagcones.reps import ExactModeError, act, derivation_matrix, outer_tensor, sl2_module, so_vector_module, wedge_module

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


# -- the module route against the closed route, exactly ---------------------------------------

# (case, ell) of every embedding the catalog builds: one generator at exponent 1, and cp:1 at higher levels
MODULE_CASES = WEDGE_CASES + ["quadric:5", "quadric:6", "quadric:8", "conifold"]
EMBEDDING_CASES = ([(case, 1) for case in MODULE_CASES if resolve_case(case).n_gen == 1 or case == "conifold"]
                   + [("cp:1", 2), ("cp:1", 3)])
LEADS = [(), (3,), (2, 2)]


def _draw_points(data, lead, n, entries=_exact_entries):
    """An exact array (*lead, n) drawn entry by entry, and the same points one by one."""
    size = int(np.prod(lead)) * n
    z = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)), dtype=object).reshape(lead + (n,))
    return z, [z[i] for i in np.ndindex(lead)]


def _fibers(data, lead):
    w = np.array(data.draw(st.lists(_exact_entries.filter(bool), min_size=int(np.prod(lead)),
                                    max_size=int(np.prod(lead)))), dtype=object).reshape(lead)
    return w, [w[i] for i in np.ndindex(lead)]


@pytest.mark.parametrize("case", MODULE_CASES)
@settings(deadline=None, derandomize=True, max_examples=6)
@given(data=st.data())
def test_module_route_equals_the_closed_potentials(case, data):
    """``generic_h`` in Gaussian integers equals ``h_closed_exact`` at single points; a batch gives its rows."""
    chart = resolve_case(case)
    lead = data.draw(st.sampled_from(LEADS))
    z, points = _draw_points(data, lead, chart.n_z)
    got = charts.generic_h(chart, z, exact=True)
    if not lead:
        assert all(type(h) is Q for h in got) and got == chart.h_closed_exact(z)
        return
    assert all(h.shape == lead and all(type(x) is Q for x in h.flat) for h in got)
    rows = np.stack(got, axis=-1)
    assert np.all(rows == chart.h_closed(z))
    for i, point in zip(np.ndindex(lead), points):
        assert tuple(rows[i]) == charts.generic_h(chart, point, exact=True) == chart.h_closed_exact(point)


@pytest.mark.parametrize("case, ell", EMBEDDING_CASES, ids=[f"{c}-ell{e}" for c, e in EMBEDDING_CASES])
@settings(deadline=None, derandomize=True, max_examples=6)
@given(data=st.data())
def test_reduction_norm_equals_k1(case, ell, data):
    """``remmert_norm_sq`` in Gaussian integers equals ``K1``; a batch gives its rows, and ``remmert`` hands out ``QC``s."""
    spec = make_spec(case, ell=ell)
    lead = data.draw(st.sampled_from(LEADS))
    z, points = _draw_points(data, lead, spec.n_z)
    w, fibers = _fibers(data, lead)
    got = remmert_norm_sq(spec, z, w, exact=True)
    u, _ = remmert(spec, z, w, exact=True)
    assert u.dtype == object and all(type(x) is QC for x in u.flat)
    if not lead:
        assert type(got) is Q and got == spec.K1(z, w)
        return
    assert got.shape == lead and np.all(got == spec.K1(z, w))
    for i, point, fiber in zip(np.ndindex(lead), points, fibers):
        assert got[i] == remmert_norm_sq(spec, point, fiber, exact=True) == spec.K1(point, fiber)
        assert np.all(u[i] == remmert(spec, point, fiber, exact=True)[0])


@settings(deadline=None, derandomize=True, max_examples=10)
@given(data=st.data())
def test_act_takes_a_per_row_exact_parameter(data):
    """The conifold word steps carry one Gaussian-rational parameter per row: a batch equals its rows, in ``QC``."""
    spec = make_spec("conifold")
    rep, word = spec.chart.embedding_rep(spec.exponents)
    z, points = _draw_points(data, (3,), spec.n_z)
    batch = act(rep, word(to_field(z, object)), rep.hw_raw)
    assert batch.shape == (3, rep.dim) and all(type(x) is QC for x in batch.flat)
    for row, point in zip(batch, points):
        assert np.all(row == act(rep, word(to_field(point, object)), rep.hw_raw))


# -- negative controls: the integer route reads the module data ---------------------------------

_nonzero_entries = _exact_entries.filter(bool)


@contextmanager
def _patched(module, name, value):
    """``module.name`` replaced by ``value``, with the caches of the tables the exact route reads emptied on entry and exit."""
    caches, saved = (reps._derivation_table, charts._radical_entries), getattr(module, name)
    for cache in caches:
        cache.cache_clear()
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)
        for cache in caches:
            cache.cache_clear()


def _fails(check) -> bool:
    """A corrupted identity fails: it is False, or the corrupted step no longer terminates."""
    try:
        return not check()
    except ExactModeError:
        return True


def _swapped(table):
    return lambda n, k: table(n, k)[::-1]


def _one_term_moved(table):
    """The first +1 term that reads a strictly lower entry ``X[j][i]``, j > i, moved to the -1 terms."""
    def moved(n, k):
        plus, minus = table(n, k)
        at = int(np.flatnonzero(plus[1] // (n + 1) > plus[1] % (n + 1))[0])
        return (tuple(np.delete(a, at) for a in plus),
                tuple(np.concatenate([a[at:at + 1], b]) for a, b in zip(plus, minus)))
    return moved


@pytest.mark.parametrize("case, corrupt", [("fullflag:A:3", _swapped), ("gr24", _one_term_moved),
                                           ("fullflag:A:3", _one_term_moved)],
                         ids=["fullflag:A:3-swapped", "gr24-one-term", "fullflag:A:3-one-term"])
@settings(deadline=None, derandomize=True, max_examples=8)
@given(data=st.data())
def test_a_corrupted_derivation_table_breaks_the_route(case, corrupt, data):
    chart = resolve_case(case)
    z, _ = _draw_points(data, (), chart.n_z, _nonzero_entries)
    [chart.rep(gen) for gen in range(chart.n_gen)]      # the cached modules are built from the true table
    with _patched(reps, "_derivation_table", corrupt(reps._derivation_table)):
        assert _fails(lambda: charts.generic_h(chart, z, exact=True) == chart.h_closed_exact(z))


def test_swapping_the_derivation_signs_is_a_symmetry_of_the_grassmannian():
    """Swapping the +1 and -1 terms maps ``X`` to ``-X``, so ``n(z)`` to its inverse ``1 - Z``: ``det(1 + Z* Z)`` is
    unchanged on gr24, which is why its control moves one term instead."""
    chart, rng = resolve_case("gr24"), np.random.default_rng(3)
    z, _ = _rand_points(rng, chart.n_z), chart.rep(0)
    with _patched(reps, "_derivation_table", _swapped(reps._derivation_table)):
        assert charts.generic_h(chart, z, exact=True) == chart.h_closed_exact(z)


def _rand_points(rng, n):
    return [QC(Q(int(rng.integers(1, 9)), 7), Q(int(rng.integers(-9, 9)), 5)) for _ in range(n)]


@settings(deadline=None, derandomize=True, max_examples=8)
@given(data=st.data())
def test_a_doubled_quadric_radical_entry_breaks_the_route(data):
    """quadric:6 with one entry of the ``Y_j`` doubled: the step is no longer nilpotent, and both identities fail."""
    spec = make_spec("quadric:6")
    z, _ = _draw_points(data, (), spec.n_z, _nonzero_entries)
    w = data.draw(_nonzero_entries)
    radical = charts._radical_entries

    def doubled(N):
        owner, i, j, entries = radical(N)
        e = entries[np.dtype(object)].copy()
        e[0] = e[0] * 2
        return owner, i, j, charts._both_fields(e)

    with _patched(charts, "_radical_entries", doubled):
        chart = resolve_case("quadric:6")
        assert _fails(lambda: charts.generic_h(chart, z, exact=True) == chart.h_closed_exact(z))
        assert _fails(lambda: remmert_norm_sq(make_spec("quadric:6"), z, w, exact=True) == spec.K1(z, w))


@settings(deadline=None, derandomize=True, max_examples=8)
@given(data=st.data())
def test_a_changed_sl2_lowering_entry_breaks_the_route(data):
    """The conifold embedding with one entry of a factor's ``F`` changed from 1 to 2: ``remmert_norm_sq != K1``."""
    z, _ = _draw_points(data, (), 2, _nonzero_entries)
    w = data.draw(_nonzero_entries)
    want = make_spec("conifold").K1(z, w)
    module = sl2_module

    def changed(ell):
        rep = module(ell)
        E, F, H = rep.simple[1]
        F = F.copy()
        F[1, 0] = F[1, 0] * 2
        return reps.RepSpace(rep.name, rep.dim, {1: (E, F, H)}, rep.gram, rep.hw_raw, rep.hw_norm_sq,
                             rep.algebra_rep, rep.algebra_gram, rep.highest_weight, rep.root_system, rep.basis_labels)

    with _patched(charts, "sl2_module", changed):
        spec = make_spec("conifold")            # a new chart: its embedding is built from the changed modules
        assert _fails(lambda: remmert_norm_sq(spec, z, w, exact=True) == want)
