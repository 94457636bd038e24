"""Potential catalog: closed forms, the module path, exponents, constants."""
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Q
from itertools import combinations
from math import comb

import numpy as np
import pytest

from flagcones import charts
from flagcones.charts import (DomainError, canonical_exponents, catalog_ids,
                              dhomothetic_constant, generic_h,
                              log_potential_eval, make_spec, potential_eval,
                              resolve_case, ricci_flat_exponent)
from flagcones.exact import QC, abs2, squared_norms, to_field
from flagcones.hvcone import GammaGroup, kodaira_embedding, remmert, remmert_norm_sq
from flagcones.reps import derivation_matrix, outer_tensor
from flagcones.roots import ConfigurationError

CASES = ["cp:1", "cp:2", "gr24", "grassmann:4:2", "grassmann:5:3", "wallach", "fullflag:A:3",
         "flag:A:3:1,2", "flag:A:3:1,3", "quadric:5", "quadric:6", "quadric:8", "conifold"]


def _rand_z(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _rand_qc(rng, n):
    return tuple(QC(Q(int(rng.integers(-6, 7)), 5), Q(int(rng.integers(-6, 7)), 7)) for _ in range(n))


# -- closed forms ---------------------------------------------------------------

def test_grassmann_h_origin():
    assert np.allclose(resolve_case("gr24").h_closed(np.zeros(4, dtype=complex)), 1.0)


def test_grassmann_h_klein_point():
    # one unit entry in the lower block: 1 + sum|z|^2 + |det|^2 = 2
    Z = np.zeros((2, 2), dtype=complex)
    Z[0, 0] = 1.0
    assert np.allclose(resolve_case("gr24").h_closed(Z.ravel()), 2.0)


def test_grassmann_h_projective_space():
    rng = np.random.default_rng(0)
    z = _rand_z(rng, 4)
    val = resolve_case("cp:4").h_closed(z)
    assert np.allclose(val, 1.0 + np.sum(np.abs(z) ** 2))


def test_grassmann_klein_closed_form():
    """1 + sum |z_k|^2 + |z1 z4 - z2 z3|^2 in the published coordinate order."""
    rng = np.random.default_rng(1)
    z = _rand_z(rng, 4)
    # the block below 1_2 is [[z1, z3], [z2, z4]]; the chart reads it row by row
    Z = np.array([[z[0], z[2]], [z[1], z[3]]])
    expect = 1.0 + np.sum(np.abs(z) ** 2) + np.abs(z[0] * z[3] - z[1] * z[2]) ** 2
    assert np.allclose(resolve_case("gr24").h_closed(Z.ravel()), expect)


@pytest.mark.parametrize("shape, identity_top", [((2, 2), True), ((3, 2), True), ((3, 2), False),
                                                 ((4, 3), False), ((5, 4), False)])
def test_gram_minors_float_matches_exact(shape, identity_top):
    """Float minors equal the exact ones for one frame and batched over (m,) and (m, S).

    With the frame's unit tables only its coordinate rows are read: the minors
    equal the full frame's bit for bit in floats, and exactly on ``QC`` frames.
    """
    rng = np.random.default_rng(11 * shape[0] + shape[1])
    m, r = shape
    frames = []
    for _ in range(6):
        F = [list(_rand_qc(rng, r)) for _ in range(m)]
        if identity_top:        # the Grassmannian frame [1_r; Z]
            F = [[QC(int(i == j)) for j in range(r)] for i in range(r)] + F
        else:                   # first columns of a big-cell unipotent, as on full flags
            for i in range(r):
                F[i][i:] = [QC(1)] + [QC(0)] * (r - 1 - i)
        frames.append(tuple(map(tuple, F)))
    # coordinate positions: the block below 1_r, or every entry left of the unipotent's diagonal
    slots = ([(i, j) for i in range(r, r + m) for j in range(r)] if identity_top
             else [(i, j) for i in range(m) for j in range(min(i, r))])
    units = charts._unit_tables(*map(np.array, zip(*slots)), np.ones(len(slots), bool), r)
    for F in frames:
        assert tuple(charts.gram_minors(F, units)) == tuple(charts.gram_minors(F))
    exact = np.array([[float(x) for x in charts.gram_minors(F)] for F in frames])
    F = np.array([np.asarray(Fq, dtype=complex) for Fq in frames])
    # plain reference: determinants of the leading blocks of F* F
    G = np.conj(np.swapaxes(F, -1, -2)) @ F
    ref = np.stack([np.linalg.det(G[:, :k, :k]).real for k in range(1, r + 1)], axis=-1)
    assert np.allclose(ref, exact, rtol=1e-12, atol=0)
    single = np.array([charts.gram_minors(Fi) for Fi in F])
    batched = charts.gram_minors(F)
    stencil = charts.gram_minors(F.reshape((3, 2) + F.shape[1:])).reshape(6, r)
    for got in (single, batched, stencil):
        assert got.shape == exact.shape
        assert np.allclose(got, exact, rtol=1e-13, atol=0)
    F[::2, -1] = 0.0            # exact-zero coordinates
    for Fs in (F, F.reshape((3, 2) + F.shape[1:]), F[0]):
        assert np.array_equal(charts.gram_minors(Fs, units), charts.gram_minors(Fs))


def test_fullflag_h_origin_and_point():
    wallach = resolve_case("wallach")
    assert np.allclose(wallach.h_closed(np.zeros(3, dtype=complex)), [1.0, 1.0])
    z = np.zeros(3, dtype=complex)
    z[0] = 1.0   # z21 = 1
    assert np.allclose(wallach.h_closed(z), [2.0, 1.0])


def test_fullflag_wallach_closed_form():
    rng = np.random.default_rng(2)
    z = _rand_z(rng, 3)   # (z21, z31, z32)
    h = resolve_case("wallach").h_closed(z)
    h1 = 1 + abs(z[0]) ** 2 + abs(z[1]) ** 2
    h2 = 1 + abs(z[2]) ** 2 + abs(z[0] * z[2] - z[1]) ** 2
    assert np.allclose(h, [h1, h2])


def test_quadric_h_values():
    q6 = resolve_case("quadric:6")
    assert np.array_equal(q6.h_closed(np.zeros(4, dtype=complex)), [1.0])
    z = np.zeros(4, dtype=complex)
    z[0] = 1.0
    assert np.allclose(q6.h_closed(z), 25.0 / 16.0)


def test_quadric_h_exact_value():
    z = (QC(1), QC(0), QC(0), QC(0))
    assert resolve_case("quadric:6").h_closed_exact(z) == (Q(25, 16),)


def test_product_h_conifold():
    conifold = resolve_case("conifold")
    assert np.prod(conifold.h_closed(np.zeros(2, dtype=complex))) == 1.0
    assert np.prod(conifold.h_closed(np.ones(2, dtype=complex))) == 4.0


def test_conifold_trace_form():
    """The product potential is the trace form of the rank-one matrix."""
    rng = np.random.default_rng(3)
    z1, z2 = _rand_z(rng, 2)
    W = np.array([[1, z2], [z1, z1 * z2]])
    chart = resolve_case("conifold")
    hs = chart.h_closed(np.array([z1, z2]))
    assert np.allclose(np.prod(hs), np.sum(np.abs(W) ** 2))


# One concrete case per catalog identifier pattern.
CATALOG_INSTANCES = {"cp:m": ["cp:1", "cp:2"], "grassmann:n:k": ["grassmann:4:2"], "fullflag:A:n": ["fullflag:A:3"],
                     "flag:A:n:k1,...,kr": ["flag:A:3:1,3"], "quadric:N": ["quadric:5", "quadric:6", "quadric:8"],
                     "conifold": ["conifold"], "gr24": ["gr24"], "wallach": ["wallach"], "hopf:cpM": ["hopf:cp1"]}


def test_catalog_instances_cover_every_identifier():
    assert sorted(CATALOG_INSTANCES) == sorted(catalog_ids())


@pytest.mark.parametrize("case", [c for cases in CATALOG_INSTANCES.values() for c in cases])
def test_single_point_is_bit_identical_to_its_batch_row(case):
    """h_closed, h_L, K1 and K at one float point equal its row of a 50-point batch, bit for bit."""
    spec = make_spec(case, b=ricci_flat_exponent(resolve_case(case)))
    rng = np.random.default_rng(1)
    z = rng.normal(size=(50, spec.n_z)) + 1j * rng.normal(size=(50, spec.n_z))
    w = rng.normal(size=50) + 1j * rng.normal(size=50)
    h, hL, k1, k = spec.chart.h_closed(z), spec.h_L(z), spec.K1(z, w), spec.K(z, w)
    for i in range(50):
        assert np.array_equal(spec.chart.h_closed(z[i]), h[i]), i
        assert spec.h_L(z[i]) == hL[i] and spec.K1(z[i], w[i]) == k1[i] and spec.K(z[i], w[i]) == k[i], i


@pytest.mark.parametrize("case", [c for cases in CATALOG_INSTANCES.values() for c in cases])
def test_single_point_rule_covers_norm_sq_and_exact_points(case):
    """``RepSpace.norm_sq`` at one float vector is a float equal to its batch row bit for bit, and
    exact single points give ``Fraction``s equal to their rows of an exact batch."""
    chart = resolve_case(case)
    spec, rep = make_spec(case, exponents=[1] * chart.n_gen, b=2), chart.rep(0)
    rng = np.random.default_rng(2)
    v = rng.normal(size=(20, rep.dim)) + 1j * rng.normal(size=(20, rep.dim))
    ns = rep.norm_sq(v)
    for i in range(20):
        assert type(rep.norm_sq(v[i])) is float and rep.norm_sq(v[i]) == ns[i], i
    zq = to_field([_rand_qc(rng, chart.n_z) for _ in range(3)], object)
    wq, vq = to_field(_rand_qc(rng, 3), object), to_field([_rand_qc(rng, rep.dim) for _ in range(3)], object)
    h, hL, k1, k, nq = chart.h_closed(zq), spec.h_L(zq), spec.K1(zq, wq), spec.K(zq, wq), rep.norm_sq(vq)
    for i in range(3):
        assert tuple(chart.h_closed(zq[i])) == tuple(h[i]), i
        single = spec.h_L(zq[i]), spec.K1(zq[i], wq[i]), spec.K(zq[i], wq[i]), rep.norm_sq(vq[i])
        assert single == (hL[i], k1[i], k[i], nq[i]) and all(type(x) is Q for x in single), i


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
                                  "fullflag:A:3", "flag:A:3:1,2", "flag:A:3:1,3", "quadric:5", "quadric:6",
                                  "conifold"])
def test_generic_matches_closed_exact(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(13)
    for _ in range(5):
        z = _rand_qc(rng, chart.n_z)
        assert chart.h_closed_exact(z) == tuple(chart.generic_h(g, z, exact=True)
                                                for g in range(chart.n_gen))


@pytest.mark.parametrize("case", [c for c in CASES if resolve_case(c).kind == "wedge"])
def test_generic_h_shares_one_log_among_generators(case, monkeypatch):
    """One ``nilpotent_log`` per point (wallach has 2 generators, fullflag:A:3 3), exact values still ``h_closed``."""
    chart, rng, logs = resolve_case(case), np.random.default_rng(17), []
    nilpotent_log = charts.nilpotent_log
    monkeypatch.setattr(charts, "nilpotent_log", lambda M, dim: logs.append(M) or nilpotent_log(M, dim))
    for _ in range(8):
        z = _rand_qc(rng, chart.n_z)
        assert generic_h(chart, z, exact=True) == chart.h_closed_exact(z)
    assert len(logs) == 8
    generic_h(chart, rng.normal(size=(5, chart.n_z)) + 0j)
    assert len(logs) == 9


def _h_summed_from_zero(chart, z):
    """Reference: ``h_closed`` with each squared norm summed from zero, its constant leading 1 included."""
    F, ks = chart._frame(z)
    if ks is None:
        return sum(abs2(F[..., i, :]) for i in range(F.shape[-2]))
    return charts.gram_minors(F)[..., [k - 1 for k in ks]]


@pytest.mark.parametrize("case", CASES)
def test_h_closed_from_the_leading_one_is_bit_identical(case):
    """Quadric and product norms start from their constant 1 and round as the sum over every row, in both fields."""
    chart = resolve_case(case)
    rng = np.random.default_rng(37)
    z = rng.normal(size=(200, chart.n_z)) + 1j * rng.normal(size=(200, chart.n_z))
    assert np.array_equal(chart.h_closed(z), _h_summed_from_zero(chart, z))
    for _ in range(3):
        zq = to_field(_rand_qc(rng, chart.n_z), object)
        exact = tuple(chart.h_closed(zq))
        assert exact == tuple(_h_summed_from_zero(chart, zq)) and all(type(h) is Q for h in exact)


@pytest.mark.parametrize("case", CASES)
def test_jet_potentials_are_h_closed_bit_for_bit(case):
    """The jets' potentials equal ``h_closed``, so the cone jet's ``K`` is ``field`` and the base jet's
    ``log h_delta`` is ``base_log_anticanonical``.

    From 0.01 to 30 in scale, with exact-zero coordinates and the origin, so
    that ``ricci-flat`` and ``kahler-einstein`` read the same numbers with no
    second frame.
    """
    spec = make_spec(case)
    rng = np.random.default_rng(47)
    n = spec.n_z
    z = 10.0 ** rng.uniform(-2, 1.5, size=(3000, 1)) * (rng.normal(size=(3000, n)) + 1j * rng.normal(size=(3000, n)))
    z[::2, 0] = 0.0
    z[1::3, -1] = 0.0
    z[-1] = 0.0
    P = np.empty((len(z), 2 * n + 2))
    P[:, 0:2 * n:2], P[:, 1:2 * n:2], P[:, -2:] = z.real, z.imag, (0.7, -0.4)
    assert np.array_equal(spec._log_jets(z, [1.0] * spec.chart.n_gen, potentials=True)[2], spec.chart.h_closed(z))
    assert np.array_equal(spec.cone_jet(with_K=True)(P)[2], spec.field()(P))
    assert np.array_equal(spec.base_jet()(P[:, :-2])[1], spec.base_log_anticanonical()(P[:, :-2]))


def _same_bits(a, b) -> bool:
    """Equal values with equal signs of zero (``np.array_equal`` alone takes -0.0 for 0.0)."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and all(np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag)))


def _summed_jets(spec, z, weights):
    """Out of place, generator by generator: ``sum(w * jet)`` of each ``log_gram_jets`` output over the frames."""
    jets = [charts.log_gram_jets(F, jac) for F, jac in spec.chart.frames(z)]
    return [sum(wt * jet[i] for wt, jet in zip(weights, jets)) for i in (0, 1)]


@pytest.mark.parametrize("case", ["gr24", "wallach", "quadric:6", "quadric:8", "quadric:10", "conifold"])
def test_in_place_jets_equal_the_out_of_place_formulas(case):
    """``cone_jet`` and ``base_jet`` sum and scale the frame jets in place, bit for bit as the formulas out of place.

    ``phi = (sum e_alpha grad_alpha, 1/w)`` and ``H = b^2 phi (x) conj(phi) + b sum e_alpha hess_alpha``
    on the chart block; the base Hessian weighs by the delta pairings.  Real
    and imaginary points carry signed zeros, which ``sum``'s leading ``0 +``
    makes positive.  Filling one call's outputs with NaN leaves another
    call's outputs, and the next call's, as they were: no output shares
    memory with the frames or a cached table.
    """
    spec = make_spec(case)
    spec = replace(spec, b=ricci_flat_exponent(spec.chart))
    b, e = float(spec.b), [float(x) for x in spec.exponents]
    pair = [float(p) for p in spec.chart.delta_pairings]
    rng = np.random.default_rng(53)
    n = spec.n_z
    z = rng.normal(size=(400, n)) + 1j * rng.normal(size=(400, n))
    z[::2, 0] = 0.0
    z[2::5] = z[2::5].real                     # real and imaginary rows: their jets hold -0.0
    z[3::7] = 1j * z[3::7].imag
    z[-1] = 0.0
    P = np.empty((len(z), 2 * n + 2))
    P[:, 0:2 * n:2], P[:, 1:2 * n:2], P[:, -2:] = z.real, z.imag, (0.7, -0.4)
    w = charts.decode_points(P, n)[1]
    grad, hess = _summed_jets(spec, z, e)
    phi = np.concatenate([grad, 1.0 / w[..., None]], axis=-1)
    H = b * b * phi[..., :, None] * np.conj(phi[..., None, :])
    H[..., :-1, :-1] += b * hess
    expected = {"cone": (phi, H), "cone_K": (phi, H, spec.field()(P)),
                "base": (_summed_jets(spec, z, pair)[1], spec.base_log_anticanonical()(P[:, :-2]))}
    calls = {"cone": lambda: spec.cone_jet()(P), "cone_K": lambda: spec.cone_jet(with_K=True)(P),
             "base": lambda: spec.base_jet()(P[:, :-2])}
    for name, call in calls.items():
        first, second = call(), call()
        for out in first:
            out[...] = np.nan
        assert all(_same_bits(a, x) for a, x in zip(second, expected[name], strict=True)), name
        assert all(_same_bits(a, x) for a, x in zip(call(), expected[name], strict=True)), name


def _batch_first_quadric_log_jets(s, half_z):
    """Reference: the quadric closed forms broadcast over trailing entry axes, batch first."""
    inv_h = 1 / np.sum(abs2(s), axis=-1)[..., None]
    grad = (np.conj(half_z) + np.conj(s[..., -1:]) * half_z) * inv_h
    delta = to_field(np.eye(half_z.shape[-1], dtype=int), half_z.dtype) / 2
    hess = (half_z[..., :, None] * np.conj(half_z[..., None, :]) + delta) * inv_h[..., None]
    hess -= grad[..., :, None] * np.conj(grad[..., None, :])
    return grad, hess


@pytest.mark.parametrize("lead", [(400,), (3, 5)])
@pytest.mark.parametrize("case", ["quadric:5", "quadric:6", "quadric:8", "quadric:10"])
def test_quadric_entry_jets_equal_the_batch_first_formulas(case, lead):
    """The quadric jets, formed on entry arrays with the batch axes last, equal the batch-first closed forms
    bit for bit, signs of zero included.

    Sections of 5, 6, 8 and 10 entries sit on both sides of numpy's pairwise
    summation, which starts at 8 contiguous terms: ``h`` is still summed
    over the contiguous entry axis of the section.
    """
    chart = resolve_case(case)
    rng = np.random.default_rng(59)
    shape = lead + (chart.n_z,)
    z = 10.0 ** rng.uniform(-2, 1.5, size=lead + (1,)) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    flat = z.reshape(-1, chart.n_z)
    flat[::2, 0] = 0.0
    flat[2::5] = flat[2::5].real                 # real and imaginary rows: their jets hold -0.0
    flat[3::7] = 1j * flat[3::7].imag
    flat[-1] = 0.0
    (F, jac), = chart.frames(z)
    got, want = charts.log_gram_jets(F, jac), _batch_first_quadric_log_jets(F[..., 0], jac)
    assert [a.shape for a in got] == [lead + (chart.n_z,), lead + (chart.n_z,) * 2]
    assert all(_same_bits(a, x) for a, x in zip(got, want, strict=True))


def _frames_log_jets(spec, z, weights, potentials=False):
    """Reference ``_log_jets`` of a quadric or product chart: its ``frames`` through ``log_gram_jets``, weighted
    in place, and the potentials as ``squared_norms`` of the frames."""
    frames = spec.chart.frames(z)
    jets = [charts.log_gram_jets(F, jac) for F, jac in frames]
    hs = (np.concatenate([squared_norms(F) for F, _ in frames], axis=-1),) if potentials else ()
    return tuple(charts._weighted_sum([jet[i] for jet in jets], weights) for i in range(2)) + hs


def _jet_calls(spec, P):
    """Every jet reader of the spec at points P (..., real_dim), ``_log_jets`` at their ``z`` included."""
    z = charts.decode_points(P, spec.n_z)[0]
    e = [float(x) for x in spec.exponents]
    return {"cone": lambda: spec.cone_jet()(P), "cone_K": lambda: spec.cone_jet(with_K=True)(P),
            "entries": lambda: spec.cone_jet(entries=True)(P),
            "entries_K": lambda: spec.cone_jet(with_K=True, entries=True)(P),
            "base": lambda: spec.base_jet()(P[..., :-2]), "log_jets": lambda: spec._log_jets(z, e, potentials=True)}


def _assert_frames_route(monkeypatch, spec, P, got):
    """``got`` (name: outputs of ``_jet_calls``) equals the calls with the frames route patched in, sign bits included."""
    with monkeypatch.context() as m:
        m.setattr(charts.PotentialSpec, "_log_jets", _frames_log_jets)
        want = {name: call() for name, call in _jet_calls(spec, P).items()}
    for name, outs in want.items():
        assert all(_same_bits(np.asarray(a), np.asarray(x)) for a, x in zip(got[name], outs, strict=True)), name


def _edge_points(rng, n, count):
    """``count`` points of scale 1e-3 to 1e2 with exact-zero, real, imaginary and negative parts, and the origin."""
    z = 10.0 ** rng.uniform(-3, 2, size=(count, 1)) * (rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n)))
    z[::2, 0] = 0.0
    z[2::5] = z[2::5].real
    z[3::7] = 1j * z[3::7].imag
    z[4::6] = -z[4::6].real - 0.0j
    z[-1] = 0.0
    P = np.empty((count, 2 * n + 2))
    P[:, 0:2 * n:2], P[:, 1:2 * n:2], P[:, -2:] = z.real, z.imag, (0.7, -0.4)
    return P


@pytest.mark.parametrize("lead", [(), (5,), (2, 3), (8, 15)])
@pytest.mark.parametrize("exponents", [(1, 1), (2, Q(3, 2))])
@pytest.mark.parametrize("b", [Q(2, 3), Q(1)])
def test_product_jets_equal_the_frames_route_bit_for_bit(monkeypatch, lead, exponents, b):
    """The conifold's closed-form product jets equal its ``frames`` through ``log_gram_jets``, bit for bit,
    signs of zero included: ``cone_jet`` with and without ``K`` and ``entries``, ``base_jet`` and
    ``_log_jets``, on batches and on a single point (numpy scalars).  Filling one call's outputs with NaN
    leaves the next call's as they were."""
    spec = make_spec("conifold", exponents=exponents, b=b)
    base, n = _edge_points(np.random.default_rng(71), spec.n_z, 120), int(np.prod(lead))
    batches = [base[k] for k in (0, 1, 2, 3, 4, 9, 10, 21, -1)] if lead == () else [base[:n], base[-n:]]
    for P in batches:
        P = P.reshape(lead + (-1,))
        for outs in [call() for call in _jet_calls(spec, P).values()]:
            for x in outs:
                np.asarray(x)[...] = np.nan
        got = {name: call() for name, call in _jet_calls(spec, P).items()}
        _assert_frames_route(monkeypatch, spec, P, got)
        assert np.shape(got["cone_K"][2]) == lead and np.shape(got["entries"][1]) == (3, 3) + lead


@pytest.mark.parametrize("case", ["quadric:5", "quadric:6", "quadric:8", "quadric:10"])
def test_quadric_jets_share_one_abs2_pass_bit_for_bit(monkeypatch, case):
    """``_log_jets`` takes ``|s|^2`` once for ``h`` (pairwise over the entry axis) and for ``K`` (in order
    from 1): jets and potentials equal the frames route and ``spec.field()`` bit for bit."""
    spec = make_spec(case, b=ricci_flat_exponent(resolve_case(case)))
    P = _edge_points(np.random.default_rng(73), spec.n_z, 60).reshape(3, 20, -1)
    got = {name: call() for name, call in _jet_calls(spec, P).items()}
    _assert_frames_route(monkeypatch, spec, P, got)
    assert _same_bits(got["cone_K"][2], spec.field()(P)) and _same_bits(got["entries_K"][2], spec.field()(P))


@pytest.mark.parametrize("case", ["gr24", "wallach", "quadric:6", "quadric:10", "conifold"])
def test_cone_jet_rows_are_contiguous_copies_of_its_entry_arrays(case):
    """``cone_jet(entries=True)`` hands out its entry arrays, batch axis last; the default returns the same
    numbers as C-contiguous rows, bit for bit, so a reader may ``.view(float)`` them."""
    spec = make_spec(case)
    rng = np.random.default_rng(67)
    P = rng.normal(size=(30, spec.real_dim))
    P[:, -2:] += 1.5
    rows, entries = spec.cone_jet(with_K=True)(P), spec.cone_jet(with_K=True, entries=True)(P)
    n = spec.n_z + 1
    assert [x.shape for x in rows] == [(30, n), (30, n, n), (30,)]
    assert [x.shape for x in entries] == [(n, 30), (n, n, 30), (30,)]
    for row, entry in zip(rows[:2], entries[:2]):
        assert row.flags.c_contiguous and row.view(float).shape[-1] == 2 * n
        assert _same_bits(row, np.moveaxis(entry, tuple(range(entry.ndim - 1)), tuple(range(1, entry.ndim))))
    assert _same_bits(rows[2], entries[2])


@pytest.mark.parametrize("case", ["quadric:5", "quadric:6", "quadric:8", "quadric:10"])
def test_exact_quadric_potentials_read_the_gaussian_integer_section(case):
    """``h_closed`` sums the exact quadric section as the Gaussian integers it is built in: equal
    ``Fraction``s to the squared norms of the ``QC`` section that ``_frame`` and ``frames`` hand out,
    for single points and batches."""
    chart = resolve_case(case)
    rng = np.random.default_rng(61)
    for lead in ((), (3,), (2, 2)):
        points = [_rand_qc(rng, chart.n_z) for _ in range(int(np.prod(lead)))]
        z = to_field(np.array(points, dtype=object).reshape(lead + (chart.n_z,)), object)
        F, (Ff, _) = chart._frame(z)[0], chart.frames(z)[0]
        assert all(type(x) is QC for x in F.flat) and all(type(x) is QC for x in Ff.flat)
        want = squared_norms(F)
        got = chart.h_closed(z)
        assert got.shape == lead + (1,) and all(type(x) is Q for x in got.flat) and np.all(got == want)
        if lead == ():
            assert chart.h_closed_exact(points[0]) == tuple(want)


# -- holomorphic frames ------------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_frame_gram_determinants_match_closed_forms(case):
    chart = resolve_case(case)
    rng = np.random.default_rng(19)
    z = rng.normal(size=(6, chart.n_z)) + 1j * rng.normal(size=(6, chart.n_z))
    frames = chart.frames(z)
    assert len(frames) == chart.n_gen
    dets = np.stack([np.linalg.det(np.conj(np.swapaxes(F, -1, -2)) @ F).real for F, _ in frames], axis=-1)
    assert np.allclose(dets, chart.h_closed(z), rtol=1e-13, atol=0)


def _jacobians(F, jac):
    """``d_a F`` (n_z, ..., N, r) as ``jac`` states it: matrix units read off ``UnitTables.grad``, or the quadric's ``(0, e_a/sqrt2, z_a/2)``."""
    if not isinstance(jac, charts.UnitTables):
        dF = np.zeros(jac.shape[-1:] + F.shape, dtype=complex)
        for a in range(jac.shape[-1]):
            dF[a, ..., 1 + a, 0] = 1 / np.sqrt(2)
            dF[a, ..., -1, 0] = jac[..., a]
        return dF
    r, nu = F.shape[-1], len(jac.rows)
    dF = np.zeros(jac.grad.shape + F.shape, dtype=complex)
    for a, g in enumerate(jac.grad.tolist()):
        if g < r * nu:                  # r * nu indexes the padding zero: d_a F = 0
            dF[a, ..., jac.rows[g % nu], g // nu] = 1
    return dF


@pytest.mark.parametrize("case", CASES)
def test_frame_jacobian_factors_match_differences(case):
    """The Jacobians that ``jac`` states equal central differences; frames are at most quadratic, so these are exact up to rounding."""
    chart = resolve_case(case)
    rng = np.random.default_rng(23)
    z = rng.normal(size=chart.n_z) + 1j * rng.normal(size=chart.n_z)
    t = 1e-3
    for alpha, (F, jac) in enumerate(chart.frames(z)):
        dF = _jacobians(F, jac)
        for a in range(chart.n_z):
            dz = t * np.eye(chart.n_z)[a]
            fd = (chart.frames(z + dz)[alpha][0] - chart.frames(z - dz)[alpha][0]) / (2 * t)
            assert np.allclose(dF[a], fd, rtol=0, atol=1e-10), (alpha, a)


def _dense_log_gram_jets(chart, z, alpha):
    """Reference: ``tr(G^-1 F* dF_a)`` and ``tr(G^-1 dF_b* P dF_a)`` with ``dF_a = (F(z + e_a) - F(z - e_a)) / 2``.

    Every frame is at most quadratic in ``z``, so the central difference of step 1 is its derivative.
    """
    F = chart.frames(z)[alpha][0]
    dF = np.stack([chart.frames(z + e)[alpha][0] - chart.frames(z - e)[alpha][0] for e in np.eye(chart.n_z)]) / 2
    Fh = np.conj(np.swapaxes(F, -1, -2))
    Ginv = np.linalg.inv(Fh @ F)
    P = np.eye(F.shape[-2]) - F @ Ginv @ Fh
    grad = np.einsum("...ij,a...ji->...a", Ginv @ Fh, dF)
    return grad, np.einsum("...ij,b...kj,a...ki->...ab", Ginv, np.conj(dF), P @ dF)


def _assert_jets_match_the_dense_formula(case, unit_frames):
    """``log_gram_jets`` equals the dense traces, exact-zero coordinates and the origin included."""
    chart = resolve_case(case)
    rng = np.random.default_rng(41)
    for m in (1, 500):
        z = rng.normal(size=(m, chart.n_z)) + 1j * rng.normal(size=(m, chart.n_z))
        z[::2, 0] = 0.0
        z[1::3, -1] = 0.0
        if m > 1:
            z[-1] = 0.0                 # the origin
        for alpha, (F, jac) in enumerate(chart.frames(z)):
            assert isinstance(jac, charts.UnitTables) == unit_frames
            jets = charts.log_gram_jets(F, jac)
            for a, b in zip(jets, _dense_log_gram_jets(chart, z, alpha)):
                # entries left by cancellation get an absolute floor at 1e-15 of the largest one
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15 * np.max(np.abs(b)))


@pytest.mark.parametrize("case", [c for c in CASES if not c.startswith("quadric")])
def test_unit_frames_gather_the_dense_jets(case):
    """Wedge and product frames carry their unit tables; the gathers equal the dense formula."""
    _assert_jets_match_the_dense_formula(case, unit_frames=True)


@pytest.mark.parametrize("case", ["quadric:5", "quadric:6", "quadric:8"])
def test_quadric_closed_form_jets_match_the_dense_formula(case):
    """The quadric closed-form jets equal the dense formula."""
    _assert_jets_match_the_dense_formula(case, unit_frames=False)


@pytest.mark.parametrize("case", ["cp:2", "gr24", "wallach", "flag:A:3:1,3", "quadric:6", "conifold"])
def test_exact_frames_give_exact_jets(case):
    """At Gaussian-rational points the jets are ``QC`` (and the int zero that pads the gathers), equal to the
    float jets, and the determinant handed back with them is ``h_closed`` exactly."""
    chart = resolve_case(case)
    rng = np.random.default_rng(43)
    z = to_field([_rand_qc(rng, chart.n_z) for _ in range(3)], object)
    floats = chart.frames(np.asarray(z, dtype=complex))
    for alpha, ((F, jac), (Ff, jacf)) in enumerate(zip(chart.frames(z), floats)):
        assert F.dtype == object
        jets = charts.log_gram_jets(F, jac)
        for exact, floats in zip(jets, charts.log_gram_jets(Ff, jacf)[:2]):
            assert exact.dtype == object and exact.shape == floats.shape
            assert all(type(x) is QC or (type(x) is int and x == 0) for x in exact.flat)
            np.testing.assert_allclose(np.asarray(exact, dtype=complex), floats, rtol=1e-12, atol=0)
        if chart.kind != "quadric":         # unit-Jacobian frames hand back the determinant they eliminated
            h = jets[2]
            assert np.all(h == chart.h_closed(z)[..., alpha]) and all(type(x) is Q for x in np.ravel(h))


@pytest.mark.parametrize("case", ["gr24", "grassmann:4:2"])
def test_log_gram_jets_working_set_is_small(case):
    """A 4096-row call peaks at no more than 2.5x the bytes it returns: no stacked copy of the whole table."""
    chart = resolve_case(case)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4096, chart.n_z)) + 1j * rng.normal(size=(4096, chart.n_z))
    (F, jac), = chart.frames(z)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        jets = charts.log_gram_jets(F, jac)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(jet.nbytes for jet in jets), peak / sum(jet.nbytes for jet in jets)


@pytest.mark.parametrize("case", ["gr24", "wallach", "flag:A:3:1,3", "conifold"])
def test_frame_tables_are_built_once_per_chart(case):
    """Two calls on one chart hand out the same read-only unit tables."""
    chart = resolve_case(case)
    z = np.full((2, chart.n_z), 0.3 + 0.1j)
    for (_, a), (_, b) in zip(chart.frames(z), chart.frames(2 * z)):
        assert a is b
        assert not any(t.flags.writeable for t in (a.rows, a.grad, a.hess, a.cols))


WEDGE_CASES = ["gr24", "grassmann:4:2", "grassmann:6:3", "wallach", "fullflag:A:3", "fullflag:A:4",
               "flag:A:3:1,2", "flag:A:3:1,3", "cp:2"]


def _gathered_rows(F, units=None):
    """Reference ``_frame_rows``: the coordinate rows gathered by index from the transposed frame."""
    E = np.moveaxis(np.asarray(F), (-2, -1), (0, 1))
    return (E, ()) if units is None else (E[units.rows], units.ones)


def _batch_first_frames(chart, z):
    """Reference frames: the first ``kr`` columns of n(z) built batch first, a copied identity with ``z`` scattered in."""
    n, ks, slots = chart._wedge()
    eyes, index = charts._cell_template(n, slots, ks[-1])
    M = np.empty(z.shape[:-1] + ((n + 1) * ks[-1],), dtype=z.dtype)
    M[...] = eyes[z.dtype]
    M[..., index] = z
    F = M.reshape(z.shape[:-1] + (n + 1, ks[-1]))
    return [(F[..., :k], units) for k, units in zip(ks, charts._frame_tables(n, ks))]


def _same_entries(a, b) -> bool:
    """``_same_bits`` for float arrays; equal values of equal types for exact ones."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != object or b.dtype != object:
        return _same_bits(a, b)
    return a.shape == b.shape and all(x == y and type(x) is type(y) for x, y in zip(a.flat, b.flat))


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("case", WEDGE_CASES)
def test_wedge_frame_rows_are_the_gathered_rows_bit_for_bit(monkeypatch, case, lead):
    """Wedge frames are built as entry arrays and read their coordinate rows ``k1..n`` as a slice: the rows,
    ``log_gram_jets`` and ``gram_minors`` equal those of the batch-first big cell with its rows gathered,
    bit for bit in floats and exactly on ``QC`` points, for one point and for batches."""
    chart = resolve_case(case)
    rng = np.random.default_rng(71)
    shape, ks = lead + (chart.n_z,), chart.params["ks"]
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z.reshape(-1, chart.n_z)[::2, 0] = 0.0              # exact-zero coordinates
    zq = np.array([_rand_qc(rng, chart.n_z) for _ in range(int(np.prod(lead)))], dtype=object)
    for point in (z, to_field(zq.reshape(shape), object)):
        frames, reference = chart.frames(point), _batch_first_frames(chart, point)
        batch = _batch_first_frames(chart, point.reshape(-1, chart.n_z))[-1]      # h_closed lifts a float point to a batch
        with monkeypatch.context() as m:
            m.setattr(charts, "_frame_rows", _gathered_rows)
            want = [charts.log_gram_jets(F, units) for F, units in reference]
            want_minors, want_h = charts.gram_minors(*reference[-1]), charts.gram_minors(*batch)
        for (F, units), (Fr, units_r), jets in zip(frames, reference, want):
            E, ones = charts._frame_rows(F, units)
            assert units is units_r and ones == units.ones and _same_entries(E, _gathered_rows(Fr, units)[0])
            assert _same_entries(F, Fr)
            assert all(_same_entries(a, b) for a, b in zip(charts.log_gram_jets(F, units), jets, strict=True))
        assert _same_entries(charts.gram_minors(*frames[-1]), want_minors)
        assert _same_entries(chart.h_closed(point), want_h[..., [k - 1 for k in ks]].reshape(lead + (len(ks),)))


def test_quadric_word_element_converts_basis_once(monkeypatch):
    """The nonzero entries of the Y_j are converted once per N, however many charts resolve it."""
    converted = []

    def counting(Y):
        converted.append(Y)
        return both_fields(Y)

    both_fields = charts._both_fields
    monkeypatch.setattr(charts, "_both_fields", counting)
    charts._radical_entries.cache_clear()
    first, second = resolve_case("quadric:8"), resolve_case("quadric:8")
    assert first is not second
    z = np.arange(1, 7) * (0.1 + 0.2j)
    X1 = first.word_element(0, z)
    X2 = second.word_element(0, 2 * z)
    assert len(converted) == 1 and converted[0].shape == (4 * first.n_z,)
    assert np.allclose(X2, 2 * X1)


def test_embedding_module_built_once(monkeypatch):
    built = []

    def counting(r1, r2):
        built.append((r1, r2))
        return outer_tensor(r1, r2)

    monkeypatch.setattr(charts, "outer_tensor", counting)
    spec = make_spec("conifold")
    z, w = np.array([0.3 - 0.1j, -0.2 + 0.4j]), 1.1 - 0.2j
    zq, wq = (QC(Q(1, 3), Q(-1, 7)), QC(Q(2, 5), Q(1, 2))), QC(Q(6, 5), Q(-1, 3))
    for _ in range(3):
        spec.chart.embedding_rep(spec.exponents)
    remmert(spec, z, w)
    kodaira_embedding(spec, GammaGroup(0.5), z, w)
    assert remmert_norm_sq(spec, zq, wq, exact=True) == spec.K1(zq, wq)
    assert len(built) == 1


def test_fresh_conifold_charts_share_one_module():
    """The Deligne-product module is built once per process, like the catalog modules."""
    a, b = make_spec("conifold"), make_spec("conifold")
    assert a.chart is not b.chart
    assert a.chart.embedding_rep(a.exponents)[0] is b.chart.embedding_rep(b.exponents)[0]


@pytest.mark.parametrize("case", ["gr24", "fullflag:A:3", "quadric:5", "quadric:6"])
def test_flag_data_built_once_per_flag(monkeypatch, case):
    """``resolve_case`` rebuilds no root system or flag once a flag is known, and still
    returns a fresh ``Chart`` with the same data."""
    first = resolve_case(case)
    built = []
    monkeypatch.setattr(charts, "flag", lambda *a: built.append(a))
    again = resolve_case(case)
    assert built == [] and again is not first
    assert (again.m, again.fano, again.delta_pairings) == (first.m, first.fano, first.delta_pairings)


@pytest.mark.parametrize("case, ell", [("gr24", 1), ("quadric:6", 1), ("conifold", 1), ("cp:1", 2)])
def test_embedding_rep_returns_cached_pair(case, ell):
    spec = make_spec(case, ell=ell)
    rep, word = spec.chart.embedding_rep(spec.exponents)
    again = spec.chart.embedding_rep(spec.exponents)
    assert again[0] is rep and again[1] is word
    if case in ("conifold", "cp:1"):      # constant word matrices, built with the module
        z = np.full(spec.n_z, 0.2 + 0.1j)
        for (M, _), (M2, _) in zip(word(z), word(2 * z)):
            assert M2 is M and not M.flags.writeable


def test_embedding_rep_keyed_by_exponents():
    chart = resolve_case("cp:1")
    rep1, _ = chart.embedding_rep(canonical_exponents(chart, 1))
    rep2, _ = chart.embedding_rep(canonical_exponents(chart, 2))
    assert (rep1.dim, rep2.dim) == (2, 3)
    assert chart.embedding_rep(canonical_exponents(chart, 1))[0] is rep1


@pytest.mark.parametrize("case, ell", [("wallach", 1), ("fullflag:A:3", 1), ("conifold", 2)])
def test_unsupported_embedding_raises_on_every_call(case, ell):
    spec = make_spec(case, ell=ell)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            spec.chart.embedding_rep(spec.exponents)
    assert not any(isinstance(key, tuple) and key[0] == "embedding" for key in spec.chart._cache)


@pytest.mark.parametrize("case", ["quadric:6", "gr24"])
def test_chart_caches_stay_out_of_equality_and_repr(case):
    """The word element and the embedding pair are cached outside the compared and printed fields."""
    specs = make_spec(case), make_spec(case)
    fresh = repr(specs[0])
    for spec in specs:
        spec.chart.word_element(0, np.zeros((1, spec.n_z)))
        spec.chart.embedding_rep(spec.exponents)
        assert spec.chart._cache and specs[0] == specs[1] and repr(spec) == fresh


def _decode_reference(points, n_z):
    points = np.asarray(points, dtype=float)
    z = points[..., 0:2 * n_z:2] + 1j * points[..., 1:2 * n_z:2]
    return z, points[..., 2 * n_z] + 1j * points[..., 2 * n_z + 1]


def test_decode_points_matches_arithmetic_form():
    rng = np.random.default_rng(5)
    n_z = 3
    wide = rng.normal(size=(7, 2 * (2 * n_z + 2)))
    inputs = [rng.normal(size=2 * n_z + 2), rng.normal(size=(4, 2 * n_z + 2)),
              wide[:, ::2], wide[::3, :2 * n_z + 2], rng.normal(size=(3, 5, 2 * n_z + 2))]
    for points in inputs:
        before = points.copy()
        z, w = charts.decode_points(points, n_z)
        z_ref, w_ref = _decode_reference(points, n_z)
        assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)
        assert np.array_equal(charts.decode_base_points(points[..., :2 * n_z], n_z), z_ref)
        assert np.array_equal(charts.decode_base_points(points, n_z), z_ref)
        assert np.array_equal(points, before)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # the overflow the second point is chosen for
@pytest.mark.parametrize("case, z, w, value", [("cp:1", [0.0], 1e-200, "0.0"), ("gr24", [1e200, 0, 0, 0], 1.0, "inf")])
def test_potential_eval_refuses_a_value_that_is_not_positive_and_finite(case, z, w, value):
    """K underflows to 0 or overflows to inf in floats: a domain error, so no caller takes a log of it."""
    with pytest.raises(DomainError, match=f"the potential is {value} "):
        potential_eval(make_spec(case), z, w)


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
    for case in ("fullflag:A:0", "fullflag:A:-2", "conifold:3", "conifold:"):
        with pytest.raises(ConfigurationError):
            resolve_case(case)


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
        # Fl(1,2;4) has anticanonical pairings (2, 3), so Fano index 1; every other case has exponents 1
        expect = (Q(2), Q(3)) if case == "flag:A:3:1,2" else (Q(1),) * chart.n_gen
        assert canonical_exponents(chart, 1) == expect, case
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
    f12, f13 = resolve_case("flag:A:3:1,2"), resolve_case("flag:A:3:1,3")
    assert (f12.n_z, f12.n_gen, f12.m, f12.fano, f12.delta_pairings) == (5, 2, 5, 1, (2, 3))
    assert (f13.n_z, f13.n_gen, f13.m, f13.fano, f13.delta_pairings) == (5, 2, 5, 3, (3, 3))


@pytest.mark.parametrize("block, named", [("flag:A:2:1,2", "wallach"), ("flag:A:3:2", "gr24"),
                                          ("flag:A:3:1,2,3", "fullflag:A:3"), ("flag:A:4:1", "cp:4")])
def test_block_flag_ids_match_named_charts(block, named):
    """The block chart of a named case has its slots, metadata and exact potentials."""
    a, b = resolve_case(block), resolve_case(named)
    assert a._wedge()[2] == b._wedge()[2]
    assert (a.n_z, a.n_gen, a.m, a.fano, a.delta_pairings) == (b.n_z, b.n_gen, b.m, b.fano, b.delta_pairings)
    rng = np.random.default_rng(31)
    for _ in range(5):
        z = _rand_qc(rng, a.n_z)
        assert a.h_closed_exact(z) == b.h_closed_exact(z)


def test_block_slots_of_a_partial_flag():
    """Blocks (1, 2, 1) of flag:A:3:1,3: one coordinate left of each row's block, row by row."""
    assert charts._block_slots(3, (1, 3)) == ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))


@pytest.mark.parametrize("case", ["flag:A:3:0", "flag:A:3:4", "flag:A:3:2,2", "flag:A:3:", "flag:B:3:1"])
def test_malformed_flag_ids_raise(case):
    with pytest.raises(ConfigurationError):
        resolve_case(case)


@pytest.mark.parametrize("case", ["gr24", "quadric:6", "conifold"])
def test_h_closed_rejects_a_wrong_coordinate_count(case):
    chart = resolve_case(case)
    with pytest.raises(DomainError):
        chart.h_closed(np.zeros(chart.n_z + 1, dtype=complex))
    with pytest.raises(DomainError):
        chart.h_closed_exact((QC(0),) * (chart.n_z - 1))


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


# -- derivations on wedge powers ---------------------------------------------------

def _derivation_loop_float(n, k, L):
    """The float loop the cached derivation table replaced (inversion-count signs)."""
    basis = list(combinations(range(1, n + 2), k))
    index = {b: i for i, b in enumerate(basis)}
    out = np.zeros((comb(n + 1, k), comb(n + 1, k)), dtype=complex)
    for col, subset in enumerate(basis):
        for pos, i in enumerate(subset):
            for j in range(1, n + 2):
                coef = L[j - 1, i - 1]
                if coef == 0 or (j in subset and j != i):
                    continue
                new = list(subset)
                new[pos] = j
                inversions = sum(1 for a in range(k) for b in range(a + 1, k) if new[a] > new[b])
                out[index[tuple(sorted(new))], col] += (-1 if inversions % 2 else 1) * coef
    return out


def _derivation_loop_exact(n, k, X):
    """The exact loop the cached derivation table replaced (cycle-parity signs)."""
    basis = list(combinations(range(1, n + 2), k))
    index = {b: i for i, b in enumerate(basis)}
    out = [[QC(0)] * len(basis) for _ in basis]
    for col, subset in enumerate(basis):
        for pos, i in enumerate(subset):
            for j in range(1, n + 2):
                coef = X[j - 1][i - 1]
                if not coef or (j in subset and j != i):
                    continue
                new = list(subset)
                new[pos] = j
                arranged = sorted(new)
                perm = [new.index(x) for x in arranged]
                seen, parity = [False] * k, 0
                for s in range(k):
                    if seen[s]:
                        continue
                    cycle, t = 0, s
                    while not seen[t]:
                        seen[t], t, cycle = True, perm[t], cycle + 1
                    parity += cycle - 1
                row = index[tuple(arranged)]
                out[row][col] = out[row][col] + coef * (-1 if parity % 2 else 1)
    return tuple(tuple(r) for r in out)


@pytest.mark.parametrize("case", ["gr24", "grassmann:4:2", "cp:2", "fullflag:A:3"])
def test_derivation_table_matches_reference_loops(case):
    """One cached table serves both paths: bit-identical floats, equal Gaussian rationals."""
    chart = resolve_case(case)
    n, ks, slots = chart._wedge()
    rng = np.random.default_rng(11)
    for gen in range(chart.n_gen):
        k = ks[gen]
        for _ in range(3):
            L = charts.nilpotent_log(charts._big_cell(n, slots, _rand_z(rng, chart.n_z)), n + 1)
            assert np.array_equal(derivation_matrix(n, k, L), _derivation_loop_float(n, k, L))
            Lq = charts.nilpotent_log(charts._big_cell(n, slots, to_field(_rand_qc(rng, chart.n_z), object)), n + 1)
            assert derivation_matrix(n, k, Lq).tolist() == [list(row) for row in _derivation_loop_exact(n, k, Lq)]


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: charts.nilpotent_log(np.array([[1, 1], [1, 1]]), 2), DomainError, "not unipotent"),
    (lambda: make_spec("gr24", exponents=[1, 2]), ConfigurationError, "needs 1 exponents"),
    (lambda: make_spec("gr24", b=0), DomainError, "outer exponent"),
    (lambda: canonical_exponents(resolve_case("cp:2"), 0), DomainError, "bundle level"),
    (lambda: log_potential_eval(make_spec("cp:2"), [0.1, 0.2], 0), DomainError, "fiber coordinate"),
    (lambda: ricci_flat_exponent(resolve_case("gr24"), 0), DomainError, "bundle level"),
    (lambda: ricci_flat_exponent(resolve_case("gr24"), -2), DomainError, "bundle level"),
    (lambda: dhomothetic_constant(resolve_case("gr24"), 0), DomainError, "bundle level"),
    (lambda: dhomothetic_constant(resolve_case("gr24"), -2), DomainError, "bundle level"),
], ids=["nilpotent_log", "exponent_count", "outer_exponent", "bundle_level", "log_potential_fiber",
        "ricci_flat_level_0", "ricci_flat_level_-2", "dhomothetic_level_0", "dhomothetic_level_-2"])
def test_input_checks_raise_their_documented_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
