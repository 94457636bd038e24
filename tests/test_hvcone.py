"""Cone algebra: reduction maps, quadric residuals, Hopf quotients, Stenzel."""
from fractions import Fraction as Q
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.charts import DomainError, make_spec, resolve_case
from flagcones.exact import QC
from flagcones.hvcone import (GammaGroup, algebraic_residual,
                              casimir_quadric_residual, determinant_residual,
                              eguchi_hanson_Upsilon,
                              eguchi_hanson_Upsilon_prime,
                              eguchi_hanson_potential_field,
                              gamma_canonicalize, hopf_distance,
                              kodaira_embedding, plucker_residual,
                              quadric_residual, remmert, remmert_norm_sq,
                              singular_cone_potential, stenzel_fprime,
                              stenzel_ode_residual, stenzel_potential)
from flagcones.reps import act, outer_tensor, sl2_module, so_vector_module, wedge_module


def _rand_qc(rng, n):
    return tuple(QC(Q(int(rng.integers(-5, 6)), 4), Q(int(rng.integers(-5, 6)), 3)) for _ in range(n))


# -- reduction map ---------------------------------------------------------------

def test_remmert_origin_is_highest_vector():
    spec = make_spec("gr24")
    v = remmert(spec, np.zeros(4, dtype=complex), 1.0)
    rep, _ = spec.chart.embedding_rep(spec.exponents)
    assert np.allclose(v, rep.hw_unit())


def test_remmert_linear_in_fiber():
    spec = make_spec("quadric:6")
    rng = np.random.default_rng(0)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    v1 = remmert(spec, z, 1.0)
    v2 = remmert(spec, z, 0.3 - 0.7j)
    assert np.allclose(v2, (0.3 - 0.7j) * v1)


def test_remmert_rejects_apex():
    spec = make_spec("hopf:cp1")
    with pytest.raises(DomainError):
        remmert(spec, [0.1], 0.0)


@pytest.mark.parametrize("case,ell", [
    ("hopf:cp1", 1), ("cp:2", 1), ("gr24", 1), ("grassmann:4:2", 1),
    ("quadric:5", 1), ("quadric:6", 1), ("quadric:8", 1), ("conifold", 1), ("cp:1", 2),
])
def test_remmert_norm_matches_potential(case, ell):
    spec = make_spec(case, ell=ell)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.normal(size=spec.chart.n_z) + 1j * rng.normal(size=spec.chart.n_z)
        w = complex(rng.normal(), rng.normal())
        nsq = remmert_norm_sq(spec, z, w)
        K1 = float(spec.K1(z, w))
        assert abs(nsq - K1) < 1e-12 * max(1.0, K1)


@pytest.mark.parametrize("case,ell", [("gr24", 1), ("quadric:6", 1), ("conifold", 1), ("cp:1", 2)])
def test_remmert_norm_exact(case, ell):
    spec = make_spec(case, ell=ell)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = _rand_qc(rng, spec.chart.n_z)
        w = QC(Q(3, 2), Q(-1, 5))
        assert remmert_norm_sq(spec, z, w, exact=True) == spec.K1(z, w)


# -- algebraic residuals -----------------------------------------------------------

def test_plucker_basics():
    v = [0.0] * 6
    v[0] = 1.0                      # e1 ^ e2
    assert plucker_residual(3, 2, v) == 0.0
    v2 = [0.0] * 6
    v2[0] = 1.0
    v2[5] = 1.0                     # Z12 = Z34 = 1
    assert np.isclose(plucker_residual(3, 2, v2), 1.0)


@pytest.mark.parametrize("n", [3, 4])
def test_plucker_on_reduction_images(n):
    spec = make_spec(f"grassmann:{n}:2")
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(size=spec.chart.n_z) + 1j * rng.normal(size=spec.chart.n_z)
        v = remmert(spec, z, complex(rng.normal(), rng.normal()))
        v = v / np.linalg.norm(v)
        assert plucker_residual(n, 2, list(v)) < 1e-12


def test_plucker_exact_on_exact_images():
    spec = make_spec("gr24")
    rng = np.random.default_rng(4)
    z = _rand_qc(rng, 4)
    u, _ = remmert(spec, z, QC(2), exact=True)
    assert plucker_residual(3, 2, list(u)) == 0


def _plucker_reference(n, k, v):
    """The coordinate formula the cached relation table replaced: sort and count inversions per term."""
    index = {b: i for i, b in enumerate(combinations(range(1, n + 2), k))}
    exact = all(isinstance(x, QC) for x in v)

    def Z(idx):
        if len(set(idx)) != len(idx):
            return QC(0) if exact else 0j
        inversions = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx)) if idx[a] > idx[b])
        val = v[index[tuple(sorted(idx))]]
        return -val if inversions % 2 else val

    worst = Q(0) if exact else 0.0
    for a in combinations(range(1, n + 2), k - 1):
        for b in combinations(range(1, n + 2), k + 1):
            total = QC(0) if exact else 0j
            for l, bl in enumerate(b):
                term = Z(a + (bl,)) * Z(b[:l] + b[l + 1:])
                total = total - term if l % 2 == 0 else total + term
            mag = total.abs2() if exact else abs(total) ** 2
            if mag > worst:
                worst = mag
    return worst if exact else sqrt(worst)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (3, 2)])
def test_plucker_table_matches_coordinate_formula(n, k):
    """Exact residuals equal the per-term formula; float ones lie within 4 ulp of its Python-scalar loop.

    numpy's complex product fuses a multiply-add where Python's scalar one
    rounds twice, so the two floats may differ in the last bits.
    """
    rng = np.random.default_rng(n * 10 + k)
    d = comb(n + 1, k)
    for trial in range(12):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        if trial % 3 == 0:
            v[rng.random(d) < 0.4] = 0.0        # exact zeros exercise signed-zero rounding
        v /= np.linalg.norm(v)
        ref = _plucker_reference(n, k, v)
        for value in (plucker_residual(n, k, v), plucker_residual(n, k, v.tolist())):
            assert abs(value - ref) <= 4 * np.finfo(float).eps * ref if ref else value <= 1e-16
    for _ in range(2):
        u = list(_rand_qc(rng, d))
        assert plucker_residual(n, k, u) == _plucker_reference(n, k, u) > 0
    spec = make_spec(f"grassmann:{n}:{k}")
    u, _ = remmert(spec, _rand_qc(rng, spec.chart.n_z), QC(2, 1), exact=True)
    assert plucker_residual(n, k, list(u)) == _plucker_reference(n, k, list(u)) == 0


def test_plucker_generic_nonmembership():
    rng = np.random.default_rng(5)
    vals = []
    for _ in range(10):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        vals.append(plucker_residual(3, 2, list(v / np.linalg.norm(v))))
    assert min(vals) > 1e-2


def test_quadric_residual_cases():
    rep = wedge_module(4, 1)
    assert quadric_residual(5, [1, -1j, 0, 0, 0]) == 0
    assert np.isclose(quadric_residual(5, [1, 0, 0, 0, 0]), 1.0)
    spec = make_spec("quadric:8")
    rng = np.random.default_rng(6)
    for _ in range(5):
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = remmert(spec, z, 1.3)
        assert quadric_residual(8, v / np.linalg.norm(v)) < 1e-12
    vals = [quadric_residual(8, v / np.linalg.norm(v))
            for v in rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8))]
    assert min(vals) > 1e-2


def test_quadric_exact_isotropy():
    spec = make_spec("quadric:5")
    rng = np.random.default_rng(7)
    z = _rand_qc(rng, 3)
    u, _ = remmert(spec, z, QC(1), exact=True)
    assert quadric_residual(5, list(u)) == 0


def test_determinant_residual_conifold():
    spec = make_spec("conifold")
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = remmert(spec, z, complex(rng.normal(), rng.normal()))
        assert determinant_residual(v / np.linalg.norm(v)) < 1e-13
    assert np.isclose(determinant_residual([1, 0, 0, 1]), 1.0)
    assert determinant_residual([1, 0, 0, 0]) == 0.0


def test_casimir_quadric_every_vector_of_fundamental():
    rep = sl2_module(1)
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert casimir_quadric_residual(rep, v) < 1e-13


def test_casimir_quadric_level_two():
    spec = make_spec("cp:1", ell=2)
    rep, _ = spec.chart.embedding_rep(spec.exponents)
    rng = np.random.default_rng(10)
    for _ in range(10):
        v = remmert(spec, [complex(rng.normal(), rng.normal())], complex(rng.normal(), rng.normal()))
        assert casimir_quadric_residual(rep, v) < 1e-12
    generic = [casimir_quadric_residual(rep, rng.normal(size=3) + 1j * rng.normal(size=3))
               for _ in range(10)]
    assert min(generic) > 1e-1


def test_casimir_orbit_point_via_word():
    """An exponential orbit point of the highest vector stays on the cone."""
    rep = sl2_module(2)
    E, F, H = (np.array([[0, 2, 0], [0, 0, 1], [0, 0, 0]], dtype=complex),
               None, None)
    v = act(rep, [(rep.simple[1][1], 0.7 - 0.2j), (rep.simple[1][0], 0.3j)], rep.hw_unit())
    assert casimir_quadric_residual(rep, v) < 1e-10


# -- Hopf quotient -----------------------------------------------------------------

def test_gamma_group_validation():
    with pytest.raises(DomainError):
        GammaGroup(1.2)
    with pytest.raises(DomainError):
        GammaGroup(0.0)


def test_canonicalize_unit_norm():
    hp = gamma_canonicalize(GammaGroup(0.5), np.array([1.0 + 0j]))
    assert hp.branch == 0 and np.isclose(hp.norm, 1.0)


def test_canonicalize_annulus_arithmetic():
    hp = gamma_canonicalize(GammaGroup(0.5), np.array([5.0 + 0j]))
    assert hp.branch == 3
    assert np.isclose(hp.norm, 5.0 / 8.0)


def test_canonicalize_boundary_upward():
    hp = gamma_canonicalize(GammaGroup(0.5), np.array([0.5 + 0j]))
    assert np.isclose(hp.norm, 1.0)


def test_canonicalize_rejects_zero():
    with pytest.raises(DomainError):
        gamma_canonicalize(GammaGroup(0.5), np.zeros(3, dtype=complex))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gamma_canonicalize_refuses_a_norm_that_is_not_finite(bad):
    """As it refuses the apex: no power of lambda brings such a point into the annulus."""
    v = np.array([[1.0 + 0j, 0.0], [0.6, 0.8j]])
    with pytest.raises(DomainError, match="not finite"):
        gamma_canonicalize(GammaGroup(0.5), v, norm=np.array([1.0, bad]))


@settings(deadline=None, derandomize=True)
@given(st.floats(min_value=-8, max_value=8), st.integers(min_value=-3, max_value=3))
def test_canonicalize_gamma_invariance(logn, k):
    gamma = GammaGroup(0.3 + 0.2j)
    v = np.exp(logn) * np.array([0.6 + 0.8j, 0.1])
    a = gamma_canonicalize(gamma, v)
    b = gamma_canonicalize(gamma, gamma.lam ** k * v)
    assert hopf_distance(a, b) < 1e-9
    assert abs(gamma.lam) - 1e-12 < a.norm <= 1.0 + 1e-12


@pytest.mark.parametrize("lam", [0.5, 0.3 + 0.2j])
def test_embedding_equivariance_and_injectivity(lam):
    spec = make_spec("hopf:cp1")
    gamma = GammaGroup(lam)
    rng = np.random.default_rng(11)
    reps = []
    for _ in range(20):
        z = [complex(rng.normal(), rng.normal())]
        w = complex(rng.normal(), rng.normal())
        if abs(w) < 1e-3:
            continue
        h1 = kodaira_embedding(spec, gamma, z, w)
        h2 = kodaira_embedding(spec, gamma, z, lam * w)
        assert hopf_distance(h1, h2) < 1e-9
        assert h2.branch == h1.branch - 1
        reps.append(h1.representative)
    dists = [np.max(np.abs(a - b)) for i, a in enumerate(reps) for b in reps[i + 1:]]
    assert min(dists) > 1e-8


def test_embedding_image_on_quadric():
    spec = make_spec("gr24")
    gamma = GammaGroup(0.5)
    rng = np.random.default_rng(12)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    hp = kodaira_embedding(spec, gamma, z, 1.7)
    assert plucker_residual(3, 2, list(hp.representative / np.linalg.norm(hp.representative))) < 1e-12


# -- batches of points ---------------------------------------------------------------

# The cases of the benchmark's embedding suite, one per residual kind or module.
EMBEDDING_CASES = [("quadric:8", 1), ("quadric:6", 1), ("conifold", 1), ("gr24", 1),
                   ("grassmann:4:2", 1), ("cp:2", 1), ("cp:1", 2)]


def _close(batch, rows, scale=None):
    """Each row within 1e-14 of its single-point value, relative to that value (or to ``scale``)."""
    for a, b in zip(batch, rows):
        ref = np.max(np.abs(b)) if scale is None else scale
        assert np.max(np.abs(a - b)) <= 1e-14 * ref, (a, b)


@pytest.mark.parametrize("case, ell", EMBEDDING_CASES)
def test_batched_cone_maps_match_single_points(case, ell):
    """remmert, algebraic_residual, gamma_canonicalize and hopf_distance over a (16, .) block."""
    spec = make_spec(case, ell=ell)
    rng = np.random.default_rng(21)
    z = rng.normal(size=(16, spec.n_z)) + 1j * rng.normal(size=(16, spec.n_z))
    w = 10.0 ** rng.uniform(-3, 3, size=16) * np.exp(2j * np.pi * rng.uniform(size=16))    # branches of both signs
    gamma = GammaGroup(0.3 + 0.2j)

    V = remmert(spec, z, w)
    _close(V, [remmert(spec, z[i], w[i]) for i in range(16)])

    unit = V / np.linalg.norm(V, axis=-1, keepdims=True)
    name, resid = algebraic_residual(spec, unit)
    single = [algebraic_residual(spec, u) for u in unit]
    assert resid.shape == (16,) and {n for n, _ in single} == {name}
    assert all(type(r) is float for _, r in single)
    assert resid.tolist() == [r for _, r in single]

    h1, h2 = gamma_canonicalize(gamma, V), gamma_canonicalize(gamma, gamma.lam * V)
    rows1, rows2 = [gamma_canonicalize(gamma, v) for v in V], [gamma_canonicalize(gamma, gamma.lam * v) for v in V]
    assert h1.branch.tolist() == [h.branch for h in rows1] and h2.branch.tolist() == [h.branch for h in rows2]
    assert all(type(h.branch) is int and type(h.norm) is float for h in rows1)
    # a single point scales by Python's complex power, as the scalar definition reads
    assert all(np.array_equal(h.representative, gamma.lam ** h.branch * v) for h, v in zip(rows1, V))
    _close(h1.norm, [h.norm for h in rows1])
    _close(h1.representative, [h.representative for h in rows1])
    dist = hopf_distance(h1, h2)
    single = [hopf_distance(a, b) for a, b in zip(rows1, rows2)]
    assert all(type(d) is float for d in single)
    assert dist.tolist() == single

    k = kodaira_embedding(spec, gamma, z, w)
    assert k.branch.tolist() == [kodaira_embedding(spec, gamma, z[i], w[i]).branch for i in range(16)]


def test_casimir_residual_matches_the_dense_operator(monkeypatch, dense_casimir_tensor):
    """The rank-one terms read the dense Delta(C) residual; they are built once per module; a vector equals its row."""
    import flagcones.reps as reps
    from flagcones.roots import casimir_eigenvalue

    # fresh modules, with empty caches
    fresh = [sl2_module.__wrapped__(2), wedge_module.__wrapped__(3, 2), so_vector_module.__wrapped__(5)]
    builds, casimir_matrix = [], reps.casimir_matrix
    monkeypatch.setattr(reps, "casimir_matrix", lambda rep: builds.append(rep) or casimir_matrix(rep))
    rng = np.random.default_rng(22)
    for rep in fresh:
        d = rep.dim
        D = dense_casimir_tensor(rep) - float(casimir_eigenvalue(2 * rep.highest_weight)) * np.eye(d * d)
        gg = np.kron(rep.gram_np(), rep.gram_np())
        V = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
        for v, row in zip(V, casimir_quadric_residual(rep, V)):
            nv = v / np.sqrt(rep.norm_sq(v))
            dense = np.sqrt(np.sum(gg * np.abs(D @ np.kron(nv, nv)) ** 2))
            assert abs(row - dense) <= 1e-14 * dense
            assert casimir_quadric_residual(rep, v) == row
    assert builds == fresh


def _orbit_point(rep, rng):
    """A point of the highest-weight orbit: the unit highest vector under two rounds of simple lowering operators."""
    word = [(rep.simple[i][1], complex(*rng.normal(scale=0.7, size=2))) for _ in range(2) for i in rep.simple]
    return act(rep, word, rep.hw_unit())


@pytest.mark.parametrize("build, args", [(sl2_module, (3,)), (wedge_module, (3, 2)), (wedge_module, (5, 2)),
                                         (wedge_module, (7, 3)), (so_vector_module, (7,)),
                                         (so_vector_module, (8,))])
def test_casimir_membership_beyond_sl2(build, args):
    """Kostant's quadrics vanish on the highest-weight orbit and not off it, as the Pluecker and isotropic ones do."""
    rep = build(*args)
    rng = np.random.default_rng(23)
    assert casimir_quadric_residual(rep, rep.hw_unit()) <= 1e-15
    orbit = np.array([_orbit_point(rep, rng) for _ in range(20)])
    generic = rng.normal(size=(20, rep.dim)) + 1j * rng.normal(size=(20, rep.dim))
    on, off = casimir_quadric_residual(rep, orbit), casimir_quadric_residual(rep, generic)
    assert np.max(on) <= 1e-13 and np.min(off) >= 1e-2
    if build is not sl2_module:
        classic = plucker_residual if build is wedge_module else quadric_residual
        for V, casimir in ((orbit, on), (generic, off)):
            unit = V / np.linalg.norm(V, axis=-1, keepdims=True)
            assert np.array_equal(classic(*args, unit) < 1e-8, casimir < 1e-8)


# -- special cone potentials ----------------------------------------------------------

def test_stenzel_limit_value():
    assert np.isclose(stenzel_fprime(1.0, 0.0), 1.0)
    assert np.isclose(stenzel_fprime(2.0, 0.0), 2.0 ** (-2.0 / 3.0))
    # the series branch agrees with the closed form at the switch point
    t = 2.1e-3
    closed = (3.0 / 4.0) ** (1.0 / 3.0) * np.cbrt(np.sinh(2 * t) - 2 * t) / np.sinh(t)
    assert abs(stenzel_fprime(1.0, 1.9e-3) - (1.0 - 1.9e-3 ** 2 / 10.0)) < 1e-9
    assert abs(closed - stenzel_fprime(1.0, t)) < 1e-9


def test_stenzel_scaling():
    for t in (0.3, 1.0, 2.5):
        assert np.isclose(stenzel_fprime(2.0, t), 2.0 ** (-2.0 / 3.0) * stenzel_fprime(1.0, t))


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_stenzel_ode_residual_grid(eps):
    for t in np.linspace(0.1, 3.0, 16):
        assert abs(stenzel_ode_residual(eps, float(t))) < 1e-8


def _two_level_residual(eps, t, fd_step):
    """The residual with its hand-written two-level Richardson first difference."""
    def cube(s):
        return stenzel_fprime(eps, s) ** 3

    d1 = (cube(t + fd_step) - cube(t - fd_step)) / (2 * fd_step)
    d2 = (cube(t + fd_step / 2) - cube(t - fd_step / 2)) / fd_step
    dG = (4 * d2 - d1) / 3
    return eps * eps * np.cosh(t) * cube(t) + eps * eps * np.sinh(t) / 3.0 * dG - 1.0


@pytest.mark.parametrize("fd_step", [1e-4, 3e-5, 1e-3, 2.5e-3])
def test_stenzel_ode_residual_is_the_two_level_richardson_difference(fd_step):
    """The shared Richardson tableau at ``richardson=2`` reproduces the two-level formula bit for bit."""
    for eps in (0.3, 0.5, 1.0, 1.7, 2.0):
        for t in map(float, np.linspace(0.01, 4.0, 25)):
            if t > 4 * fd_step:
                assert stenzel_ode_residual(eps, t, fd_step).hex() == _two_level_residual(eps, t, fd_step).hex()


def test_singular_cone_potential_value():
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.isclose(singular_cone_potential(W), 1.5 ** (4.0 / 3.0))


def test_upsilon_values_and_derivative():
    assert eguchi_hanson_Upsilon(0.0) == 1.0
    assert eguchi_hanson_Upsilon_prime(0.0) == 1.0
    xs = np.linspace(0.1, 10.0, 41)
    h = 1e-6
    fd = (eguchi_hanson_Upsilon(xs + h) - eguchi_hanson_Upsilon(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - eguchi_hanson_Upsilon_prime(xs))) < 1e-8


def test_eguchi_hanson_ricci_flat():
    from flagcones.diffgeo import FDConfig, i_del_delbar, ricci_form

    cfg = FDConfig()
    spec = make_spec("cp:1", ell=2)
    F = eguchi_hanson_potential_field(spec)
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = np.concatenate([rng.uniform(-0.9, 0.9, size=2),
                            [rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)]])
        rho = ricci_form(F, p, cfg)
        om = i_del_delbar(F, p, cfg)
        assert np.max(np.abs(rho)) / np.max(np.abs(om)) < 1e-4


def test_algebraic_residual_dispatch():
    for case, kind in [("gr24", "plucker"), ("quadric:6", "quadric"),
                       ("conifold", "determinant"), ("hopf:cp1", "trivial")]:
        spec = make_spec(case)
        rng = np.random.default_rng(14)
        z = rng.normal(size=spec.chart.n_z) + 1j * rng.normal(size=spec.chart.n_z)
        v = remmert(spec, z, 1.0)
        name, resid = algebraic_residual(spec, v / np.linalg.norm(v))
        assert name == kind
        assert resid < 1e-12


def test_stenzel_potential_quadrature():
    from flagcones.hvcone import stenzel_potential

    assert stenzel_potential(1.0, 0.0) == 0.0
    # d/dt K(t) = F'(t) * eps^2 sinh(t)
    eps, t, h = 0.8, 1.3, 1e-5
    fd = (stenzel_potential(eps, t + h) - stenzel_potential(eps, t - h)) / (2 * h)
    assert abs(fd - stenzel_fprime(eps, t) * eps * eps * np.sinh(t)) < 1e-8
    assert stenzel_potential(eps, 2.0) > stenzel_potential(eps, 1.0) > 0


@pytest.mark.parametrize("call, fragment", [
    (lambda: plucker_residual(3, 2, np.ones(5)), "wrong dimension"),
    (lambda: casimir_quadric_residual(outer_tensor(sl2_module(1), sl2_module(1)), np.ones(4)), "highest weight"),
    (lambda: algebraic_residual(make_spec("wallach"), np.ones(8)), "several generators"),
    (lambda: stenzel_fprime(0.0, 1.0), "deformation parameter"),
    (lambda: stenzel_fprime(1.0, -1.0), "radial parameter"),
    (lambda: stenzel_ode_residual(1.0, 1e-4), "away from t = 0"),
    (lambda: stenzel_ode_residual(1.0, 1.0, fd_step=float("nan")), "fd_step must be positive and finite"),
    (lambda: stenzel_potential(1.0, -1.0), "radial parameter"),
    (lambda: stenzel_fprime(float("nan"), 1.0), "deformation parameter"),
    (lambda: stenzel_fprime(float("inf"), 1.0), "deformation parameter"),
    (lambda: stenzel_fprime(1.0, float("inf")), "radial parameter"),
    (lambda: stenzel_fprime(1.0, float("nan")), "radial parameter"),
    (lambda: stenzel_ode_residual(1.0, float("nan")), "radial parameter"),
    (lambda: stenzel_ode_residual(float("nan"), 1.0), "deformation parameter"),
    (lambda: stenzel_potential(1.0, float("nan")), "radial parameter"),
    (lambda: stenzel_potential(0.0, 1.0), "deformation parameter"),
], ids=["plucker_dim", "casimir_no_weight", "several_generators", "stenzel_eps", "stenzel_t",
        "stenzel_grid", "stenzel_fd_step", "stenzel_potential_t", "stenzel_eps_nan", "stenzel_eps_inf",
        "stenzel_t_inf", "stenzel_t_nan", "stenzel_residual_t_nan", "stenzel_residual_eps_nan",
        "stenzel_potential_t_nan", "stenzel_potential_eps"])
def test_input_checks_raise_domain_errors(call, fragment):
    with pytest.raises(DomainError, match=fragment):
        call()
