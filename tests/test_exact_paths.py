"""One code path, two fields: exact results, read as complex, match the float path at the same point."""
from fractions import Fraction as Q
from math import comb

import numpy as np
import pytest

from flagcones import charts
from flagcones.charts import make_spec, resolve_case
from flagcones.exact import QC, to_field
from flagcones.hvcone import determinant_residual, plucker_residual, quadric_residual, remmert
from flagcones.reps import act, derivation_matrix

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
