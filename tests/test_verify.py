"""Verification suites: positive cases, negative controls, reproducibility."""
import os
import platform
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest

from flagcones import charts, diffgeo, verify
from flagcones.charts import PotentialSpec, make_spec, resolve_case, ricci_flat_exponent
from flagcones.diffgeo import FDConfig
from flagcones.roots import ConfigurationError
from flagcones.verify import (check_cone_ricci_flat, check_einstein_weyl,
                              check_kahler_einstein_base, check_lck,
                              check_vaisman, conformal_fields, run_suite, sample_points)

CFG = FDConfig()


def test_sample_set_reproducible_and_in_domain():
    spec = make_spec("gr24")
    a = sample_points(spec, 7, 20)
    b = sample_points(spec, 7, 20)
    assert np.array_equal(a.points, b.points)
    z = a.points[:, 0:8:2] + 1j * a.points[:, 1:8:2]
    w = a.points[:, 8] + 1j * a.points[:, 9]
    assert np.max(np.abs(z)) <= 1.5
    assert np.all((np.abs(w) >= 0.5) & (np.abs(w) <= 2.0))
    c = sample_points(spec, 8, 20)
    assert not np.array_equal(a.points, c.points)


def test_lck_pass_at_tight_tolerance():
    spec = make_spec("hopf:cp1")
    samples = sample_points(spec, 7, 20)
    rep = check_lck(spec, samples, CFG, tolerance=1e-6, case="hopf:cp1")
    assert rep.verdict


def test_lck_negative_control_fails_by_margin():
    spec = make_spec("hopf:cp1")
    samples = sample_points(spec, 7, 20)
    rep = check_lck(spec, samples, CFG, case="hopf:cp1", corrupt_theta=1.1)
    assert not rep.verdict
    bad = next(r for r in rep.residuals if r.name == "lck_two_form")
    assert bad.max > 100 * bad.tolerance


def test_vaisman_negative_control_fails_by_margin():
    spec = make_spec("hopf:cp1")
    samples = sample_points(spec, 7, 20)
    rep = check_vaisman(spec, samples, CFG, case="hopf:cp1", metric="cone")
    assert not rep.verdict
    assert rep.residuals[0].max > 100 * rep.residuals[0].tolerance


@pytest.mark.parametrize("metric", ["Vaisman", "", "kahler", None])
def test_vaisman_refuses_an_unknown_metric_before_any_field_call(monkeypatch, metric):
    """Only ``'vaisman'`` and the ``'cone'`` control are metrics; anything else is an error, not a failed verdict."""
    monkeypatch.setattr(PotentialSpec, "_log_jets", lambda *a, **k: pytest.fail("a field was evaluated"))
    spec = make_spec("gr24")
    with pytest.raises(ConfigurationError, match="metric must be 'vaisman' or 'cone'"):
        check_vaisman(spec, sample_points(spec, 7, 2), CFG, metric=metric)


def test_vaisman_holds_for_noncanonical_bundle():
    """Parallelism of the Lee form needs no anticanonical alignment."""
    spec = make_spec("wallach", exponents=[1, 2])
    samples = sample_points(spec, 5, 6)
    rep = check_vaisman(spec, samples, CFG, case="wallach(1,2)")
    assert rep.verdict


def test_lck_and_vaisman_consistent():
    """The two structure suites pass together on the catalog."""
    for case in ["hopf:cp1", "conifold"]:
        spec = make_spec(case)
        samples = sample_points(spec, 3, 8)
        assert check_lck(spec, samples, CFG, case=case).verdict \
            == check_vaisman(spec, samples, CFG, case=case).verdict


def test_kahler_einstein_base_cases():
    for case in ["cp:1", "wallach"]:
        spec = make_spec(case)
        samples = sample_points(spec, 7, 8)
        rep = check_kahler_einstein_base(make_spec(case), samples, CFG)
        assert rep.verdict, case


def test_kahler_einstein_reads_the_base_columns_alone():
    """New ``w`` columns leave the report as it is, bit for bit."""
    spec = make_spec("wallach")
    samples = sample_points(spec, 7, 6)
    moved = samples.points.copy()
    moved[:, -2:] = np.random.default_rng(1).uniform(-2.0, 2.0, size=(len(moved), 2))
    assert check_kahler_einstein_base(spec, replace(samples, points=moved), CFG).to_dict() \
        == check_kahler_einstein_base(spec, samples, CFG).to_dict()


def test_cone_ricci_flat_and_control():
    spec = make_spec("conifold", b=Q(2, 3))
    samples = sample_points(spec, 7, 8)
    rep = check_cone_ricci_flat(spec, samples, CFG, case="conifold")
    assert rep.verdict
    bad = check_cone_ricci_flat(make_spec("conifold", b=Q(1)), samples, CFG, case="conifold")
    assert not bad.verdict
    assert bad.residuals[0].max > 100 * bad.residuals[0].tolerance


def test_einstein_weyl_pass_and_fail():
    spec = make_spec("hopf:cp2")
    samples = sample_points(spec, 7, 6)
    rep = check_einstein_weyl(spec, samples, CFG, case="hopf:cp2")
    assert rep.verdict
    wrong = make_spec("hopf:cp2", b=Q(1, 2))
    bad = check_einstein_weyl(wrong, sample_points(wrong, 7, 4), CFG, case="hopf:cp2")
    assert not bad.verdict


def test_einstein_weyl_dim4_advisory():
    """The four-dimensional Hopf surface is reported without a verdict."""
    spec = make_spec("hopf:cp1")
    samples = sample_points(spec, 7, 4)
    rep = check_einstein_weyl(spec, samples, CFG, case="hopf:cp1")
    assert all(r.advisory for r in rep.residuals)
    assert rep.verdict          # vacuous: advisory records carry no verdict
    assert any("dimension" in n for n in rep.notes)


def test_run_suite_dispatch_and_unknown():
    rep = run_suite("vaisman", "hopf:cp1", seed=3, count=4)
    assert rep.suite == "vaisman" and rep.verdict
    with pytest.raises(ConfigurationError):
        run_suite("nope", "hopf:cp1")
    with pytest.raises(ConfigurationError):
        run_suite("vaisman", "mystery:7")


@pytest.mark.parametrize("kwargs", [pytest.param({"count": 0}, id="0"), pytest.param({"count": -3}, id="-3"),
                                    {"count": True}, {"count": 2.5}, {"count": np.float64(4.0)},
                                    {"seed": True}, {"seed": 1.5}, {"seed": -1}, {"seed": "7"},
                                    {"ell": 0}, {"ell": -2}, {"ell": 1.5}, {"ell": True}])
def test_run_suite_rejects_nonpositive_count(kwargs, monkeypatch):
    """A bool, non-integer or out-of-range ``count``, ``seed`` or ``ell`` is refused before any point is sampled."""
    monkeypatch.setattr(verify, "sample_points", lambda *a, **k: pytest.fail("sampled before the check"))
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match="sample count" if name == "count" else name):
        run_suite("vaisman", "hopf:cp1", **kwargs)


def test_run_suite_accepts_numpy_integer_count_and_seed():
    rep = run_suite("vaisman", "hopf:cp1", seed=np.int64(3), count=np.int32(4))
    assert rep.verdict and type(rep.seed) is int and type(rep.count) is int
    assert rep.to_dict() == run_suite("vaisman", "hopf:cp1", seed=3, count=4).to_dict()


def test_run_suite_defaults_ricci_flat_exponent():
    rep = run_suite("ricci-flat", "conifold", seed=3, count=4)
    assert rep.verdict
    assert any("b = 2/3" in n for n in rep.notes)


def test_embedding_suite():
    rep = run_suite("embedding", "gr24", seed=7, count=12, lam=0.3 + 0.2j)
    assert rep.verdict
    names = {r.name for r in rep.residuals}
    assert "plucker_residual" in names and "gamma_equivariance" in names


def test_embedding_report_tolerances():
    """The embedding gates: ``tolerance`` overrides the algebraic residual alone, and one sample has no separation."""
    gates = lambda rep: {r.name: r.tolerance for r in rep.residuals}
    default = run_suite("embedding", "gr24")
    assert gates(default) == {"norm_matches_potential": 1e-12, "plucker_residual": 1e-10,
                              "gamma_equivariance": 1e-9, "injectivity_separation": 1.0}
    assert gates(run_suite("embedding", "gr24", tolerance=1e-3)) == {**gates(default), "plucker_residual": 1e-3}
    one = run_suite("embedding", "gr24", count=1)
    assert gates(one) == {k: v for k, v in gates(default).items() if k != "injectivity_separation"}


@pytest.mark.parametrize("case, count, duplicate", [("gr24", 2, False), ("gr24", 2, True), ("gr24", 50, False),
                                                    ("gr24", 50, True), ("conifold", 17, True), ("quadric:6", 9, False)])
def test_embedding_separation_reads_the_pairs_of_the_full_matrix(monkeypatch, case, count, duplicate):
    """``injectivity_separation`` over the pairs ``i < j`` equals the minimum of the full ``n x n`` distance
    matrix above its diagonal, bit for bit; a duplicated sample gives separation 0."""
    chunked, blocks = verify._chunked, []
    monkeypatch.setattr(verify, "_chunked", lambda *a: blocks.append(chunked(*a)) or blocks[-1])
    spec = make_spec(case)
    samples = sample_points(spec, 5, count)
    if duplicate:
        samples.points[-1] = samples.points[0]
    rep = verify.check_embedding_consistency(spec, samples, CFG)
    canon = blocks[-1][-1]
    sep = float(np.min(np.max(np.abs(canon[:, None] - canon[None]), axis=-1)[np.triu_indices(count, 1)]))
    assert (sep == 0) == duplicate
    record = next(r for r in rep.residuals if r.name == "injectivity_separation")
    assert float(record.max).hex() == (verify.DEFAULT_TOLERANCES["separation"] / max(sep, 1e-300)).hex()
    assert f"minimum pairwise separation {sep:.3e}" in rep.notes


def test_embedding_refuses_a_fractional_exponent_on_a_projective_line(monkeypatch):
    monkeypatch.setattr(verify, "remmert", lambda *args: pytest.fail("evaluated before refusing"))
    with pytest.raises(ConfigurationError, match="integer exponents"):
        run_suite("embedding", "cp:1", exponents=[Q(3, 2)])


def test_suite_table_default_counts_and_names():
    names = ("lck", "vaisman", "kahler-einstein", "ricci-flat", "einstein-weyl", "embedding")
    assert verify.SUITES == names
    assert [run_suite(s, "gr24").count for s in names] == [20, 20, 20, 20, 10, 50]
    with pytest.raises(ConfigurationError) as err:
        run_suite("nope", "gr24")
    assert all(repr(s) in str(err.value) for s in names)


def test_report_deterministic():
    a = run_suite("lck", "hopf:cp1", seed=7, count=6).to_dict()
    b = run_suite("lck", "hopf:cp1", seed=7, count=6).to_dict()
    assert a == b


def test_report_schema():
    rep = run_suite("vaisman", "conifold", seed=2, count=4)
    d = rep.to_dict()
    assert set(d) == {"case", "suite", "seed", "sample_count", "fd_config", "residuals", "verdict", "notes"}
    for r in d["residuals"]:
        assert set(r) == {"name", "max", "mean", "tolerance", "passed", "advisory"}


def _assert_passes_over_seeds(suite, case, ell=1):
    """Seeds 0-7 all pass with the worst gated residual, metric_agreement included, at most half its tolerance."""
    for seed in range(8):
        rep = run_suite(suite, case, seed=seed, ell=ell)
        margin = max((r.max / r.tolerance for r in rep.residuals if not r.advisory), default=0.0)
        assert rep.verdict and margin <= 0.5, (seed, margin)


# The cells of the benchmark's `minors` workload: every wedge-chart potential
# is a product of Gram elimination pivots (charts.gram_minors, or the jets'
# own in ricci-flat and kahler-einstein), so this sweep guards their rounding.
MINORS_CELLS = [("lck", "gr24"), ("ricci-flat", "gr24"), ("kahler-einstein", "gr24"),
                ("lck", "grassmann:4:2"), ("lck", "wallach"), ("vaisman", "wallach"),
                ("kahler-einstein", "wallach"), ("ricci-flat", "wallach")]


@pytest.mark.slow
@pytest.mark.parametrize("suite, case", MINORS_CELLS)
def test_wedge_cells_pass_with_margin_over_seeds(suite, case):
    _assert_passes_over_seeds(suite, case)


# The cells of the benchmark's `embedding` workload: they share the cached
# embedding module and word matrices of each chart.
EMBEDDING_CELLS = [("quadric:8", 1), ("quadric:6", 1), ("conifold", 1), ("gr24", 1),
                   ("grassmann:4:2", 1), ("cp:2", 1), ("cp:1", 2)]


@pytest.mark.slow
@pytest.mark.parametrize("case, ell", EMBEDDING_CELLS)
def test_embedding_cells_pass_with_margin_over_seeds(case, ell):
    _assert_passes_over_seeds("embedding", case, ell)


# -- the analytic Kahler layer against finite differences of the potential --------

FIELD_CASES = ["cp:1", "cp:2", "gr24", "grassmann:4:2", "grassmann:5:3", "wallach", "fullflag:A:3",
               "quadric:5", "quadric:6", "quadric:8", "conifold"]


def _gap(ref, other):
    return np.max(np.abs(ref - other)) / np.max(np.abs(ref))


def _fd_fields(spec, p):
    """Reference: complex Hessian / K, g_tilde, theta and Omega by finite differences of the potential."""
    F0, logF = spec.field(), spec.log_field()
    scale = float(F0(p[None, :])[0])
    F = lambda P: F0(P) / scale
    P = p[None, :]
    K = F(P)[0]
    H = diffgeo._metric_jets(F, P, CFG, diffgeo.scaled_steps(P, CFG.hessian_step))[2][0]
    omega = diffgeo.kahler_form_of_hessian(H)
    return (diffgeo.complex_hessian(H) / K,
            omega @ diffgeo.complex_structure(len(p)) / K,
            -diffgeo._jacobian_of_field(logF, P, CFG, diffgeo.scaled_steps(P, CFG.base_step))[0],
            omega / K)


@pytest.mark.parametrize("case", FIELD_CASES)
def test_analytic_fields_match_finite_differences(case):
    spec = make_spec(case, b=Q(4, 5))
    base = spec.base_log_anticanonical()
    for p in sample_points(spec, 11, 3).points:
        cone = conformal_fields(spec)
        P = p[None, :]
        g, th = diffgeo.split_cone(cone(P)[0])
        J = diffgeo.complex_structure(len(p))
        analytic = (spec.cone_jet()(P)[1][0], g, th, -g @ J)
        for name, a, fd in zip(("ddbar K / K", "g_tilde", "theta", "Omega"), analytic, _fd_fields(spec, p)):
            assert _gap(a, fd) <= 1e-8, (name, _gap(a, fd))
        Hb, log_h = spec.base_jet()(P[:, :-2])
        assert np.array_equal(log_h, base(P[:, :-2]))
        Hfd = diffgeo._metric_jets(base, P[:, :-2], CFG, diffgeo.scaled_steps(P[:, :-2], CFG.hessian_step))[2]
        assert _gap(Hb[0], diffgeo.complex_hessian(Hfd)[0]) <= 1e-8


@pytest.mark.parametrize("case", ["gr24", "wallach"])
def test_kahler_layer_makes_no_lapack_inverse_or_log_det(monkeypatch, case):
    """ricci-flat and kahler-einstein run on the entry-array elimination alone."""
    calls = []
    for name in ("inv", "slogdet"):
        lapack = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, f=lapack, **k: calls.append(f.__name__) or f(*a, **k))
    for suite in ("ricci-flat", "kahler-einstein"):
        assert run_suite(suite, case, seed=3, count=2).verdict, suite
    assert calls == []


FD_SUITES = ("lck", "vaisman", "kahler-einstein", "ricci-flat", "einstein-weyl")


@pytest.mark.parametrize("case, b", [("conifold", 1), ("gr24", 1), ("gr24", 3), ("quadric:6", 1), ("wallach", 2)])
def test_einstein_weyl_ricci_residuals_are_one_detector(case, b):
    """Under a wrong ``b`` the three Ricci residuals fail together, by the same ratio.

    ``Ric^D = Ric - (n-2)(|t|^2 g - t (x) t)`` once ``nabla t = 0``, so
    ``einstein_weyl_ricci``, ``weyl_ricci_curvature`` and ``weyl_ricci_identity``
    read one quantity and count as one detector, not three (at seed 7 each
    reads 4944.03 times its tolerance on the conifold at b = 1).
    """
    rep = run_suite("einstein-weyl", case, seed=7, b=b)
    got = {r.name: r for r in rep.residuals}
    ric, curv, ident = (got[name].max for name in ("einstein_weyl_ricci", "weyl_ricci_curvature",
                                                   "weyl_ricci_identity"))
    assert ric >= 100 * got["einstein_weyl_ricci"].tolerance
    assert abs(curv - ric) <= 1e-6 * ric and abs(ident - ric) <= 1e-6 * ric
    assert got["weyl_ricci_agreement"].passed


@pytest.mark.parametrize("case", ["gr24", "fullflag:A:3"])
def test_ricci_flat_wrong_exponent_fails_by_margin(case):
    spec = make_spec(case, b=ricci_flat_exponent(resolve_case(case)) * Q(11, 10))
    rep = check_cone_ricci_flat(spec, sample_points(spec, 7, 4), CFG, case=case)
    bad = rep.residuals[0]
    assert not rep.verdict and bad.max >= 100 * bad.tolerance


def test_metric_agreement_closes_every_fd_suite():
    for suite in FD_SUITES:
        rep = run_suite(suite, "wallach", seed=3, count=2)
        last = rep.residuals[-1]
        assert rep.verdict and last.name == "metric_agreement" and last.tolerance == 1e-8, suite
    spec = make_spec("hopf:cp1")
    rep = check_lck(spec, sample_points(spec, 7, 4), CFG)
    assert [r.tolerance for r in rep.residuals] == [1e-5, 1e-5, 1e-5, 1e-8]
    rep = check_lck(spec, sample_points(spec, 7, 4), CFG, tolerance=1e-6)
    assert all(r.tolerance == 1e-6 for r in rep.residuals)     # an explicit tolerance gates every residual


def test_metric_agreement_catches_a_wrong_jacobian(monkeypatch):
    """Every ``d_a F`` scaled by 1.01 scales ``d log h`` by 1.01 and ``ddbar log h`` by 1.01^2; ``h`` stays as it is."""
    log_gram_jets = charts.log_gram_jets

    def wrong(F, jac):
        jets = log_gram_jets(F, jac)
        return tuple(1.01 ** (i + 1) * jet for i, jet in enumerate(jets[:2])) + jets[2:]

    monkeypatch.setattr(charts, "log_gram_jets", wrong)
    for suite in FD_SUITES:
        rep = run_suite(suite, "gr24", seed=3, count=2)
        last = rep.residuals[-1]
        assert last.name == "metric_agreement" and last.max >= 100 * last.tolerance, suite


def test_metric_agreement_catches_a_wrong_product_jet(monkeypatch):
    """The conifold's closed-form jets with ``d log h`` scaled by 1.01 and ``ddbar log h`` by 1.01^2: the
    ``metric_agreement`` of ``ricci-flat`` and ``einstein-weyl`` fails by two orders of magnitude."""
    product_log_jets = charts._product_log_jets

    def wrong(z, weights):
        grad, hess = product_log_jets(z, weights)
        return 1.01 * grad, 1.01 ** 2 * hess

    monkeypatch.setattr(charts, "_product_log_jets", wrong)
    for suite in ("ricci-flat", "einstein-weyl"):
        last = run_suite(suite, "conifold", seed=3, count=4).residuals[-1]
        assert last.name == "metric_agreement" and last.max >= 100 * last.tolerance, suite


def _hex(values) -> list:
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("suite, case, rows", [
    ("ricci-flat", "gr24", None), ("ricci-flat", "wallach", None), ("ricci-flat", "quadric:6", None),
    ("ricci-flat", "conifold", None), ("einstein-weyl", "gr24", None), ("einstein-weyl", "wallach", None),
    ("einstein-weyl", "quadric:6", None), ("einstein-weyl", "conifold", None),
    ("ricci-flat", "gr24", 1024), ("ricci-flat", "conifold", 1024), ("einstein-weyl", "wallach", 1024),
    ("einstein-weyl", "quadric:6", 1024), ("einstein-weyl", "fullflag:A:4", None)])
def test_jet_metric_agreement_equals_the_field_oracle(monkeypatch, suite, case, rows):
    """``ricci-flat`` and ``einstein-weyl`` read ``K`` for ``metric_agreement`` from their own stencil; per
    sample, bit for bit, it equals ``_metric_agreement``, which differences ``spec.field()`` at the same
    points and steps.  fullflag:A:4 ``einstein-weyl`` at its default count and 1024-row blocks of the
    smaller cases take the path of several blocks."""
    if rows is not None:
        monkeypatch.setattr(verify, "_CHUNK_ROWS", rows)
    calls = []
    agreement = verify._agreement
    monkeypatch.setattr(verify, "_agreement", lambda *a: calls.append(agreement(*a)) or calls[-1])
    rep = run_suite(suite, case, seed=3)
    got = np.concatenate(calls)
    assert len(calls) > 1 or rows is None and case != "fullflag:A:4"
    spec = replace(make_spec(case), b=ricci_flat_exponent(resolve_case(case)))
    points = sample_points(spec, 3, rep.count).points
    g = diffgeo.split_cone(conformal_fields(spec)(points))[0]
    want = verify._metric_agreement(spec, CFG, points, g)
    assert _hex(got) == _hex(want)
    last = rep.residuals[-1]
    assert last.name == "metric_agreement" and _hex([last.max, last.mean]) == _hex([np.max(want), np.mean(want)])


@pytest.mark.parametrize("case", ["gr24", "wallach", "grassmann:4:2"])
def test_metric_agreement_catches_a_wrong_jet_potential(monkeypatch, case):
    """The ``h`` that ``log_gram_jets`` hands back scaled by ``1 + 0.01 sum |F|^2``, its ``grad`` and ``hess``
    as they are: ``ricci-flat`` and ``einstein-weyl`` read ``K`` from those potentials, so their
    ``metric_agreement`` fails by two orders of magnitude.  ``lck`` and ``vaisman`` take ``K`` from
    ``h_closed`` and still pass."""
    log_gram_jets = charts.log_gram_jets

    def wrong(F, jac):
        grad, hess, h = log_gram_jets(F, jac)
        return grad, hess, h * (1 + 0.01 * np.sum(np.abs(F) ** 2, axis=(-2, -1)))

    monkeypatch.setattr(charts, "log_gram_jets", wrong)
    for suite in ("ricci-flat", "einstein-weyl"):
        last = run_suite(suite, case, seed=3, count=4).residuals[-1]
        assert last.name == "metric_agreement" and last.max >= 100 * last.tolerance, suite
    for suite in ("lck", "vaisman"):
        rep = run_suite(suite, case, seed=3, count=4)
        assert rep.verdict and rep.residuals[-1].name == "metric_agreement", suite


@pytest.mark.parametrize("richardson", [2, 3])
@pytest.mark.parametrize("suite", FD_SUITES)
def test_every_suite_stencil_runs_at_the_hessian_step(monkeypatch, suite, richardson):
    """Each stencil of a suite, ``metric_agreement``'s included, runs at ``scaled_steps(P, hessian_step) / 2**k``
    at Richardson level k, on the samples (the base columns for ``kahler-einstein``).  ``lck`` and ``vaisman``
    make a cone stencil and a stencil of ``spec.field()`` per level; the three second-order suites make one,
    from which ``ricci-flat`` and ``einstein-weyl`` also read ``K`` for ``metric_agreement``."""
    calls = []
    stencil = diffgeo._stencil_values
    monkeypatch.setattr(diffgeo, "_stencil_values", lambda f, P, h, **k: calls.append((P, h)) or stencil(f, P, h, **k))
    cfg = FDConfig(richardson=richardson)
    spec = make_spec("gr24")
    points = sample_points(spec, 3, 4).points
    run_suite(suite, "gr24", seed=3, count=4, cfg=cfg)
    stencils = 2 if suite in ("lck", "vaisman") else 1
    assert len(calls) == stencils * richardson
    for i, (P, h) in enumerate(calls):
        assert np.array_equal(P, points[:, :8] if suite == "kahler-einstein" else points)
        assert np.array_equal(h, diffgeo.scaled_steps(P, cfg.hessian_step) / 2 ** (i % richardson)), i


@pytest.mark.parametrize("richardson", [2, 3])
def test_lck_block_makes_one_log_jet_call_per_stencil(monkeypatch, richardson):
    """An lck block evaluates the chart jets at its samples and once per Richardson level, nowhere else."""
    calls = []
    log_jets = PotentialSpec._log_jets
    monkeypatch.setattr(PotentialSpec, "_log_jets", lambda self, *a, **k: calls.append(1) or log_jets(self, *a, **k))
    for count in (4, 8):
        calls.clear()
        run_suite("lck", "gr24", seed=3, count=count, cfg=FDConfig(richardson=richardson))
        assert len(calls) == 1 + richardson, count


@pytest.mark.parametrize("suite", FD_SUITES)
def test_finite_difference_suites_refuse_depth_one_before_any_work(monkeypatch, suite):
    """At depth 1 the residuals miss their tolerances, which never loosen: a configuration error, no field call."""
    monkeypatch.setattr(PotentialSpec, "_log_jets", lambda *a, **k: pytest.fail("a field was evaluated"))
    with pytest.raises(ConfigurationError, match=f"the {suite} suite needs richardson >= 2, got 1"):
        run_suite(suite, "gr24", seed=3, count=2, cfg=FDConfig(richardson=1))


@pytest.mark.parametrize("suite", ["lck", "vaisman", "ricci-flat", "einstein-weyl"])
def test_cone_suites_share_one_metric_agreement(monkeypatch, suite):
    """The four cone suites close with the one agreement rule ``_agreement``, called once a block, whose
    values are the record."""
    calls = []
    agreement = verify._agreement
    monkeypatch.setattr(verify, "_agreement", lambda *a: calls.append(agreement(*a)) or calls[-1])
    last = run_suite(suite, "quadric:6", seed=3, count=2).residuals[-1]
    assert last.name == "metric_agreement"
    assert len(calls) == 1 and calls[0].shape == (2,)
    assert last.max == np.max(calls[0]) and last.mean == np.mean(calls[0])


def test_cone_jet_evaluations_per_sample(monkeypatch):
    """One joint field carries g_tilde and theta, and every finite-difference suite evaluates
    each stencil once per block of samples, at most ``_CHUNK_ROWS`` rows a call: at the
    default budget a default-count suite is one block, and at 1024 rows the counts below
    take the multi-block path."""
    calls = []
    cone_jet = PotentialSpec.cone_jet

    def counted(self, **kwargs):
        jet = cone_jet(self, **kwargs)

        def counting_jet(points):
            calls.append(len(points))
            return jet(points)

        return counting_jet

    monkeypatch.setattr(PotentialSpec, "cone_jet", counted)

    def jet_calls(suite, case, count):
        calls.clear()
        run_suite(suite, case, seed=3, count=count)
        assert max(calls) <= verify._CHUNK_ROWS, (suite, max(calls))
        return len(calls)

    # default budget: 181 ddbar rows x 20 samples (ricci-flat) and 201 rows x 10 (einstein-weyl) are one block
    assert jet_calls("ricci-flat", "gr24", 20) == 3
    assert jet_calls("einstein-weyl", "quadric:6", 10) == 2
    monkeypatch.setattr(verify, "_CHUNK_ROWS", 1024)
    # 201 full-stencil rows a sample: 5 samples fit one block, 8 take two; a block
    # makes one jet stencil per Richardson level, and every residual reads its jets
    assert jet_calls("einstein-weyl", "quadric:6", 4) == jet_calls("einstein-weyl", "quadric:6", 5) == 2
    assert jet_calls("einstein-weyl", "quadric:6", 8) == 2 * 2
    # 20 first-difference rows a sample: 4 and 8 samples both fit one block; d Omega and
    # d theta read one cone stencil, so the jet runs at P and once per Richardson level
    assert jet_calls("lck", "gr24", 4) == jet_calls("lck", "gr24", 8) == 3
    assert jet_calls("vaisman", "quadric:6", 4) == jet_calls("vaisman", "quadric:6", 8) == 3
    # 181 ddbar-stencil rows a sample: 5 samples fit one block, 8 take two
    assert jet_calls("ricci-flat", "gr24", 4) == jet_calls("ricci-flat", "gr24", 5) == 3
    assert jet_calls("ricci-flat", "gr24", 8) == 2 * 3


@pytest.mark.parametrize("suite", FD_SUITES)
def test_only_einstein_weyl_differences_the_full_stencil(monkeypatch, suite):
    """Second differences that only the Kahler form or the complex Hessian read take the ``ddbar`` stencil;
    the Weyl-Ricci algebra of ``einstein-weyl`` reads every ``d_a d_b g`` and takes the full one."""
    stencils, stencil = [], diffgeo._stencil_values

    def recording(f, P, h, second=True, ddbar=False):
        if second:
            stencils.append(ddbar)
        return stencil(f, P, h, second=second, ddbar=ddbar)

    monkeypatch.setattr(diffgeo, "_stencil_values", recording)
    run_suite(suite, "gr24", seed=3, count=2)
    assert set(stencils) == ({False} if suite == "einstein-weyl" else {True}) and len(stencils) == CFG.richardson


@pytest.mark.parametrize("case", ["gr24", "wallach", "quadric:6", "conifold"])
def test_kahler_layer_builds_one_frame_per_point(monkeypatch, case):
    """``ricci-flat`` and ``kahler-einstein`` build one frame per point they evaluate.

    ``ricci-flat`` reads K from the potentials of the cone jet and differences
    ``[log det ddbar K, K]`` as one field: its frames are the samples, then one
    stencil per Richardson level.  ``kahler-einstein`` differences
    ``[log det Hb, log h_delta]`` as one field: the samples, then one stencil
    per level.  Product charts take their jets in closed form from ``z`` and
    build no frame at all.
    """
    frame = charts.Chart._frame
    rows = []
    monkeypatch.setattr(charts.Chart, "_frame", lambda self, z: rows.append(len(z)) or frame(self, z))
    m, levels = 20, CFG.richardson
    for suite, stencils, d in (("ricci-flat", 1, 2), ("kahler-einstein", 1, 0)):
        rows.clear()
        run_suite(suite, case, seed=3, count=m)
        S = verify._rows(2 * resolve_case(case).n_z + d, ddbar=True)
        assert sorted(rows) == ([] if case == "conifold" else [m] + [m * S] * (stencils * levels)), suite


@pytest.mark.parametrize("case, count, blocks", [("quadric:6", 4, 1), ("quadric:6", 8, 2), ("conifold", 15, 2)])
def test_einstein_weyl_inverts_each_block_metric_once(monkeypatch, case, count, blocks):
    """``norm2``, both Ricci paths and ``D g`` share one ``np.linalg.inv`` per block of samples."""
    inverted = []
    inv = np.linalg.inv

    def counting(a):
        inverted.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    monkeypatch.setattr(verify, "_CHUNK_ROWS", 1024)
    rep = run_suite("einstein-weyl", case, seed=3, count=count)
    assert rep.verdict and len(inverted) == blocks, inverted


@pytest.mark.parametrize("suite, case", [("lck", "grassmann:4:2"), ("ricci-flat", "gr24"),
                                         ("einstein-weyl", "quadric:6"), ("vaisman", "flag:A:3:1,2"),
                                         ("embedding", "grassmann:4:2"),
                                         ("embedding", "quadric:6"), ("embedding", "conifold")])
def test_blocks_of_one_sample_give_the_same_report(monkeypatch, suite, case):
    """The block size is not visible in a report: one sample per block and 1024-row blocks
    give bit-identical residuals to the default blocks."""
    default = run_suite(suite, case, seed=5)
    for rows in (1, 1024):
        monkeypatch.setattr(verify, "_CHUNK_ROWS", rows)
        other = run_suite(suite, case, seed=5)
        assert other.verdict == default.verdict and _worst_margin(other) == _worst_margin(default)
        assert [(r.name, r.max, r.mean) for r in other.residuals] == \
            [(r.name, r.max, r.mean) for r in default.residuals], rows
    one = run_suite(suite, case, seed=5, count=1)
    pairwise = {"injectivity_separation"}          # needs two samples
    assert one.count == 1 and [r.name for r in one.residuals] == [r.name for r in default.residuals
                                                                  if r.name not in pairwise]


@pytest.mark.parametrize("suite", ["kahler-einstein", "ricci-flat"])
def test_full_flag_curvature_suites_pass(suite):
    """fullflag:A:3 failed these at seed 7 by 2.05x and 7.82x under nested finite differences."""
    rep = run_suite(suite, "fullflag:A:3", seed=7)
    assert rep.verdict


@pytest.mark.slow
def test_fullflag_a5_lck_passes_with_margin_over_seeds():
    """fullflag:A:5 in the sampling box: ``lee_closed`` read 2.65x its tolerance at seed 3 while the cone
    stencil of ``lck`` ran at a step of its own, 2.5x the Hessian step."""
    _assert_passes_over_seeds("lck", "fullflag:A:5")


def _fresh(*argv, **env) -> str:
    """Standard output of ``python argv`` in a fresh interpreter with this checkout's flagcones.

    The caller's ``MALLOC_*`` and ``GLIBC_TUNABLES`` settings are left out; ``env`` is added.
    """
    src = os.path.dirname(os.path.dirname(verify.__file__))
    base = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env={**base, **env}, capture_output=True, text=True,
                          check=True).stdout


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")


@glibc_only
def test_finite_difference_suites_keep_the_heap_top_resident():
    """From the second call on, a suite call finds its temporaries' pages already mapped.

    Without the heap setting glibc trims them at the end of each call, and
    ``ricci-flat`` gr24 faults about 1,900 pages back in on every call.
    """
    code = ("import resource\n"
            "from flagcones.verify import run_suite\n"
            "def faults():\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_suite('ricci-flat', 'gr24')\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(*[faults() for _ in range(5)])")
    counts = [int(c) for c in _fresh("-c", code).split()]
    assert max(counts[1:]) < 50, counts


def test_the_heap_setting_waits_for_a_finite_difference_suite():
    """Importing the package and the console, or running the embedding suite, leaves the allocator alone."""
    code = ("import flagcones, flagcones.cli\n"
            "from flagcones.verify import _keep_heap_top, run_suite\n"
            "run_suite('embedding', 'gr24')\n"
            "print(_keep_heap_top.cache_info().currsize)\n"
            "run_suite('lck', 'hopf:cp1', count=2)\n"
            "print(_keep_heap_top.cache_info().currsize)")
    assert _fresh("-c", code).split() == ["0", "1"]


@glibc_only
@pytest.mark.parametrize("env, expected", [
    ({}, "True"), ({"MALLOC_TOP_PAD_": "0"}, "False"), ({"MALLOC_TRIM_THRESHOLD_": "131072"}, "False"),
    ({"GLIBC_TUNABLES": "glibc.malloc.top_pad=0"}, "False"),
], ids=["default", "top_pad", "trim_threshold", "tunables"])
def test_a_users_malloc_settings_take_precedence(env, expected):
    """The helper calls mallopt (and returns True) only when the process sets no malloc parameter of its own."""
    assert _fresh("-c", "from flagcones.verify import _keep_heap_top; print(_keep_heap_top())",
                  **env).strip() == expected


@pytest.mark.parametrize("suite, case", [("ricci-flat", "gr24"), ("einstein-weyl", "quadric:6")])
def test_the_heap_setting_changes_no_value(suite, case):
    """The deterministic console report is byte-identical with the heap setting and without it."""
    argv = ("-m", "flagcones.cli", "verify", "--case", case, "--suite", suite, "--deterministic")
    assert _fresh(*argv) == _fresh(*argv, MALLOC_TOP_PAD_="0")


def _worst_margin(rep):
    return max(r.max / r.tolerance for r in rep.residuals if not r.advisory)


# The positive cells of the benchmark's `jets` workload, gr24 `einstein-weyl`
# (a wedge chart), the curvature cells whose inner Hessians are analytic on
# the largest charts, the full-flag `einstein-weyl` cells and the partial
# flags of the block chart.
ANALYTIC_CELLS = [("einstein-weyl", "quadric:5"), ("einstein-weyl", "quadric:6"), ("einstein-weyl", "conifold"),
                  ("einstein-weyl", "gr24"), ("vaisman", "quadric:6"), ("ricci-flat", "conifold"),
                  ("kahler-einstein", "fullflag:A:3"), ("ricci-flat", "fullflag:A:3"),
                  ("ricci-flat", "grassmann:4:2"), ("ricci-flat", "quadric:8"),
                  ("einstein-weyl", "fullflag:A:3"), ("einstein-weyl", "wallach")]
ANALYTIC_CELLS += [(suite, case) for case in ("flag:A:3:1,2", "flag:A:3:1,3")
                   for suite in ("einstein-weyl", "ricci-flat", "kahler-einstein")]


@pytest.mark.slow
@pytest.mark.parametrize("suite, case", ANALYTIC_CELLS)
def test_analytic_cells_pass_with_margin_over_seeds(suite, case):
    _assert_passes_over_seeds(suite, case)


# The whole seed sweep: every suite on every catalog case below, plus the
# level-2 projective line.  The three sweeps above hold their cells under
# their own test ids; `test_catalog_cells_pass_with_margin_over_seeds` runs
# the rest, so each cell runs once.
SWEEP_CASES = ("cp:1", "cp:2", "gr24", "grassmann:4:2", "wallach", "fullflag:A:3", "flag:A:3:1,2",
               "flag:A:3:1,3", "quadric:5", "quadric:6", "quadric:8", "conifold")
SWEEP_CELLS = [(suite, case, 1) for suite in verify.SUITES for case in SWEEP_CASES] + [("embedding", "cp:1", 2)]
# Flags with several generators have no embedding module yet.
NO_EMBEDDING = ("wallach", "fullflag:A:3", "flag:A:3:1,2", "flag:A:3:1,3")
SWEPT_ABOVE = ([(suite, case, 1) for suite, case in MINORS_CELLS + ANALYTIC_CELLS]
               + [("embedding", case, ell) for case, ell in EMBEDDING_CELLS])


def test_seed_sweep_runs_every_cell_once():
    assert len(set(SWEPT_ABOVE)) == len(SWEPT_ABOVE) and set(SWEPT_ABOVE) <= set(SWEEP_CELLS)
    assert len(set(SWEEP_CELLS)) == len(SWEEP_CELLS) == 6 * 12 + 1


@pytest.mark.slow
@pytest.mark.parametrize("suite, case, ell", [cell for cell in SWEEP_CELLS if cell not in SWEPT_ABOVE])
def test_catalog_cells_pass_with_margin_over_seeds(monkeypatch, suite, case, ell):
    """Seeds 0-7 pass with margin at most 0.5; a case with no embedding module says so before any evaluation."""
    if suite == "embedding" and case in NO_EMBEDDING:
        monkeypatch.setattr(verify, "remmert", lambda *args: pytest.fail("evaluated before refusing"))
        with pytest.raises(ConfigurationError):
            run_suite(suite, case, seed=0, ell=ell)
        return
    _assert_passes_over_seeds(suite, case, ell)


@pytest.mark.slow
def test_einstein_weyl_conifold_control_fails_over_seeds():
    """The `jets` control: b = 1 on the conifold fails by at least 100x at seeds 0-7."""
    for seed in range(8):
        rep = run_suite("einstein-weyl", "conifold", seed=seed, b=Q(1))
        assert not rep.verdict and _worst_margin(rep) >= 100, (seed, _worst_margin(rep))
