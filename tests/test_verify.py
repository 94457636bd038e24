"""Verification suites: positive cases, negative controls, reproducibility."""
from fractions import Fraction as Q

import numpy as np
import pytest

from flagcones.charts import make_spec
from flagcones.diffgeo import FDConfig
from flagcones.roots import ConfigurationError
from flagcones.verify import (check_cone_ricci_flat, check_einstein_weyl,
                              check_kahler_einstein_base, check_lck,
                              check_vaisman, run_suite, sample_points)

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
        samples = sample_points(spec, 7, 8, base_only=True)
        rep = check_kahler_einstein_base(case, samples, CFG)
        assert rep.verdict, case


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


@pytest.mark.parametrize("count", [0, -3])
def test_run_suite_rejects_nonpositive_count(count):
    with pytest.raises(ConfigurationError):
        run_suite("vaisman", "hopf:cp1", count=count)


def test_run_suite_defaults_ricci_flat_exponent():
    rep = run_suite("ricci-flat", "conifold", seed=3, count=4)
    assert rep.verdict
    assert any("b = 2/3" in n for n in rep.notes)


def test_embedding_suite():
    rep = run_suite("embedding", "gr24", seed=7, count=12, lam=0.3 + 0.2j)
    assert rep.verdict
    names = {r.name for r in rep.residuals}
    assert "plucker_residual" in names and "gamma_equivariance" in names


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


# The cells of the benchmark's `minors` workload: every wedge-chart potential
# goes through charts.gram_minors, so this sweep guards its float rounding.
MINORS_CELLS = [("lck", "gr24"), ("ricci-flat", "gr24"), ("kahler-einstein", "gr24"),
                ("lck", "grassmann:4:2"), ("lck", "wallach"), ("vaisman", "wallach"),
                ("kahler-einstein", "wallach"), ("ricci-flat", "wallach")]


@pytest.mark.slow
@pytest.mark.parametrize("suite, case", MINORS_CELLS)
def test_wedge_cells_pass_with_margin_over_seeds(suite, case):
    """Seeds 0-7 all pass with the worst residual at most half its tolerance."""
    for seed in range(8):
        rep = run_suite(suite, case, seed=seed)
        margin = max(r.max / r.tolerance for r in rep.residuals if not r.advisory)
        assert rep.verdict and margin <= 0.5, (seed, margin)


# The cells of the benchmark's `embedding` workload: they share the cached
# embedding module and word matrices of each chart.
EMBEDDING_CELLS = [("quadric:8", 1), ("quadric:6", 1), ("conifold", 1), ("gr24", 1),
                   ("grassmann:4:2", 1), ("cp:2", 1), ("cp:1", 2)]


@pytest.mark.slow
@pytest.mark.parametrize("case, ell", EMBEDDING_CELLS)
def test_embedding_cells_pass_with_margin_over_seeds(case, ell):
    """Seeds 0-7 all pass with the worst residual at most half its tolerance."""
    for seed in range(8):
        rep = run_suite("embedding", case, seed=seed, ell=ell)
        margin = max(r.max / r.tolerance for r in rep.residuals if not r.advisory)
        assert rep.verdict and margin <= 0.5, (seed, margin)
