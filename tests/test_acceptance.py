"""End-to-end acceptance gate.

Ten numbered criteria, each with its stated tolerance and time budget.
Every test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""
import json
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from flagcones.charts import generic_h, make_spec, resolve_case
from flagcones.cli import main as cli_main
from flagcones.diffgeo import FDConfig
from flagcones.exact import QC
from flagcones.hvcone import (GammaGroup, casimir_quadric_residual,
                              eguchi_hanson_Upsilon,
                              eguchi_hanson_hessian_field, hopf_distance,
                              kodaira_embedding, plucker_residual,
                              quadric_residual, determinant_residual, remmert,
                              remmert_norm_sq, stenzel_fprime,
                              stenzel_ode_residual)
from flagcones.reps import casimir_matrix, sl2_module
from flagcones.roots import build_root_system, casimir_eigenvalue, flag
from flagcones.verify import run_suite, sample_points
from test_hvcone import eguchi_hanson_points, relative_ricci
from test_roots import oracle_fano

CFG = FDConfig()


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            status = "PASS"
            print(f"[acceptance] {self.name}: {status} ({self.elapsed:.1f}s / budget {self.seconds}s)")
            assert self.elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        else:
            print(f"[acceptance] {self.name}: FAIL ({self.elapsed:.1f}s)")
        return False


def test_criterion_01_fano_index_table():
    with Budget("1 fano-index table", 1.0):
        for n in range(1, 9):
            rs = build_root_system("A", n)
            for k in range(1, n + 1):
                assert flag(rs, set(range(1, n + 1)) - {k}).fano_index == n + 1
        assert flag(build_root_system("A", 3), {1, 3}).fano_index == 4
        for n in (1, 2, 3, 4):
            assert flag(build_root_system("A", n), set()).fano_index == 2
        for m in (1, 2, 3, 5):
            assert flag(build_root_system("A", m), set(range(2, m + 1))).fano_index == m + 1
        # independent gcd oracle for the rank-four even quadric
        assert flag(build_root_system("D", 4), {2, 3, 4}).fano_index == 6 == oracle_fano("D", 4, (2, 3, 4))


def test_criterion_02_potential_cross_validation():
    cases = ["cp:1", "cp:2", "gr24", "grassmann:4:2", "wallach", "quadric:5",
             "quadric:6", "quadric:8", "conifold"]
    with Budget("2 potential cross-validation", 10.0):
        rng = np.random.default_rng(202)
        for case in cases:
            chart = resolve_case(case)
            for _ in range(50):
                z = rng.normal(size=chart.n_z) + 1j * rng.normal(size=chart.n_z)
                hc = np.ravel(np.asarray(chart.h_closed(z)))
                hg = np.ravel(generic_h(chart, z))
                assert np.allclose(hc, hg, rtol=1e-13), case
        # exact agreement on rational inputs
        for case in ["gr24", "wallach", "quadric:6", "conifold"]:
            chart = resolve_case(case)
            z = tuple(QC(Q(int(rng.integers(-5, 6)), 4), Q(int(rng.integers(-5, 6)), 3))
                      for _ in range(chart.n_z))
            assert chart.h_closed_exact(z) == tuple(
                chart.generic_h(g, z, exact=True) for g in range(chart.n_gen))


def test_criterion_03_lck_and_vaisman_suites():
    cases = ["hopf:cp1", "hopf:cp2", "gr24", "wallach", "quadric:6", "conifold"]
    with Budget("3 lck + vaisman suites", 120.0):
        for case in cases:
            lck = run_suite("lck", case, seed=7, count=20, tolerance=1e-5)
            assert lck.verdict, (case, [(r.name, r.max) for r in lck.residuals])
            vai = run_suite("vaisman", case, seed=7, count=20, tolerance=1e-5)
            assert vai.verdict, case
        # negative controls fail by at least two orders of magnitude
        from flagcones.verify import check_lck, check_vaisman

        spec = make_spec("hopf:cp1")
        samples = sample_points(spec, 7, 20)
        bad = check_lck(spec, samples, CFG, corrupt_theta=1.1)
        rec = next(r for r in bad.residuals if r.name == "lck_two_form")
        assert rec.max > 100 * rec.tolerance
        badv = check_vaisman(spec, samples, CFG, metric="cone")
        assert badv.residuals[0].max > 100 * badv.residuals[0].tolerance


def test_criterion_04_kahler_einstein_base():
    with Budget("4 Kahler-Einstein base", 60.0):
        for case in ["cp:1", "gr24", "wallach"]:
            rep = run_suite("kahler-einstein", case, seed=7, count=20, tolerance=1e-4)
            assert rep.verdict, (case, [(r.name, r.max) for r in rep.residuals])


def test_criterion_05_ricci_flat_cones():
    with Budget("5 Ricci-flat cones", 120.0):
        for case, ell, b in [("cp:1", 1, None), ("cp:2", 1, None),
                             ("cp:1", 2, Q(1, 2)), ("conifold", 1, Q(2, 3))]:
            rep = run_suite("ricci-flat", case, ell=ell, b=b, seed=7, count=20, tolerance=1e-4)
            assert rep.verdict, case
        control = run_suite("ricci-flat", "conifold", b=Q(1), seed=7, count=20)
        assert not control.verdict
        assert control.residuals[0].max > 100 * control.residuals[0].tolerance


def test_criterion_06_einstein_weyl():
    with Budget("6 Einstein-Weyl", 300.0):
        for case in ["hopf:cp2", "conifold"]:
            rep = run_suite("einstein-weyl", case, seed=7, count=10, tolerance=1e-4)
            assert rep.verdict, (case, [(r.name, r.max) for r in rep.residuals])
            names = {r.name for r in rep.residuals}
            assert {"einstein_weyl_ricci", "weyl_ricci_curvature", "higgs_compatibility"} <= names
        control = run_suite("einstein-weyl", "conifold", b=Q(1), seed=7, count=10)
        assert not control.verdict


def test_criterion_07_hv_residuals():
    with Budget("7 HV residuals", 30.0):
        rng = np.random.default_rng(707)
        # Pluecker on 50 reduction images each
        for n in (3, 4):
            spec = make_spec(f"grassmann:{n}:2")
            for _ in range(50):
                z = rng.normal(size=spec.chart.n_z) + 1j * rng.normal(size=spec.chart.n_z)
                v = remmert(spec, z, complex(rng.normal(), rng.normal()) + 1.5)
                assert plucker_residual(n, 2, list(v / np.linalg.norm(v))) < 1e-10
            from math import comb

            dim = comb(n + 1, 2)
            generic = [plucker_residual(n, 2, list(v / np.linalg.norm(v)))
                       for v in rng.normal(size=(10, dim)) + 1j * rng.normal(size=(10, dim))]
            assert min(generic) > 1e-2
        # quadric membership
        for N in (5, 6, 8):
            spec = make_spec(f"quadric:{N}")
            for _ in range(50):
                z = rng.normal(size=N - 2) + 1j * rng.normal(size=N - 2)
                v = remmert(spec, z, 1.0 + abs(rng.normal()))
                assert quadric_residual(N, v / np.linalg.norm(v)) < 1e-10
            generic = [quadric_residual(N, v / np.linalg.norm(v))
                       for v in rng.normal(size=(10, N)) + 1j * rng.normal(size=(10, N))]
            assert min(generic) > 1e-2
        # conifold determinant
        spec = make_spec("conifold")
        for _ in range(50):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = remmert(spec, z, complex(rng.normal(), rng.normal()) + 1.5)
            assert determinant_residual(v / np.linalg.norm(v)) < 1e-10
        # Casimir quadric, level one and two
        r1 = sl2_module(1)
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert casimir_quadric_residual(r1, v) < 1e-10
        spec2 = make_spec("cp:1", ell=2)
        rep2, _ = spec2.chart.embedding_rep(spec2.exponents)
        for _ in range(50):
            v = remmert(spec2, [complex(rng.normal(), rng.normal())],
                        complex(rng.normal(), rng.normal()) + 1.5)
            assert casimir_quadric_residual(rep2, v) < 1e-10
        generic = [casimir_quadric_residual(rep2, v)
                   for v in rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))]
        assert min(generic) > 1e-2
        # matrix Casimir agrees with the weight formula exactly
        for rep in (sl2_module(1), sl2_module(2)):
            C = casimir_matrix(rep, exact=True)
            c = QC(casimir_eigenvalue(rep.highest_weight))
            for i, row in enumerate(C):
                for j, x in enumerate(row):
                    assert x == (c if i == j else QC(0))


def test_criterion_08_embedding():
    with Budget("8 embedding", 10.0):
        rng = np.random.default_rng(808)
        # exact norm identity on rational samples
        for case, ell in [("gr24", 1), ("quadric:6", 1), ("conifold", 1), ("cp:1", 2)]:
            spec = make_spec(case, ell=ell)
            for _ in range(5):
                z = tuple(QC(Q(int(rng.integers(-5, 6)), 4), Q(int(rng.integers(-5, 6)), 3))
                          for _ in range(spec.chart.n_z))
                w = QC(Q(3, 2), Q(-2, 7))
                assert remmert_norm_sq(spec, z, w, exact=True) == spec.K1(z, w)
        # equivariance + injectivity for both generators
        for lam in (0.5, 0.3 + 0.2j):
            spec = make_spec("hopf:cp1")
            gamma = GammaGroup(lam)
            reps = []
            for _ in range(20):
                z = [complex(rng.normal(), rng.normal())]
                w = complex(rng.normal(), rng.normal()) + 1.5
                h1 = kodaira_embedding(spec, gamma, z, w)
                h2 = kodaira_embedding(spec, gamma, z, lam * w)
                assert hopf_distance(h1, h2) < 1e-9
                reps.append(h1.representative)
            dists = [np.max(np.abs(a - b)) for i, a in enumerate(reps) for b in reps[i + 1:]]
            assert min(dists) > 1e-8


def test_criterion_09_stenzel_eguchi_hanson():
    with Budget("9 Stenzel / smoothed cone", 60.0):
        for eps in (0.5, 1.0, 2.0):
            for t in np.linspace(0.1, 3.0, 16):
                assert abs(stenzel_ode_residual(eps, float(t))) < 1e-8
            assert abs(stenzel_fprime(eps, 1e-7) - eps ** (-2.0 / 3.0)) < 1e-6
        assert eguchi_hanson_Upsilon(0.0) == 1.0
        H = eguchi_hanson_hessian_field(make_spec("cp:1", ell=2))
        assert np.max(relative_ricci(H, eguchi_hanson_points(909, 8, 1.5), CFG)) < 1e-4


def test_criterion_10_determinism_and_exit_codes(tmp_path, capsys):
    with Budget("10 determinism + exit codes", 60.0):
        args = ["verify", "--case", "hopf:cp1", "--suite", "vaisman", "--seed", "7",
                "--samples", "8", "--deterministic"]
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(args + ["--json", str(f1)]) == 0
        assert cli_main(args + ["--json", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert cli_main(["verify", "--case", "conifold", "--suite", "einstein-weyl",
                         "--b", "1", "--samples", "4", "--deterministic",
                         "--json", str(tmp_path / "fail.json")]) == 1
        assert cli_main(["verify", "--case", "mystery:9", "--suite", "vaisman"]) == 2
        assert cli_main(["lie", "--series", "A", "--rank", "2", "--theta", "9"]) == 2
        capsys.readouterr()
        doc = json.loads(f1.read_text())
        assert doc["verdict"] is True and "generated_at" not in doc
