"""Command-line interface: subcommands, exit codes, deterministic JSON."""
import json
import os
import subprocess
import sys

import pytest

from flagcones import cli
from flagcones.charts import catalog_ids
from flagcones.cli import main
from flagcones.diffgeo import ChartDegeneracyError, FDConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lie_grassmannian(capsys):
    code, out, _ = run_cli(capsys, "lie", "--series", "A", "--rank", "3", "--theta", "1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["fano_index"] == 4
    assert doc["delta_pairings"] == {"2": "4"}


def test_lie_full_flag(capsys):
    code, out, _ = run_cli(capsys, "lie", "--series", "A", "--rank", "2", "--theta", "")
    assert code == 0
    assert json.loads(out)["fano_index"] == 2


def test_lie_bad_theta_exits_two(capsys):
    code, _, err = run_cli(capsys, "lie", "--series", "A", "--rank", "2", "--theta", "5")
    assert code == 2
    assert "theta" in err


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    rows = {r["case"]: r for r in doc["catalog"]}
    assert rows["conifold"]["ricci_flat_exponent"] == "2/3"
    assert rows["gr24"]["fano_index"] == 4
    assert doc["patterns"] == catalog_ids() and "flag:A:n:k1,...,kr" in doc["patterns"]


@pytest.mark.parametrize("case", ["flag:A:3:0", "flag:A:3:4", "flag:A:3:2,2", "flag:A:3:", "flag:B:3:1"])
def test_malformed_flag_case_exits_two(capsys, case):
    code, _, err = run_cli(capsys, "potential", "--case", case, "--w", "1")
    assert code == 2
    assert "case id" in err


def test_potential_eval(capsys):
    code, out, _ = run_cli(capsys, "potential", "--case", "hopf:cp1", "--z", "1", "--w", "1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.0) < 1e-12


def test_potential_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "potential", "--case", "gr24", "--z", "1,2", "--w", "1")
    assert code == 2


def test_potential_zero_fiber_exits_two(capsys):
    """w = 0 is off the chart: no -Infinity log value, the same exit code as ``embed``."""
    code, out, err = run_cli(capsys, "potential", "--case", "cp:1", "--w", "0")
    assert code == 2 and out == ""
    assert "fiber coordinate" in err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "vaisman",
                           "--seed", "7", "--samples", "5", "--deterministic")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_fail_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "conifold", "--suite", "einstein-weyl",
                           "--b", "1", "--samples", "4", "--deterministic")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_verify_unknown_case_exit_two(capsys):
    code, _, _ = run_cli(capsys, "verify", "--case", "mystery:3", "--suite", "vaisman")
    assert code == 2


def test_verify_zero_samples_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "vaisman",
                           "--samples", "0")
    assert code == 2
    assert "sample count" in err


@pytest.mark.parametrize("ell", ["0", "-2"])
def test_verify_nonpositive_ell_exits_two(capsys, ell):
    """A bundle level below 1 is a configuration error even with explicit exponents, named before any work."""
    code, _, err = run_cli(capsys, "verify", "--case", "gr24", "--suite", "ricci-flat",
                           "--bundle", "1", "--ell", ell)
    assert code == 2
    assert err.startswith("error: ell ")


@pytest.mark.parametrize("flag, value, field", [("--richardson", "-1", "richardson"),
                                                ("--richardson", "0", "richardson"),
                                                ("--fd-step", "0", "base_step"),
                                                ("--fd-step", "inf", "base_step"),
                                                ("--fd-step", "nan", "base_step")])
def test_verify_invalid_fd_config_exit_two(capsys, flag, value, field):
    code, _, err = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "lck",
                           "--samples", "2", f"{flag}={value}")
    assert code == 2
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("suite, value", [("lck", "0"), ("lck", "-1e-3"), ("lck", "nan"), ("lck", "inf"),
                                          ("embedding", "inf")])
def test_verify_invalid_tolerance_exit_two(capsys, suite, value):
    code, _, err = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", suite,
                           "--samples", "2", f"--tol={value}")
    assert code == 2
    assert err.startswith("error: tolerance")


def test_verify_chart_degeneracy_exit_one(capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise ChartDegeneracyError("sample too close to the w = 0 fiber")

    monkeypatch.setattr(cli, "run_suite", degenerate)
    code, _, err = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "vaisman")
    assert code == 1
    assert err.startswith("error: sample too close")


def test_embed_nonterminating_word_is_an_error_message(capsys):
    """A point far out on quadric:5 leaves a float series residue: exit 1 with ``error:``, no traceback."""
    z = ("161009.57671534465-1401520.2149174279i,-585528.8241233366+502682.8498748657i,"
         "-1341219.714076669+989713.0332858049i")
    code, _, err = run_cli(capsys, "embed", "--case", "quadric:5", "--z", z)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_deterministic_bytes(capsys, tmp_path):
    args = ["verify", "--case", "hopf:cp1", "--suite", "lck", "--seed", "11",
            "--samples", "5", "--deterministic"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json", str(f1)]) == 0
    assert main(args + ["--json", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_timestamp_present_without_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "vaisman",
                           "--samples", "4")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_embed_gr24(capsys):
    code, out, _ = run_cli(capsys, "embed", "--case", "gr24", "--lambda", "0.5",
                           "--z", "0.4+0.1j,0.2,-0.3j,0.1", "--w", "1.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_kind"] == "plucker"
    assert doc["residual"] < 1e-12
    assert len(doc["representative"]) == 6
    assert 0.5 - 1e-12 < doc["norm"] <= 1.0 + 1e-12
    assert type(doc["branch"]) is int


def test_embed_complex_lambda(capsys):
    code, out, _ = run_cli(capsys, "embed", "--case", "conifold", "--lambda", "0.3+0.2j",
                           "--z", "0.5,0.2j", "--w", "2.0")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12


@pytest.mark.parametrize("argv", [("verify", "--suite", "embedding"), ("embed", "--z", "0.3")])
def test_fractional_exponent_on_a_projective_line_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--case", "cp:1", "--bundle", "3/2", *argv[1:])
    assert code == 2 and out == "" and "integer exponents" in err


def test_verify_fd_flags_and_tol(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "lck",
                           "--samples", "4", "--fd-step", "2e-4", "--richardson", "2",
                           "--tol", "1e-4", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["fd"]["base_step"] == 2e-4
    assert all(r["tolerance"] == 1e-4 for r in doc["report"]["residuals"])


def test_verify_embedding_tol_overrides_the_algebraic_residual(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "gr24", "--suite", "embedding", "--seed", "7",
                           "--tol", "1e-3", "--deterministic")
    assert code == 0
    report = json.loads(out)["report"]
    gates = {r["name"]: r["tolerance"] for r in report["residuals"]}
    assert report["sample_count"] == 50
    assert gates["plucker_residual"] == 0.001 and gates["norm_matches_potential"] == 1e-12


def test_fd_step_at_default_echoes_default_config(capsys):
    """``--fd-step`` scales the ``FDConfig`` defaults, so the default base step gives the default config."""
    code, out, _ = run_cli(capsys, "verify", "--case", "hopf:cp1", "--suite", "lck",
                           "--samples", "2", "--fd-step", "1e-4", "--deterministic")
    assert code == 0
    assert json.loads(out)["config"]["fd"] == FDConfig().echo()


def test_importing_the_library_does_not_load_scipy():
    """The library never loads scipy, and importing it or integrating the Stenzel potential loads no ``numpy.random``.

    ``stenzel_potential`` integrates by a Gauss-Legendre rule, and group words
    are nilpotent series, so the embedding suite never loads scipy either.
    ``numpy.random`` loads OpenSSL through ``secrets``, so only sampling should load it.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = "print([m for m in ('scipy', 'numpy.random') if m in sys.modules])"
    stenzel = ("import sys, flagcones, flagcones.cli\n"
               "from flagcones.hvcone import stenzel_potential\n"
               "assert stenzel_potential(1.0, 2.0) > stenzel_potential(1.0, 1.0) > 0\n" + loaded)
    embedding = ("import sys\n"
                 "from flagcones.verify import run_suite\n"
                 "assert all(run_suite('embedding', f'quadric:{n}', seed=s).verdict\n"
                 "           for n in (5, 6, 7, 8, 10) for s in range(8))\n"
                 "print('scipy' in sys.modules)")
    for code, expected in ((stenzel, "[]"), (embedding, "False")):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected, out


@pytest.mark.parametrize("argv, fragment", [
    (["lie", "--series", "A", "--rank", "2", "--theta", "1,x"], "malformed theta list '1,x'"),
    (["potential", "--case", "cp:2", "--z", "0.1,abc"], "malformed complex number 'abc'"),
    (["potential", "--case", "cp:2", "--bundle", "1/x"], "malformed bundle exponents '1/x'"),
    (["potential", "--case", "cp:2", "--w", "abc"], "malformed complex number 'abc'"),
    (["embed", "--case", "cp:2", "--w", "abc"], "malformed complex number 'abc'"),
    (["embed", "--case", "cp:2", "--lambda", "xyz"], "malformed complex number 'xyz'"),
    (["verify", "--case", "cp:2", "--suite", "embedding", "--lambda", "xyz"], "malformed complex number 'xyz'"),
    (["potential", "--case", "cp:2", "--z", "0.1,nan"], "non-finite complex number 'nan'"),
    (["potential", "--case", "cp:2", "--z", "1+nanj,0"], "non-finite complex number '1+nanj'"),
    (["potential", "--case", "cp:2", "--z", "INF,0"], "non-finite complex number 'INF'"),
    (["potential", "--case", "cp:2", "--w", "nan"], "non-finite complex number 'nan'"),
    (["embed", "--case", "cp:2", "--w", "1+nanj"], "non-finite complex number '1+nanj'"),
    (["potential", "--case", "cp:2", "--w", "INF"], "non-finite complex number 'INF'"),
    (["embed", "--case", "cp:2", "--lambda", "nan"], "non-finite complex number 'nan'"),
    (["verify", "--case", "cp:2", "--suite", "embedding", "--lambda", "1+nanj"], "non-finite complex number '1+nanj'"),
    (["verify", "--case", "cp:2", "--suite", "embedding", "--lambda", "INF"], "non-finite complex number 'INF'"),
], ids=["theta", "z", "bundle", "potential_w", "embed_w", "embed_lambda", "verify_lambda",
        "z_nan", "z_nanj", "z_inf", "potential_w_nan", "embed_w_nanj", "potential_w_inf",
        "embed_lambda_nan", "verify_lambda_nanj", "verify_lambda_inf"])
def test_malformed_input_exits_two_naming_the_text(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and fragment in err
