"""Command-line frontend: catalog browsing, potentials, suites, embeddings.

Exit codes: 0 on success (and passing verification), 1 when a verification
suite fails, a sample point hits a chart degeneracy or a group word does not
terminate, 2 on configuration errors.  All machine output is UTF-8 JSON with
snake_case keys; rationals are serialised as "p/q" strings.  With
``--deterministic`` the report omits the timestamp so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .charts import (DomainError, canonical_exponents, catalog_ids, dhomothetic_constant,
                     make_spec, potential_eval, resolve_case, ricci_flat_exponent)
from .diffgeo import ChartDegeneracyError, FDConfig
from .hvcone import GammaGroup, algebraic_residual, gamma_canonicalize, remmert
from .reps import ExactModeError
from .roots import ConfigurationError, build_root_system, flag
from .verify import SUITES, run_suite


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _parse_theta(text: str):
    text = (text or "").strip()
    if not text:
        return set()
    try:
        return {int(t) for t in text.split(",") if t.strip()}
    except ValueError as exc:
        raise ConfigurationError(f"malformed theta list {text!r}") from exc


def _parse_complex(text: str) -> complex:
    """One finite complex number, ``i`` or ``j`` as the imaginary unit."""
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ConfigurationError(f"malformed complex number {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigurationError(f"non-finite complex number {text!r}")
    return value


def _fraction(text, what: str):
    """``text`` as a rational (None stays None); a malformed one or a zero denominator is a configuration error."""
    if text is None:
        return None
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"malformed {what} {text!r}") from exc


def _parse_bundle(text):
    return None if text is None else [_fraction(t, "bundle exponents") for t in text.split(",") if t.strip()]


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _fd_config(args) -> FDConfig:
    kwargs = {"base_step": args.fd_step, "richardson": args.richardson}
    return FDConfig(**{k: v for k, v in kwargs.items() if v is not None})


def cmd_lie(args) -> int:
    rs = build_root_system(args.series, args.rank)
    fd = flag(rs, _parse_theta(args.theta))
    payload = {
        "series": rs.series,
        "rank": rs.rank,
        "theta": sorted(fd.theta),
        "picard_generators": list(fd.complement),
        "positive_roots": len(rs.positive_roots),
        "dim_complex": fd.dim_complex,
        "delta_p": [_frac(c) for c in fd.delta_p.coeffs],
        "delta_pairings": {str(j): _frac(p) for j, p in zip(fd.complement, fd.delta_pairings)},
        "fano_index": fd.fano_index,
    }
    _emit(payload, args.json)
    return 0


def cmd_catalog(args) -> int:
    rows = []
    for case in ["cp:1", "cp:2", "cp:3", "gr24", "grassmann:4:2", "wallach", "fullflag:A:3", "flag:A:3:1,2",
                 "flag:A:3:1,3", "quadric:5", "quadric:6", "quadric:7", "quadric:8", "conifold"]:
        chart = resolve_case(case)
        rows.append({
            "case": case,
            "resolves_to": chart.name,
            "base_dim_complex": chart.m,
            "chart_coordinates": chart.n_z,
            "picard_rank": chart.n_gen,
            "fano_index": chart.fano,
            "anticanonical_pairings": list(chart.delta_pairings),
            "canonical_exponents": [_frac(e) for e in canonical_exponents(chart)],
            "ricci_flat_exponent": _frac(ricci_flat_exponent(chart)),
            "sasaki_rescale_constant": _frac(dhomothetic_constant(chart)),
        })
    _emit({"catalog": rows, "patterns": catalog_ids()}, args.json)
    return 0


def _chart_point(args, spec):
    """``(z, w)`` from ``--z`` (the origin by default) and ``--w``."""
    z = [_parse_complex(t) for t in args.z.split(",") if t.strip()] if args.z else [0j] * spec.chart.n_z
    if len(z) != spec.chart.n_z:
        raise ConfigurationError(f"{spec.chart.name} needs {spec.chart.n_z} chart coordinates")
    return z, _parse_complex(args.w)


# A point far out overflows numpy on its way to the potential or norm; the
# finiteness checks behind them report it as one domain error (exit 2).
_FAR_POINTS = np.errstate(over="ignore", invalid="ignore")


@_FAR_POINTS
def cmd_potential(args) -> int:
    spec = make_spec(args.case, exponents=_parse_bundle(args.bundle), ell=args.ell,
                     b=_fraction(args.b, "outer exponent b"))
    z, w = _chart_point(args, spec)
    value = potential_eval(spec, z, w)
    payload = {
        "case": args.case,
        "exponents": [_frac(e) for e in spec.exponents],
        "b": _frac(spec.b),
        "z": [[c.real, c.imag] for c in z],
        "w": [w.real, w.imag],
        "value": value,
        "log_value": float(np.log(value)),
    }
    _emit(payload, args.json)
    return 0


def cmd_verify(args) -> int:
    cfg = _fd_config(args)
    lam = _parse_complex(args.lam)
    report = run_suite(
        args.suite, args.case, seed=args.seed, count=args.samples, cfg=cfg,
        exponents=_parse_bundle(args.bundle), ell=args.ell,
        b=_fraction(args.b, "outer exponent b"), lam=lam, tolerance=args.tol,
    )
    payload = {
        "artifact_version": __version__,
        "config": {
            "case": args.case,
            "suite": args.suite,
            "seed": args.seed,
            "samples": report.count,
            "bundle": [_frac(e) for e in _parse_bundle(args.bundle)] if args.bundle else None,
            "ell": args.ell,
            "b": args.b,
            "lambda": [lam.real, lam.imag],
            "fd": report.fd,
            "tolerance_override": args.tol,
        },
        "report": report.to_dict(),
        "verdict": report.verdict,
    }
    if not args.deterministic:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(payload, args.json)
    return 0 if report.verdict else 1


@_FAR_POINTS
def cmd_embed(args) -> int:
    spec = make_spec(args.case, exponents=_parse_bundle(args.bundle), ell=args.ell)
    lam = _parse_complex(args.lam)
    z, w = _chart_point(args, spec)
    module, _ = spec.chart.embedding_rep(spec.exponents)
    v = remmert(spec, z, w)
    norm = np.sqrt(module.norm_sq(v))
    point = gamma_canonicalize(GammaGroup(lam), v, norm=norm)
    name, resid = algebraic_residual(spec, v / norm)
    payload = {
        "case": args.case,
        "lambda": [lam.real, lam.imag],
        "module_dim": module.dim,
        "representative": [[c.real, c.imag] for c in point.representative],
        "branch": point.branch,
        "norm": point.norm,
        "residual_kind": name,
        "residual": float(resid),
        "potential": float(spec.K1(np.asarray(z, dtype=complex), w)),
    }
    _emit(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flagcones",
                                 description="potentials, structure verification and cone embeddings "
                                             "for elliptic bundles over flag manifolds")
    sub = ap.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie", help="root-system and parabolic data")
    lie.add_argument("--series", required=True, choices=list("ABCDabcd"))
    lie.add_argument("--rank", required=True, type=int)
    lie.add_argument("--theta", default="", help="comma-separated simple-root indices inside the parabolic")
    lie.add_argument("--json", default=None)
    lie.set_defaults(func=cmd_lie)

    cat = sub.add_parser("catalog", help="list catalog cases")
    cat.add_argument("--json", default=None)
    cat.set_defaults(func=cmd_catalog)

    pot = sub.add_parser("potential", help="evaluate a cone potential")
    pot.add_argument("--case", required=True)
    pot.add_argument("--bundle", default=None, help="comma-separated exponents per Picard generator")
    pot.add_argument("--ell", type=int, default=1, help="power of the maximal canonical root")
    pot.add_argument("--b", default=None, help="outer cone exponent (rational)")
    pot.add_argument("--z", default=None, help="comma-separated complex chart coordinates")
    pot.add_argument("--w", default="1", help="fiber coordinate")
    pot.add_argument("--json", default=None)
    pot.set_defaults(func=cmd_potential)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--case", required=True)
    ver.add_argument("--suite", required=True, choices=list(SUITES))
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--bundle", default=None)
    ver.add_argument("--ell", type=int, default=1)
    ver.add_argument("--b", default=None)
    ver.add_argument("--fd-step", dest="fd_step", type=float, default=None)
    ver.add_argument("--richardson", type=int, default=None)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--lambda", dest="lam", default="0.5")
    ver.add_argument("--json", default=None)
    ver.add_argument("--deterministic", action="store_true")
    ver.set_defaults(func=cmd_verify)

    emb = sub.add_parser("embed", help="map a chart point into the Hopf quotient")
    emb.add_argument("--case", required=True)
    emb.add_argument("--bundle", default=None)
    emb.add_argument("--ell", type=int, default=1)
    emb.add_argument("--lambda", dest="lam", default="0.5")
    emb.add_argument("--z", default=None)
    emb.add_argument("--w", default="1")
    emb.add_argument("--json", default=None)
    emb.set_defaults(func=cmd_embed)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (ChartDegeneracyError, ExactModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
