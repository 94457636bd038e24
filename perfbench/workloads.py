"""The benchmark's workloads: fixed lists of public flagcones calls.

A workload is built from a seed into a list of ``Op``s.  Building it
resolves every catalog case and constructs every spec and embedding
module the ops use, which is the work ``setup_s`` times in a fresh
process.  One pass calls every op once, in order, from one caller.

Ops call the library through its module attributes (``verify.run_suite``,
``hvcone.remmert``), so the tracer's wrappers see the benchmark's own
calls too.  The seed reaches the library in two places only: it is
passed to ``run_suite`` as the sample seed, and it seeds the generator of
the Gaussian-rational points of the exact checks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from flagcones import charts, hvcone, verify
from flagcones.exact import QC

# Expected outcome of an op: a positive suite passes, a negative control
# fails by at least CONTROL_FACTOR times its tolerance, an exact identity
# holds.
PASS, CONTROL, EXACT = "pass", "control", "exact"
CONTROL_FACTOR = 100.0


@dataclass(frozen=True)
class Outcome:
    verdict: bool
    samples: int
    margin: float = 0.0                      # worst non-advisory max/tolerance
    residuals: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    id: str
    expect: str
    call: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], List[Op]]
    min_passes: int                          # see ``tail_fraction``

    def tail_fraction(self, ops_per_pass: int) -> Fraction:
        """Highest percentile that leaves ten op calls beyond it in the shortest run.

        A run measures at least ``min_passes`` passes, so this percentile
        always leaves ten or more op calls above it.  Fixing it per
        workload keeps ``op_s_tail`` the same statistic however many
        passes fit into a run.
        """
        n = ops_per_pass * self.min_passes
        return Fraction(n - 10, n)


# ---------------------------------------------------------------------------
# op constructors
# ---------------------------------------------------------------------------

def _suite_op(suite: str, case: str, seed: int, expect: str = PASS, **kwargs) -> Op:
    """One ``run_suite`` call at the suite's default sample count."""
    # run_suite builds its own spec; building it here makes set-up pay
    # for the chart, root data and embedding module as a user would.
    ell, b = kwargs.get("ell", 1), kwargs.get("b")
    if b is None and suite in ("ricci-flat", "einstein-weyl"):
        b = charts.ricci_flat_exponent(charts.resolve_case(case), ell)
    spec = charts.make_spec(case, b=b, ell=ell)
    if suite == "embedding":
        spec.chart.embedding_rep(spec.exponents)
    label = " ".join([suite, case] + [f"{k}={v}" for k, v in sorted(kwargs.items())])

    def call() -> Outcome:
        rep = verify.run_suite(suite, case, seed=seed, **kwargs)
        gated = [r.max / r.tolerance for r in rep.residuals if not r.advisory]
        return Outcome(verdict=rep.verdict, samples=rep.count, margin=max(gated, default=0.0),
                       residuals={r.name: r.max for r in rep.residuals})

    return Op(label, expect, call)


# Coordinates are odd sevenths: never zero and never reducible, so every
# seed gives exact arithmetic of the same size and only the values change.
_NUMERATORS = (-5, -3, -1, 1, 3, 5)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), 7)


def _gaussian_point(rng: random.Random, n: int) -> list:
    return [QC(_rational(rng), _rational(rng)) for _ in range(n)]


def _fiber(rng: random.Random) -> QC:
    return QC(abs(_rational(rng)) + 1, _rational(rng))


def _embedding_spec(case: str, ell: int = 1):
    spec = charts.make_spec(case, ell=ell)
    spec.chart.embedding_rep(spec.exponents)
    return spec


def _generic_h_op(case: str, chart, rng: random.Random, index: int) -> Op:
    """Closed-form potentials against the module-action path, exactly."""
    z = _gaussian_point(rng, chart.n_z)

    def call() -> Outcome:
        return Outcome(verdict=chart.h_closed_exact(z) == charts.generic_h(chart, z, exact=True), samples=1)

    return Op(f"generic_h {case} #{index}", EXACT, call)


def _remmert_op(label: str, spec, rng: random.Random, index: int) -> Op:
    """Squared norm of the reduction image against K_1, exactly."""
    z, w = _gaussian_point(rng, spec.n_z), _fiber(rng)

    def call() -> Outcome:
        return Outcome(verdict=hvcone.remmert_norm_sq(spec, z, w, exact=True) == spec.K1(z, w), samples=1)

    return Op(f"remmert_norm_sq {label} #{index}", EXACT, call)


def _plucker_op(spec, rng: random.Random, index: int) -> Op:
    """Exact Pluecker relations on a grassmann:4:2 reduction image."""
    z, w = _gaussian_point(rng, spec.n_z), _fiber(rng)

    def call() -> Outcome:
        u, _ = hvcone.remmert(spec, z, w, exact=True)
        return Outcome(verdict=hvcone.plucker_residual(4, 2, u) == 0, samples=1)

    return Op(f"plucker_residual grassmann:4:2 #{index}", EXACT, call)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _minors(seed: int) -> List[Op]:
    """Wedge charts: batched k x k minor determinants dominate."""
    cells = [("lck", "gr24"), ("ricci-flat", "gr24"), ("kahler-einstein", "gr24"),
             ("lck", "grassmann:4:2"), ("lck", "wallach"), ("vaisman", "wallach"),
             ("kahler-einstein", "wallach"), ("ricci-flat", "wallach")]
    return [_suite_op(suite, case, seed) for suite, case in cells]


def _jets(seed: int) -> List[Op]:
    """Closed quadric/product potentials: stencils and metric jets dominate."""
    return [
        _suite_op("einstein-weyl", "quadric:5", seed),
        _suite_op("einstein-weyl", "quadric:6", seed),
        _suite_op("einstein-weyl", "conifold", seed),
        _suite_op("einstein-weyl", "conifold", seed, expect=CONTROL, b=Fraction(1)),
        _suite_op("vaisman", "quadric:6", seed),
        _suite_op("ricci-flat", "conifold", seed),
    ]


GENERIC_H_CASES = ("gr24", "grassmann:4:2", "wallach", "fullflag:A:3", "quadric:6", "quadric:8", "conifold")
REMMERT_CASES = (("gr24", 1), ("quadric:6", 1), ("conifold", 1), ("cp:1", 2))
EXACT_POINTS = 8          # rational points per exact check and case


def _embedding(seed: int) -> List[Op]:
    """No finite differences: module construction and exact arithmetic."""
    # The float group action falls back to scipy.linalg.expm, imported
    # lazily, for points whose nilpotent series leaves rounding residue.
    # Importing it here keeps peak memory from depending on whether the
    # seed draws such a point.
    import scipy.linalg  # noqa: F401

    ops = [_suite_op("embedding", case, seed)
           for case in ("quadric:8", "quadric:6", "conifold", "gr24", "grassmann:4:2", "cp:2")]
    ops.append(_suite_op("embedding", "cp:1", seed, ell=2))
    chart_of = {}
    for case in GENERIC_H_CASES:
        chart_of[case] = charts.resolve_case(case)
        for gen in range(chart_of[case].n_gen):
            chart_of[case].rep(gen)
    spec_of = {case + (f" ell={ell}" if ell != 1 else ""): _embedding_spec(case, ell)
               for case, ell in REMMERT_CASES}
    plucker_spec = _embedding_spec("grassmann:4:2")
    rng = random.Random(seed)
    for index in range(EXACT_POINTS):
        ops += [_generic_h_op(case, chart, rng, index) for case, chart in chart_of.items()]
        ops += [_remmert_op(label, spec, rng, index) for label, spec in spec_of.items()]
        ops.append(_plucker_op(plucker_spec, rng, index))
    return ops


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("minors", _minors, min_passes=3),
    Workload("jets", _jets, min_passes=4),
    Workload("embedding", _embedding, min_passes=3),
)}
