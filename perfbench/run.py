"""Time to verdict for flagcones: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload {minors,jets,embedding} --seed N \
        --seconds S --trace {0,1}

A run builds the workload's ops from the seed, runs one warm-up pass that
is not timed, then measures whole passes, one caller in one process, until
``--seconds`` have gone by and at least the workload's minimum number of
passes is done.  Every op's outcome is checked against its expected
verdict and against the warm-up pass.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
time of several fresh processes that import flagcones and build the
workload.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py).  All
times are scaled to the machine's reference speed (see calibration.py);
each run prints raw pass times beside the scaled ones.

Modules that import numpy are imported inside functions, after
``pin_environment`` has pinned the thread pools.

Readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the checkout has no flagcones to measure.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from bootstrap import MissingLibrary, check_import, environment, pin_environment

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 150.0            # start no optional pass after this much run time
SEGMENT_S = 0.1               # ops shorter than this share calibration runs
REFERENCE = HERE / "reference.json"


@dataclass
class Pass:
    """One call of every op: times scaled to reference speed, raw times, outcomes."""

    times: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops) -> Pass:
    """Call every op once, timing each and scaling it by the calibration kernel.

    The kernel runs before the first op and after every segment of ops
    that lasted SEGMENT_S or more, so short ops share one scale and the
    kernel costs a few percent of a pass.
    """
    from calibration import REFERENCE_S, kernel

    result = Pass()
    before, pending, segment_start = kernel(), 0, perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:      # a raising op is a failed op, not a crashed run
            outcome = exc
        result.raw.append(perf_counter() - t0)
        result.outcomes.append(outcome)
        pending += 1
        if perf_counter() - segment_start >= SEGMENT_S or i == len(ops) - 1:
            after = kernel()
            scale = 2.0 * REFERENCE_S / (before + after)
            result.times += [t * scale for t in result.raw[-pending:]]
            before, pending, segment_start = after, 0, perf_counter()
    return result


def failure(op, outcome, warm):
    """Why an op's outcome is wrong, or None."""
    from workloads import CONTROL, CONTROL_FACTOR

    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    if op.expect == CONTROL:
        if outcome.verdict or outcome.margin < CONTROL_FACTOR:
            return f"control failed by only {outcome.margin:.3g}x its tolerance"
    elif not outcome.verdict:
        return "verdict flipped" if outcome.residuals else "exact identity failed"
    if outcome != warm:
        return "outcome differs from the warm-up pass"
    return None


def nearest_rank(values, fraction: Fraction):
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)), 1) - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Median fresh-process set-up time, scaled like an op's time."""
    from calibration import REFERENCE_S, kernel

    times, before = [], kernel()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        after = kernel()
        times.append(elapsed * 2.0 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(times)


def residual_drift(workload: str, seed: int, ops, outcomes):
    """Largest relative change of each op's residual maxima against reference.json."""
    if not REFERENCE.is_file():
        return None
    reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if reference is None:
        return None
    drift = {}
    for op, outcome in zip(ops, outcomes):
        ref = reference.get(op.id, {}).get("residuals", {})
        worst = 0.0
        for name, value in getattr(outcome, "residuals", {}).items():
            if name in ref:
                base = ref[name]
                worst = max(worst, abs(value - base) / abs(base) if base else abs(value))
        drift[op.id] = worst
    return drift


class Run:
    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = perf_counter()
        self.ops = workload.build(seed)
        self.warm = run_pass(self.ops).outcomes
        self.problems = []            # failed ops and integrity faults, one line each
        self.attempted = 0
        self.failed = 0

    def check(self, done: Pass, label: str) -> None:
        for op, outcome, warm in zip(self.ops, done.outcomes, self.warm):
            self.attempted += 1
            why = failure(op, outcome, warm)
            if why:
                self.failed += 1
                self.problems.append(f"{label}: {op.id}: {why}")

    def measure(self, step, minimum: int):
        """Repeat ``step`` for ``--seconds`` and at least ``minimum`` times."""
        begin = perf_counter()
        results, last = [], 0.0
        while len(results) < minimum or (
                perf_counter() - begin < self.seconds
                and perf_counter() - self.start + last < DEADLINE_S):
            t0 = perf_counter()
            results.append(step())
            last = perf_counter() - t0
        return results


def end_to_end(run: Run) -> tuple:
    """End-to-end metrics from each op's median time over the measured passes.

    Interference on a shared machine comes in bursts of a second or more
    that only ever slow an op down; taking each op's median before adding
    or ranking keeps one burst from moving a whole run's figure.
    """
    setup_s = measure_setup(run.workload.name, run.seed)
    passes = run.measure(lambda: run_pass(run.ops), run.workload.min_passes)
    for i, done in enumerate(passes):
        run.check(done, f"pass {i + 1}")
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(run.ops))]
    wall_s = sum(per_op)
    samples = sum(getattr(o, "samples", 0) for o in run.warm)
    tail = run.workload.tail_fraction(len(run.ops))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "samples_per_s": (samples / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(per_op) * len(passes)
    # Op percentiles are printed, not reported: single ops of a few
    # milliseconds spread more between runs than any bound allows.
    notes = [f"passes {len(passes)}, scaled: " + ", ".join(f"{p.wall:.4f}" for p in passes)
             + " s; raw: " + ", ".join(f"{sum(p.raw):.4f}" for p in passes) + " s",
             f"ops {n}, samples per pass {samples}",
             f"op_s_p50 {statistics.median(per_op):.6f} s",
             f"op_s_tail {nearest_rank(per_op, tail):.6f} s: p{float(tail) * 100:.1f} over {n} op calls "
             f"({n - math.ceil(tail * n)} beyond it)"]
    return metrics, notes, per_op


def per_layer(run: Run) -> tuple:
    from tracer import Tracer

    missing = set()

    def pair():
        plain = run_pass(run.ops)
        with Tracer() as tracer:
            traced = run_pass(run.ops)
        missing.update(tracer.missing)
        # scale layer times like the traced pass's op times
        scale = traced.wall / sum(traced.raw)
        return plain, traced, {name: (value * scale if unit == "s" else value / scale if unit == "points/s"
                                      else value, unit)
                               for name, (value, unit) in tracer.metrics().items()}

    pairs = run.measure(pair, 1)
    for i, (plain, traced, _) in enumerate(pairs):
        run.check(plain, f"untraced pass {i + 1}")
        run.check(traced, f"traced pass {i + 1}")
    layers = [m for *_, m in pairs]
    metrics = {}
    for name, (_, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        if unit == "count" and len(set(values)) > 1:
            run.problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    plain_wall = statistics.median(p.wall for p, _, _ in pairs)
    traced_wall = statistics.median(t.wall for _, t, _ in pairs)
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    notes = [f"pairs of untraced and traced passes: {len(pairs)}",
             f"untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s"]
    if missing:
        notes.append("not traced, absent from flagcones: " + ", ".join(sorted(missing)))
    per_op = [statistics.median(p.times[i] for p, _, _ in pairs) for i in range(len(run.ops))]
    return metrics, notes, per_op


def report(run: Run, env: dict, metrics: dict, notes: list, per_op: list) -> None:
    from workloads import PASS

    drift = residual_drift(run.workload.name, run.seed, run.ops, run.warm)
    print(f"# flagcones benchmark: workload {run.workload.name}, seed {run.seed}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# {'op':44s} {'expect':8s} {'median s':>10s} {'margin':>10s} {'drift':>9s}")
    for op, t, outcome in zip(run.ops, per_op, run.warm):
        margin = getattr(outcome, "margin", float("nan"))
        d = "-" if drift is None else f"{drift[op.id]:.2e}"
        print(f"# {op.id:44s} {op.expect:8s} {t:10.4f} {margin:10.3g} {d:>9s}")
    if drift is None:
        print(f"# no reference residuals for seed {run.seed}; drift not reported")
    else:
        print(f"# residual drift against reference.json: max {max(drift.values()):.3e}")
    positive = [(o.margin, op.id) for op, o in zip(run.ops, run.warm)
                if op.expect == PASS and not isinstance(o, Exception)]
    if positive:
        print("# worst_margin %.6g (%s)" % max(positive))
    print(f"# failed_frac {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} ops)")
    for line in run.problems:
        print(f"# FAILED {line}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pin_environment()
        check_import()
    except (MissingLibrary, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    env = environment()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics, notes, per_op = (per_layer if args.trace else end_to_end)(run)
    report(run, env, metrics, notes, per_op)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
