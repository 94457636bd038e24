"""One-shot case x suite matrix at one seed: wall time, verdict, worst margin.

Usage: python3 perfbench/matrix.py

Regenerates the baseline table of ROADMAP.md at seed 7 and default sample
counts, with wallach added for its expected embedding outcome.
It is a report, not a gated workload.  Known failures are labelled as
expected outcomes; the exit code is 1 only when some cell differs from
its expected outcome.
"""
import sys
from time import perf_counter

from bootstrap import pin_environment

SEED = 7
CASES = ("cp:2", "gr24", "quadric:8", "grassmann:4:2", "wallach", "fullflag:A:3")
SUITES = ("lck", "ricci-flat", "kahler-einstein", "einstein-weyl", "embedding")

# Outcomes other than a pass that the current library is known to give.
EXPECTED = {
    ("fullflag:A:3", "ricci-flat"): "fail",
    ("fullflag:A:3", "kahler-einstein"): "fail",
    ("fullflag:A:3", "einstein-weyl"): "fail",
    ("fullflag:A:3", "embedding"): "ConfigurationError",
    ("wallach", "embedding"): "ConfigurationError",
}


def cell(run_suite, suite: str, case: str, seed: int):
    """(outcome, text) of one run_suite call."""
    start = perf_counter()
    try:
        rep = run_suite(suite, case, seed=seed)
    except Exception as exc:      # the outcome of a cell may be an exception
        return type(exc).__name__, type(exc).__name__
    wall = perf_counter() - start
    margin = max((r.max / r.tolerance for r in rep.residuals if not r.advisory), default=0.0)
    outcome = "pass" if rep.verdict else "fail"
    return outcome, f"{wall:.2f} s {outcome.upper()} {margin:.3g}x"


def main() -> int:
    pin_environment()
    from flagcones import run_suite

    unexpected = 0
    print(f"seed {SEED}; each cell: wall time, verdict, worst residual/tolerance")
    print("| case | " + " | ".join(SUITES) + " |")
    print("|---" * (len(SUITES) + 1) + "|")
    for case in CASES:
        row = []
        for suite in SUITES:
            outcome, text = cell(run_suite, suite, case, SEED)
            expected = EXPECTED.get((case, suite), "pass")
            if outcome != expected:
                unexpected += 1
                text += f" (UNEXPECTED, expected {expected})"
            elif expected != "pass":
                text += " (expected)"
            row.append(text)
        print(f"| {case} | " + " | ".join(row) + " |", flush=True)
    print(f"{unexpected} unexpected cells")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
