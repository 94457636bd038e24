"""Record the reference outcome of every op: its verdict and residual maxima.

Usage: python3 perfbench/reference.py

Runs one pass of every workload at each seed of SEEDS and rewrites
reference.json.  ``run.py`` reports each op's residual drift against it
when the run's seed is recorded there.  Regenerate it only on a commit
whose outcomes are the intended baseline.
"""
import json

from bootstrap import pin_environment

SEEDS = (0, 1, 2, 7)

if __name__ == "__main__":
    pin_environment()
    from run import REFERENCE, run_pass
    from workloads import WORKLOADS

    data = {}
    for name, workload in WORKLOADS.items():
        data[name] = {}
        for seed in SEEDS:
            ops = workload.build(seed)
            data[name][str(seed)] = {
                op.id: {"verdict": o.verdict, "residuals": o.residuals}
                for op, o in zip(ops, run_pass(ops).outcomes)}
            print(f"{name} seed {seed}: {len(ops)} ops", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
