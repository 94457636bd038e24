"""Every metric of every workload from one command.

Usage: python3 perfbench/report.py [--seed 0]

Runs run.py once untraced and once traced per workload of BENCHMARK.json,
for its ``run_seconds``, prints each run's readable lines, then one table
of all metrics by workload.  Exits 1 if any run reports incorrect
outputs.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    names = [w["name"] for w in BENCHMARK["workloads"]]
    table, ok = {}, True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300).stdout
            lines = out.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for metric, m in result["metrics"].items():
                table.setdefault((metric, m["unit"]), {})[name] = m["value"]
    print(f"\n{'metric':36s} {'unit':14s}" + "".join(f"{n:>16s}" for n in names))
    for (metric, unit), values in table.items():
        cells = "".join(f"{values[n]:16.6g}" if n in values else f"{'-':>16s}" for n in names)
        print(f"{metric:36s} {unit:14s}{cells}")
    print("all outputs correct" if ok else "SOME OUTPUTS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
