"""Set-up of one workload in a fresh process: import flagcones, build every op.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this whole process, interpreter start included, as
``setup_s``.
"""
import sys

from bootstrap import pin_environment

if __name__ == "__main__":
    pin_environment()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
