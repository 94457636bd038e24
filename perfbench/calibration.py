"""Machine-speed calibration for timings taken on a shared machine.

On a shared host other tenants can slow a process by up to a half, in
spells that last from a second to a minute, so a whole run can fall into
one and no statistic within the run removes it.  The benchmark therefore runs a
fixed calibration kernel between ops and scales each op's time by
``REFERENCE_S / k``, where ``k`` is the mean kernel time just before and
just after the op.  A scaled time is the time the op takes at the speed at
which the kernel takes ``REFERENCE_S``: on an undisturbed machine the
scaled and the raw times agree.  The kernel does not use flagcones; it
mixes the kinds of work flagcones spends its time on: interpreted
integer and ``Fraction`` arithmetic, small BLAS products, batched real
and complex LAPACK determinants and array passes larger than the caches.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time on the reference machine (2 vCPUs, Intel Xeon, Python 3.11,
# OpenBLAS single-threaded) when undisturbed: about the 5th percentile of 400
# kernel runs, rounded.
REFERENCE_S = 0.0086

_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) * 0.05
_D = np.broadcast_to(_A[:6, :6] + np.eye(6), (3000, 6, 6)).copy()
_BIG = np.linspace(0.0, 1.0, 1_000_000)
_TMP = np.empty_like(_BIG)
_C = np.broadcast_to((_A[:3, :3] + np.eye(3)) * (1.0 + 0.5j), (8000, 3, 3)).copy()


def kernel() -> float:
    """Run the calibration kernel once and return its wall time."""
    start = perf_counter()
    x = 0
    for i in range(10000):
        x += i * i
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, 4)
    a = _A
    for _ in range(30):
        a = np.tanh(a @ _A + 0.5)
    np.linalg.det(_D)
    np.multiply(_BIG, 1.0001, out=_TMP)
    np.add(_TMP, _BIG, out=_TMP)
    np.abs(np.linalg.det(_C)) ** 2
    return perf_counter() - start
