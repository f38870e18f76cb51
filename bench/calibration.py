"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small virtual machine the same work can take 20-40% longer from one
minute to the next, because of other tenants.  ``run.py`` therefore times a
fixed kernel, independent of defbond, in its own process: between the
set-up interpreters, and whenever the workload process asks for it between
requests (about every ``EVERY_S`` seconds of timed work).  All of them are
pinned to one CPU, and the workload process is idle while the kernel runs,
so the kernel measures the core the workload runs on without competing
with it.

The mean kernel time over a phase, divided by ``KERNEL_REF_S``, is that
phase's slowdown.  Reported times are the measured times divided by the
slowdown, and rates are multiplied by it; the ``#`` information lines carry
the raw values and the slowdown too.  On the 2-vCPU Xeon host used to write
the benchmark, 5-second blocks of pricing work varied by 12% (coefficient of
variation) while their ratio to the interleaved kernel varied by 3%.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr

# Typical kernel time on the reference host (2-vCPU Intel Xeon under KVM,
# Python 3.11, numpy 2.4, scipy 1.17): normalised times are in its units.
KERNEL_REF_S = 0.047
# Seconds of timed work between two calibration samples.
EVERY_S = 1.0

_RNG = np.random.default_rng(20130528)
_POINTS = _RNG.standard_normal(4096)
_BANDED = np.vstack([np.full(1023, -0.4), np.full(1023, 1.8), np.full(1023, -0.4)])
_RHS = _RNG.random(1023)


def kernel() -> float:
    """Seconds taken by a fixed mix of the work the benchmark times:
    interpreter-bound scalar normal-CDF calls, as in the CDF and quadrature
    loops, and banded solves on 1023 unknowns, as in the PDE march."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        x = _POINTS[i % 4096]
        acc += float(ndtr(x)) * math.exp(-0.5 * x * x)
    for _ in range(700):
        u = solve_banded((1, 1), _BANDED, _RHS + 1e-3 * acc)
        acc += float(np.dot(u, _POINTS[:1023]))
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """Mean kernel time relative to the reference host."""
    return statistics.fmean(samples) / KERNEL_REF_S
