"""Speed of the machine right now, for scaling measured times.

The speed of the machine used to tune this benchmark drifts: for
stretches of seconds to minutes it runs the same code up to 1.8x faster
or slower. A fixed kernel of the kind of work the program does (small
numpy calls and interpreter work) is timed between cycles of requests, and
every time the benchmark reports is scaled by REFERENCE_NS / kernel time.
Over 30-second windows this cut the spread of cycle times from about 30%
to about 3%.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time the reported figures are scaled to: a round figure near its
# time on the 2-core x86-64 VM used for tuning, in that VM's fast stretches.
REFERENCE_NS = 3_000_000
_A = np.eye(4, dtype=complex) * (0.6 + 0.8j)


def kernel_ns() -> int:
    """Wall time of one fixed run of the calibration kernel."""
    a = _A
    start = time.perf_counter_ns()
    for _ in range(60):
        b = a @ a
        c = np.kron(b[:2, :2], a[:2, :2])
        d = float(np.linalg.norm(c))
        s = sum(j * j for j in range(30))
        _ = "%.17g" % (d * s)
    return time.perf_counter_ns() - start


def scale() -> float:
    """REFERENCE_NS over the median of three kernel runs."""
    runs = sorted(kernel_ns() for _ in range(3))
    return REFERENCE_NS / runs[1]
