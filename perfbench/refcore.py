"""The reference kernel, which rescales wall times to a reference core.

A small cloud machine gives the benchmark vCPUs of a shared host, and their
speed moves by up to 1.6x from one stretch of seconds to the next as other
tenants load the host (CPU time moves with wall time, so it is not the
scheduler taking the CPU away).  Runs that land in a slow stretch then read
slow as a whole, which no median inside a run can undo.

So the benchmark times a fixed kernel of the same kind of work as the library
(interpreted Python, small dense linear algebra, polynomial evaluation on a
5000-point grid) between its timed calls, and reports each call's wall time
rescaled by ``NOMINAL_S`` over the kernel's time around that call: the time
the call would take on a core where the kernel takes ``NOMINAL_S``.  The
kernel never calls the library, so a change to the library moves the rescaled
times as it moves the wall times.  The raw wall times are kept in each run's
record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.001  # the kernel's time on the reference core
_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((24, 24))
_V = _RNG.standard_normal(8)
_X = np.linspace(0.0, 1.0, 5000)
_XP = np.linspace(0.1, 2.0, 5000)
_C = np.arange(1.0, 7.0)
_P = np.arange(8.0)


def kernel() -> float:
    s = 0.0
    for i in range(800):  # interpreted loop
        s += i * 0.5
    a = np.zeros(3)
    for _ in range(80):  # numpy calls on tiny arrays: per-call overhead
        a = a + 1.0
        s += float(a.sum())
    for _ in range(3):  # small dense linear algebra
        np.linalg.svd(_A)
    for _ in range(5):  # polynomial evaluation on a grid
        np.polynomial.polynomial.polyval(_X, _C)
    for e in (0.5, 1.5, 2.5):  # fractional powers on a grid
        np.power(_XP, e)
    return s + float(((_XP[:, None] ** _P) @ _V)[0])  # a basis matrix on the grid


def measure(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` back-to-back kernels, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(wall_s: float, ref_s: float) -> float:
    """Wall time on the reference core, given the kernel's time around it."""
    return wall_s * NOMINAL_S / ref_s
