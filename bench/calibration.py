"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same code runs up to twice as slow in some minutes
as in others, and process CPU time slows with it, so neither wall nor CPU
time of a call is steady from run to run.  The benchmark therefore runs
this kernel just before every timed call and scales the call's time by
NOMINAL_S over the kernel's time: a call that took as long as the kernel
did, on a host running at half speed, still reads NOMINAL_S.  The kernel
mixes the three kinds of work cornerbie does (dense LAPACK, vectorized
numpy, and interpreted Python with small arrays) and touches no cornerbie
code, so a change to the package moves the scaled time in full.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

# about the kernel's time, 1 BLAS thread, on the 2-vCPU x86-64 host the
# benchmark was written on when that host ran at full speed (0.050-0.060 s
# then, up to 0.090 s in its slow stretches); scaled times read as seconds
# on that host at full speed
NOMINAL_S = 0.060

_RNG = np.random.default_rng(0)
# the size of an angle_sweep system, n = 386
_MATRIX = _RNG.standard_normal((386, 386)) + 386.0 * np.eye(386)
_ARRAY = _RNG.uniform(0.1, 1.0, (386, 386))
_SMALL = _ARRAY[0, :8].copy()


def _kernel() -> float:
    for _ in range(2):
        scipy.linalg.lu_factor(_MATRIX)
        np.linalg.inv(_MATRIX)
    for _ in range(9):
        np.exp(_ARRAY) * np.log(_ARRAY) + np.sin(_ARRAY)
    total = 0.0
    for i in range(180000):
        total += math.sqrt(i) * 0.5
    for _ in range(6000):
        total += float(np.dot(_SMALL, _SMALL))
    return total


def kernel_s() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
