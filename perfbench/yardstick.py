"""A fixed pure-Python kernel that measures the host's current speed.

On a shared host the speed of one process changes by up to a third from
one second to the next, and drifts over minutes, as other tenants come
and go.  Every macoh job is a single-threaded pure-Python computation,
and it slows down with this kernel when the host does.  The run loop
times the kernel right before and right after every job and scales the
job's time by ``REF_S`` over the mean of the two.  That gives the job's
time at the reference speed, the speed at which the kernel takes
``REF_S``.

The kernel is fraction-free integer elimination of a fixed 32 x 32
matrix: list, int and gcd work, as in ``linalg``, in a working set of a
few kilobytes, so that what the previous job left in the caches hardly
changes its time.  It never calls macoh, so no change to the package
can change it.  It runs with the cyclic garbage collector off, so that
the size of macoh's heap does not leak into it, and its result is
checked.
"""

from __future__ import annotations

import gc
import random
from math import gcd
from time import perf_counter

# Kernel time, in seconds, at the reference speed: its typical time on
# the 2-vCPU Xeon host the benchmark was tuned on.
REF_S = 0.006

_rng = random.Random(5)
_MATRIX = [[_rng.randint(-3, 3) for _ in range(32)] for _ in range(32)]


def kernel():
    """Integer row echelon form of the fixed matrix; returns the rank."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for r in range(rank + 1, n):
            f = a[r][col]
            if f:
                row = [top[col] * x - f * y for x, y in zip(a[r], top)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                a[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


RANK = kernel()


def measure():
    """Seconds taken by one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rank = kernel()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if rank != RANK:
        raise RuntimeError(f"yardstick kernel gave rank {rank}, expected {RANK}")
    return elapsed


def scale(seconds, before, after):
    """A job time at the reference speed, from the kernel times measured
    right before and right after the job."""
    return seconds * REF_S * 2 / (before + after)
