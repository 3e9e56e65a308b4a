"""A fixed pure-Python yardstick for the host's speed at one moment.

The host shares its cores, and its speed swings by up to 2.4x over seconds to
minutes while the work stays the same (see README.md, Noise).  Each child
times this loop once qidx is imported and again after each piece of work; a
time in multiples of the loop's time then no longer depends on the swing.

The loop multiplies two dense truncated series with ``Fraction``
coefficients, the kind of work qidx does, and never calls qidx, so a change
to qidx cannot change it.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

TERMS = 150
# The loop's time at full speed on the 2-core Xeon VM the bounds were set
# on; set-up times in ref are reported in seconds at this speed.
NOMINAL_S = 0.04
PICK_TERMS = 80  # the short run that picks a core
ALL_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def reference_loop(terms: int) -> Fraction:
    a = [Fraction((-1) ** i, i + 1) for i in range(terms)]
    b = [Fraction(i, 3 * i + 2) for i in range(terms)]
    c = [Fraction(0)] * terms
    for i, ai in enumerate(a):
        for j in range(terms - i):
            c[i + j] += ai * b[j]
    return c[-1]


def time_reference(terms: int = TERMS) -> float:
    """Seconds one run of the loop takes now."""
    t0 = time.perf_counter()
    reference_loop(terms)
    return time.perf_counter() - t0


def pin_to_quickest_cpu():
    """Pin this process to the CPU, among those it was started with, on
    which a short run of the loop is fastest right now, and return it (None
    when there is no choice).  Children started next inherit the pin.

    The host slows each of its cores separately, for seconds at a time, so
    a child started on the quicker core more often runs at full speed."""
    if len(ALL_CPUS) < 2:
        return None
    times = []
    for cpu in ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
        times.append((time_reference(PICK_TERMS), cpu))
    cpu = min(times)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu
