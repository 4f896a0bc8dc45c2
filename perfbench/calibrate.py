"""Reference-normalised timing.

A small VM on a shared host can change speed by up to ~1.8x, from
second to second and for minutes at a time (CPU time for the same work
moves with wall time, so it is not scheduling delay). A raw stage time then says more about the
neighbours than about the program. Each pass therefore times a fixed
reference computation, which is not part of the program, before the
first stage and after every stage, and scales each stage time by

    REFERENCE_S / mean(reference time just before, reference time just after)

so every reported time reads as if the machine ran the reference in
``REFERENCE_S`` (about 1 ms). The raw times stay in the run record.

What this cannot see: a change that slows the whole interpreter process
between stages (a background thread holding the GIL, say) slows the
reference as well, and the scaling hides it; the raw times in the run
record still show it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Nominal reference time: about the median on a 2-vCPU x86-64 VM
#: (Python 3.11), so normalised and raw numbers are of similar size there.
REFERENCE_S = 1.0e-3

_M = np.arange(64.0).reshape(8, 8) * 1e-3


def reference_work() -> float:
    """Fixed work of the kinds the program does; returns a checksum.

    Pure-Python float and dict work, small-object allocation and string
    joins, and small numpy matrix products, in about equal parts. On a
    2-vCPU x86-64 VM, when the host slowed a pure-Python loop alone by a
    factor k, the program's work slowed by only about k**0.6, so scaling
    by that loop over-corrected. Against this mix the program's work
    slows by about k**0.75 (rule decide, planner forward) to k**0.9
    (simgen).
    """
    acc = 0.0
    buckets: dict[int, float] = {}
    for i in range(1100):
        x = (i * 0.5) % 7.3
        acc += math.sqrt(x) * 1.0001
        buckets[i & 255] = buckets.get(i & 255, 0.0) + x
    rows = [{"id": i, "name": "s%d" % i, "v": (i * 0.5, i * 1.5)} for i in range(400)]
    rows.sort(key=lambda d: -d["v"][0])
    acc += len(",".join(d["name"] for d in rows))
    m = _M
    for _ in range(80):
        m = np.tanh(m @ _M) + _M
    return acc + sum(buckets.values()) + float(m.sum())


def time_reference() -> float:
    """Median of three timings of reference_work, so one interrupt does not skew it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference timings into reference time."""
    return REFERENCE_S / ((before + after) / 2.0)
