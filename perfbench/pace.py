"""Machine-speed probes: scale measured times to a reference speed.

On a shared machine the same code can run markedly slower for minutes
at a time when other tenants load the host (the process's CPU time
grows with its wall time, so this is not waiting).  Outside every timed
interval the runner times a fixed probe kernel — interpreter loops over
ints, dicts and small objects plus a NumPy sort, the mix the workloads
run — and scales each measured interval by ``PROBE_REF_S`` / the probe
time around it.  A scaled time is the time on a machine where the probe
takes ``PROBE_REF_S``.  Raw times are reported next to the scaled ones.

The probe runs in the program's process, because a probe in a sibling
process tracks the speed the program sees poorly (their times correlate
at about 0.1–0.3 on a 2-vCPU VM).  So that the divisor does not follow
the program's own state, the probe runs with the garbage collector off:
its allocations cannot trigger a collection that walks the program's
heap.  It still shares the allocator and the CPU caches with the
program; ``steady.py`` prints the probe's median per workload next to
the probe's median taken before any set-up, as a check that the two
agree.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: nominal probe time: scaled times are in ms/s of a machine this fast
PROBE_REF_S = 0.020

_SORT_INPUT = np.random.default_rng(0).random(100_000)


def probe() -> float:
    """Wall time of one run of the fixed probe kernel (about 20 ms).

    Three parts, each tracking a different share of the workloads'
    work: integer arithmetic with dict stores in the interpreter loop,
    building and hashing small objects, and a NumPy sort.  The garbage
    collector is off while it runs (see the module docstring).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe_kernel()
    finally:
        if enabled:
            gc.enable()


def _probe_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        acc += i * i
        table[i & 1023] = acc
    pairs = [(i, str(i)) for i in range(30_000)]
    {k: v for k, v in pairs}
    np.sort(_SORT_INPUT)
    return time.perf_counter() - t0


class Pace:
    """Probe log of one pass; turns its wall times into scaled times.

    The machine's speed changes within seconds, so each time is scaled
    by the probes taken around it: the probe time at the interval's
    midpoint, interpolated between the nearest probes (for an op longer
    than ``every``, the probes just before and just after it).
    """

    def __init__(self, every: float = 0.25) -> None:
        self.every = every
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.at.append(t0 + took / 2)
        self.took.append(took)

    def maybe(self) -> None:
        """Probe if ``every`` seconds passed since the last probe."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.probe()

    def scale(self, starts: list[float], times: list[float]) -> list[float]:
        """``times`` (of intervals starting at ``starts``) at reference speed."""
        t = np.asarray(times, dtype=np.float64)
        mid = np.asarray(starts, dtype=np.float64) + t / 2
        return (t * PROBE_REF_S / np.interp(mid, self.at, self.took)).tolist()
