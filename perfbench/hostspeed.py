"""How fast the host runs right now, against a fixed reference kernel.

The benchmark's host is a shared 2-vCPU machine whose speed changes by up to
two times within seconds and between minutes, while process CPU time follows
wall time (the other tenants slow the processor itself, nothing can be
subtracted). The time metrics are therefore scaled to a reference speed: after
every timed interval the host runs a fixed kernel, of the same kind of work as
hcqsim's (a heap-ordered event loop with dict and float bookkeeping, and small
numpy products), for a share of that interval, and the interval is charged
``seconds * speed``, where ``speed`` is the kernel's rate around the interval
over ``REFERENCE_RATE``. The kernel is the benchmark's own code, so a change
to hcqsim moves the interval but not the kernel.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

# Kernel calls per second on the reference host (a 2-vCPU Intel Xeon at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6) in its usual, contended state.
REFERENCE_RATE = 160.0
# Share of each timed interval the kernel runs after it.
SHARE = 0.15

_MIX = np.arange(81, dtype=float).reshape(9, 9) / 81.0


def kernel() -> float:
    """About 6 ms of hcqsim-like work on the reference host."""
    heap, per_class, t = [], {}, 0.0
    for i in range(3000):
        heapq.heappush(heap, (t + (i * 7919 % 1000) * 1e-3, i))
        t += 0.0005
    acc = 0.0
    while heap:
        when, i = heapq.heappop(heap)
        k = i & 15
        per_class[k] = per_class.get(k, 0) + 1
        acc += when * 0.5 + k
    v = np.ones(9)
    for _ in range(300):
        v = _MIX @ v
        v /= v.sum()
    return acc + float(v[0])


def rate(budget_s: float) -> float:
    """Kernel calls per second over at least ``budget_s`` (at least one call).

    The collector is off meanwhile, so the program's live heap does not
    change the kernel's time."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        calls, t0 = 0, time.perf_counter()
        while True:
            kernel()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                return calls / elapsed
    finally:
        if was_on:
            gc.enable()


class HostSpeed:
    """The host's speed around consecutive timed intervals."""

    def __init__(self):
        self.last = rate(0.2)

    def after(self, seconds: float) -> float:
        """Call right after a timed interval of ``seconds``: the host's speed
        over it relative to the reference, from the kernel's rate before and
        after it. ``seconds * speed`` is the interval at reference speed."""
        before, self.last = self.last, rate(SHARE * seconds)
        return (before + self.last) / 2.0 / REFERENCE_RATE
