"""In-memory spans around the benchmark's calls into each hcqsim layer.

A span is ``[name, start, end, parent]`` with host times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top). Spans stay in memory until the run ends; ``run.py`` then writes
them to a file outside every run directory.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# Names of the spans the workloads record, by layer.
SETUP_SPANS = ("traffic.generate_trace", "hybriddb.build_corpus")
ROUND_SPANS = (
    "netsim.add_flows",
    "netsim.run_epochs",
    "control.init",
    "control.identify",
    "control.decide",
    "hybriddb.run_experiment",
    "metrics.compare_modes",
    "runner.write_outputs",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def mark(self) -> int:
        """Index of the next span, so a caller can read what a call added."""
        return len(self.spans)

    def totals(self, start: int, names) -> dict:
        """Summed duration per span name over spans[start:]."""
        out = {name: 0.0 for name in names}
        for name, t0, t1, _ in self.spans[start:]:
            if name in out:
                out[name] += t1 - t0
        return out

    def durations(self, start: int, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans[start:] if n == name]

    def self_time(self, start: int, name: str) -> float:
        """Summed duration of spans called name minus that of their children."""
        total = 0.0
        for i in range(start, len(self.spans)):
            n, t0, t1, _ = self.spans[i]
            if n == name:
                total += t1 - t0
        for n, t0, t1, parent in self.spans[start:]:
            if parent >= start and self.spans[parent][0] == name:
                total -= t1 - t0
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class TracedController:
    """Delegates ``m`` and ``decide`` to a controller, recording each decide."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def m(self) -> int:
        return self.inner.m

    def decide(self, x, epoch_index: int):
        with self.tracer.span("control.decide"):
            return self.inner.decide(x, epoch_index)


def tail_of(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the value
    with exactly ten larger ones. With fewer than forty samples, the median."""
    if not values:
        return 0.0
    if len(values) < 40:
        return statistics.median(values)
    return sorted(values)[len(values) - 11]


def round_layers(tracer: Tracer, start: int, counts: dict) -> dict:
    """Per-layer numbers of one traced round (spans from ``start`` on)."""
    tot = tracer.totals(start, ROUND_SPANS)
    decide_ms = [d * 1e3 for d in tracer.durations(start, "control.decide")]
    loop_s = tracer.self_time(start, "netsim.run_epochs")
    loop_flows = counts["netsim.loop_flows"]
    fetches = counts["hybriddb.fetches"]
    return {
        "netsim.add_flows_s": tot["netsim.add_flows"],
        "netsim.loop_s": loop_s,
        "netsim.us_per_flow": loop_s / loop_flows * 1e6 if loop_flows else 0.0,
        "control.decide_s": tot["control.decide"],
        "control.decide_ms.p50": statistics.median(decide_ms) if decide_ms else 0.0,
        "control.decide_ms.tail": tail_of(decide_ms),
        "control.init_s": tot["control.init"],
        "control.identify_s": tot["control.identify"],
        "hybriddb.run_experiment_s": tot["hybriddb.run_experiment"],
        "hybriddb.us_per_fetch": (
            tot["hybriddb.run_experiment"] / fetches * 1e6 if fetches else 0.0
        ),
        "metrics.compare_modes_s": tot["metrics.compare_modes"],
        "runner.write_outputs_s": tot["runner.write_outputs"],
    }
