"""Channel-load histograms, open-vs-closed comparison reports, and their
CSV/SVG exports.

Binning is half-open [lo, hi) with the final bin closed; samples outside
the edge range land in explicit underflow/overflow counters so totals
always reconcile. All numeric output uses 9 significant digits and file
bytes are a pure function of the report (no timestamps), so identical runs
export identical files.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = "%.9g"
UTILIZATION_EDGES = tuple(i / 20 for i in range(21))  # twenty equal bins over [0, 1]
TAIL_THRESHOLD = 0.95  # tail mass: the share of epochs above this utilization


def fmt(x: float) -> str:
    return FLOAT_FMT % x


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        if len(self.edges) < 2:
            raise ValueError("histogram needs at least two edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"edges must be strictly increasing: {self.edges}")
        if len(self.counts) != len(self.edges) - 1:
            raise ValueError("counts length must be len(edges) - 1")

    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow


def build_histogram(samples, edges) -> Histogram:
    edges = tuple(float(e) for e in edges)
    counts = [0] * (len(edges) - 1)
    under = over = 0
    lo, hi = edges[0], edges[-1]
    for s in samples:
        if s < lo:
            under += 1
        elif s > hi:
            over += 1
        else:
            idx = bisect_right(edges, s) - 1
            if idx == len(counts):  # s == hi: final bin is closed
                idx -= 1
            counts[idx] += 1
    return Histogram(edges=edges, counts=tuple(counts), underflow=under, overflow=over)


def quantiles_nearest_rank(values, ps) -> tuple[float, ...]:
    """Nearest-rank quantile of values at each p of ps; nan for each when
    values is empty. One np.partition puts every rank's element where a
    sort would, so each is the sorted copy's element at that rank."""
    n = len(values)
    if not n or not ps:
        return (float("nan"),) * len(ps)
    ranks = [max(1, math.ceil(p * n)) - 1 for p in ps]
    vals = np.partition(np.asarray(values), ranks)
    return tuple(vals[r].item() for r in ranks)


def variance_two_pass(values) -> float:
    """Population variance, plain two-pass."""
    n = len(values)
    if n == 0:
        return 0.0
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


@dataclass
class ModeSummary:
    mode: str
    histogram: Histogram
    drop_fraction: float
    util_mean: float
    util_variance: float
    tail_mass: float
    latency_p95: dict = field(default_factory=dict)  # class label str -> seconds
    latency_p99: dict = field(default_factory=dict)


@dataclass
class ComparisonReport:
    scenario_id: str
    open: ModeSummary
    closed: ModeSummary

    @property
    def drop_fraction_delta(self) -> float:
        return self.closed.drop_fraction - self.open.drop_fraction

    @property
    def util_variance_delta(self) -> float:
        return self.closed.util_variance - self.open.util_variance

    @property
    def tail_mass_delta(self) -> float:
        return self.closed.tail_mass - self.open.tail_mass


def _summarize(metrics, mode_name: str) -> ModeSummary:
    util = metrics.link_utilization
    n = len(util)
    tail = sum(1 for u in util if u > TAIL_THRESHOLD) / n if n else 0.0
    p95 = {}
    p99 = {}
    for label, samples in metrics.latencies_s.items():
        p95[str(label)], p99[str(label)] = quantiles_nearest_rank(samples, (0.95, 0.99))
    return ModeSummary(
        mode=mode_name,
        histogram=build_histogram(util, UTILIZATION_EDGES),
        drop_fraction=metrics.drop_fraction(),
        util_mean=sum(util) / n if n else 0.0,
        util_variance=variance_two_pass(util),
        tail_mass=tail,
        latency_p95=p95,
        latency_p99=p99,
    )


def compare_modes(open_metrics, closed_metrics) -> ComparisonReport:
    """Pair two runs of the same scenario into one report."""
    if open_metrics.scenario_id != closed_metrics.scenario_id:
        raise ValueError(
            f"scenario mismatch: {open_metrics.scenario_id!r} vs {closed_metrics.scenario_id!r}"
        )
    return ComparisonReport(
        scenario_id=open_metrics.scenario_id,
        open=_summarize(open_metrics, "open"),
        closed=_summarize(closed_metrics, "closed"),
    )


REPORT_CSV_HEADER = ["metric", "open", "closed", "delta"]
HISTOGRAM_CSV_HEADER = ["mode", "bin_lo", "bin_hi", "count"]


def report_rows(report: ComparisonReport) -> list[tuple[str, float, float, float]]:
    rows = [
        ("drop_fraction", report.open.drop_fraction, report.closed.drop_fraction,
         report.drop_fraction_delta),
        ("util_mean", report.open.util_mean, report.closed.util_mean,
         report.closed.util_mean - report.open.util_mean),
        ("util_variance", report.open.util_variance, report.closed.util_variance,
         report.util_variance_delta),
        ("tail_mass", report.open.tail_mass, report.closed.tail_mass,
         report.tail_mass_delta),
    ]
    for label in sorted(set(report.open.latency_p95) | set(report.closed.latency_p95)):
        o = report.open.latency_p95.get(label, float("nan"))
        c = report.closed.latency_p95.get(label, float("nan"))
        rows.append((f"latency_p95[{label}]", o, c, c - o))
        o99 = report.open.latency_p99.get(label, float("nan"))
        c99 = report.closed.latency_p99.get(label, float("nan"))
        rows.append((f"latency_p99[{label}]", o99, c99, c99 - o99))
    return rows


def write_report_csv(report: ComparisonReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_CSV_HEADER)
        for name, o, c, d in report_rows(report):
            w.writerow([name, fmt(o), fmt(c), fmt(d)])


def write_histogram_csv(report: ComparisonReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTOGRAM_CSV_HEADER)
        for summary in (report.open, report.closed):
            h = summary.histogram
            for i, count in enumerate(h.counts):
                w.writerow([summary.mode, fmt(h.edges[i]), fmt(h.edges[i + 1]), count])
            w.writerow([summary.mode, "underflow", "", h.underflow])
            w.writerow([summary.mode, "overflow", "", h.overflow])


def render_histogram_svg(report: ComparisonReport) -> str:
    """Side-by-side utilization histograms as a static SVG string.

    Hand-rolled so the bytes are a pure function of the report.
    """
    width, height = 720, 360
    pad_l, pad_r, pad_t, pad_b = 50, 10, 30, 40
    panel_w = (width - pad_l - pad_r - 30) / 2
    plot_h = height - pad_t - pad_b
    peak = max(
        [1] + list(report.open.histogram.counts) + list(report.closed.histogram.counts)
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for pi, summary in enumerate((report.open, report.closed)):
        x0 = pad_l + pi * (panel_w + 30)
        h = summary.histogram
        nbins = len(h.counts)
        bw = panel_w / nbins
        parts.append(
            f'<text x="{fmt(x0 + panel_w / 2)}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{summary.mode} '
            f'(drop={fmt(summary.drop_fraction)})</text>'
        )
        for i, count in enumerate(h.counts):
            bar_h = plot_h * count / peak
            x = x0 + i * bw
            y = pad_t + plot_h - bar_h
            parts.append(
                f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(max(bw - 1, 1))}" '
                f'height="{fmt(bar_h)}" fill="#4477aa"/>'
            )
        axis_y = pad_t + plot_h
        parts.append(
            f'<line x1="{fmt(x0)}" y1="{fmt(axis_y)}" x2="{fmt(x0 + panel_w)}" '
            f'y2="{fmt(axis_y)}" stroke="black"/>'
        )
        for frac, lab in ((0.0, fmt(h.edges[0])), (1.0, fmt(h.edges[-1]))):
            parts.append(
                f'<text x="{fmt(x0 + frac * panel_w)}" y="{fmt(axis_y + 16)}" '
                f'text-anchor="middle" font-family="monospace" font-size="11">{lab}</text>'
            )
    parts.append(
        f'<text x="{fmt(width / 2)}" y="{height - 6}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">link utilization per epoch</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def export_report(report: ComparisonReport, out_dir) -> list[str]:
    """Write report.csv, histogram.csv and hist.svg under out_dir; returns
    the file paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    try:
        p = os.path.join(out_dir, "report.csv")
        write_report_csv(report, p)
        paths.append(p)
        p = os.path.join(out_dir, "histogram.csv")
        write_histogram_csv(report, p)
        paths.append(p)
        p = os.path.join(out_dir, "hist.svg")
        with open(p, "w") as fh:
            fh.write(render_histogram_svg(report))
        paths.append(p)
    except OSError as exc:
        raise OSError(f"failed writing report files under {out_dir}: {exc}") from exc
    return paths
