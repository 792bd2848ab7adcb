"""Correctness checks of one round, computed apart from hcqsim or from
properties its method must have.

Every check returns a list of failure messages; an empty list is a pass.
The checks read the epoch CSVs the program writes, so they hold whatever
the simulator keeps in memory.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from collections import defaultdict

import numpy as np

from hcqsim.control import COST_TIE_ABS, COST_TIE_REL
from hcqsim.hybriddb import QUERY_LABEL
from hcqsim.scenarios import S1_TAIL_REDUCTION, S1_VARIANCE_REDUCTION

# Decisions re-derived by brute force per closed run: evenly spaced epochs
# plus the epochs with the deepest total backlog.
SPACED_DECISIONS = 6
DEEP_DECISIONS = 4
# The brute force sums in another order than the program; a candidate this
# close to the edge of the tie band may fall on either side of it.
REASSOCIATION_SLACK = 1e-12
TAIL_THRESHOLD = 0.95


def _epoch_rows(rec, scratch_dir):
    """Per-class sums and per-epoch totals from the simulation's epoch CSV."""
    path = rec.epochs_csv
    if path is None:
        path = os.path.join(scratch_dir, rec.name.replace("/", "_") + "-epochs.csv")
        rec.metrics.write_epochs_csv(path)
    sums = defaultdict(lambda: [0, 0, 0, 0])  # arrived, delivered, dropped, last queued
    per_epoch = defaultdict(int)
    n_rows = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            s = sums[row["class"]]
            s[0] += int(row["arrived"])
            s[1] += int(row["delivered"])
            s[2] += int(row["dropped"])
            s[3] = int(row["queued"])
            per_epoch[int(row["epoch"])] += int(row["delivered"])
            n_rows += 1
    return sums, per_epoch, n_rows


def check_sim(rec, scratch_dir) -> list[str]:
    """Byte accounting of one simulation against its trace and injections."""
    m = rec.metrics
    fails = []
    sums, per_epoch, n_rows = _epoch_rows(rec, scratch_dir)
    for label, (arr, dlv, drp, q) in sums.items():
        if arr != dlv + drp + q:
            fails.append(f"{rec.name} {label}: arrived {arr} != delivered {dlv} + "
                         f"dropped {drp} + queued {q}")
    totals = {str(label): c for label, c in m.totals.items()}
    for label, (arr, dlv, drp, q) in sums.items():
        c = totals[label]
        if (arr, dlv, drp, q) != (c.arrived, c.delivered, c.dropped, c.queued):
            fails.append(f"{rec.name} {label}: epoch rows sum to {(arr, dlv, drp, q)}, "
                         f"totals are {(c.arrived, c.delivered, c.dropped, c.queued)}")
    expected = sum(f.size for f in rec.trace) + sum(rec.injected_sizes)
    arrived = sum(s[0] for s in sums.values())
    if arrived != expected or m.arrived_bytes() != expected:
        fails.append(f"{rec.name}: arrived {arrived} (totals {m.arrived_bytes()}), trace "
                     f"plus injected bytes {expected}")
    if n_rows != m.n_epochs * len(sums):
        fails.append(f"{rec.name}: {n_rows} epoch rows for {m.n_epochs} epochs")
    cap = m.link.bytes_per_epoch + max([f.size for f in rec.trace] + rec.injected_sizes,
                                       default=0)
    over = [e for e, d in per_epoch.items() if d > cap]
    if over:
        fails.append(f"{rec.name}: epochs {over[:5]} deliver more than {cap} bytes")
    offered = len(rec.trace) + len(rec.injected_sizes)
    if m.flows_offered != offered or not 0 <= m.flows_completed <= offered:
        fails.append(f"{rec.name}: {m.flows_offered} flows offered, {m.flows_completed} "
                     f"completed, {offered} in the trace and injected")
    if rec.control is not None:
        cc = rec.control[1]
        want = cc.control_message_bytes * m.n_epochs
        if m.control_bytes_injected != want:
            fails.append(f"{rec.name}: {m.control_bytes_injected} control bytes injected, "
                         f"message bytes x epochs is {want}")
        fails += check_decisions(rec)
    return fails


def grid_points(bounds, grid):
    """Level vectors inside the bounded simplex, in lexicographic order."""
    denom = grid - 1
    allowed = [[j for j in range(grid) if lo - 1e-12 <= j / denom <= hi + 1e-12]
               for lo, hi in zip(bounds.lo, bounds.hi)]

    def walk(i, prefix, room):
        if i == len(allowed):
            yield tuple(prefix)
            return
        for j in allowed[i]:
            if j > room:
                break
            yield from walk(i + 1, prefix + [j], room - j)

    return list(walk(0, [], denom))


def articles_of(corpus, author: int) -> list:
    """The articles an author wrote or co-wrote, by a scan of the corpus."""
    return [a for a in corpus.articles if a.main_author == author or author in a.coauthors]


def _horizon_cost(model, weights, x, u, horizon):
    """sum over h < horizon of (x_h - x_ref)' Q (x_h - x_ref) + u' R u, with
    u held and x_{h+1} = A x_h + B u."""
    cost = 0.0
    for _ in range(horizon):
        d = x - weights.x_ref
        cost += float(d @ weights.Q @ d) + float(u @ weights.R @ u)
        x = model.A @ x + model.B @ u
    return cost


def check_decisions(rec) -> list[str]:
    """A sample of the closed run's (x, u) pairs against a brute-force argmin
    over the share grid. Costs within COST_TIE_REL/COST_TIE_ABS of the
    minimum tie, and the lexicographically smallest tied vector wins."""
    model, cc = rec.control
    history = rec.metrics.state_history
    denom = cc.grid - 1
    points = grid_points(model.control_bounds, cc.grid)
    shares = [np.array(p, dtype=float) / denom for p in points]
    n = len(history)
    picks = {i * n // SPACED_DECISIONS for i in range(SPACED_DECISIONS)}
    deepest = sorted(range(n), key=lambda i: (-float(history[i][0][: model.m].sum()), i))
    picks.update(deepest[:DEEP_DECISIONS])
    fails = []
    for i in sorted(picks):
        x, u = history[i]
        costs = [_horizon_cost(model, cc.weights, np.asarray(x, dtype=float), s, cc.horizon)
                 for s in shares]
        c_min = min(costs)
        band = COST_TIE_ABS + COST_TIE_REL * abs(c_min)
        slack = REASSOCIATION_SLACK * max(1.0, abs(c_min))
        level = tuple(round(float(v) * denom) for v in u)
        if level not in points or max(abs(float(v) * denom - j) for v, j in zip(u, level)) > 1e-9:
            fails.append(f"{rec.name} epoch {i}: shares {tuple(u)} are not a feasible grid point")
            continue
        k = points.index(level)
        if costs[k] > c_min + band + slack:
            fails.append(f"{rec.name} epoch {i}: chosen cost {costs[k]!r} exceeds the "
                         f"minimum {c_min!r} by more than the tie band")
        earlier = [j for j in range(k) if costs[j] <= c_min + band - slack]
        if earlier:
            fails.append(f"{rec.name} epoch {i}: {points[earlier[0]]} ties the minimum and "
                         f"precedes the chosen {level}")
    return fails


def _mode_figures(rec, scratch_dir):
    """(drop fraction, utilization variance, tail mass) from the epoch CSV."""
    sums, per_epoch, _ = _epoch_rows(rec, scratch_dir)
    arrived = sum(s[0] for s in sums.values())
    dropped = sum(s[2] for s in sums.values())
    util = [per_epoch[e] / rec.metrics.link.bytes_per_epoch for e in sorted(per_epoch)]
    return (dropped / arrived if arrived else 0.0,
            statistics.pvariance(util),
            sum(1 for v in util if v > TAIL_THRESHOLD) / len(util))


def check_s1(rr, scratch_dir) -> list[str]:
    """The s1 variance and tail-mass pass bars, from figures the benchmark
    computes itself, and the program's report against those figures.

    The drop-fraction bar is not checked: it holds at the canned seed but not
    on every trace seed. The open run drops 0.1-0.8% of its bytes, so on some
    seeds it drops nothing (the reduction is undefined) or the closed run drops
    about as much or more. The other two bars hold with wide margins."""
    open_rec, closed_rec = rr.sims
    o = _mode_figures(open_rec, scratch_dir)
    c = _mode_figures(closed_rec, scratch_dir)
    fails = []
    names = ("drop fraction", "utilization variance", "tail mass")
    bars = (S1_VARIANCE_REDUCTION, S1_TAIL_REDUCTION)
    for name, ov, cv, bar in zip(names[1:], o[1:], c[1:], bars):
        reduction = (ov - cv) / ov if ov > 0 else math.nan
        if not reduction >= bar:
            fails.append(f"s1 {name} reduction {reduction!r} below the bar {bar}")
    rep = rr.report
    mine = {"open": o, "closed": c}
    for mode, summary in (("open", rep.open), ("closed", rep.closed)):
        theirs = (summary.drop_fraction, summary.util_variance, summary.tail_mass)
        for name, a, b in zip(names, mine[mode], theirs):
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
                fails.append(f"s1 report {mode} {name} {b!r}, recomputed {a!r}")
    return fails


def _nearest_rank(values, p):
    vals = sorted(values)
    return vals[max(1, math.ceil(p * len(vals))) - 1]


def check_experiment(rec, scratch_dir) -> list[str]:
    """Query results against a scan of the corpus and the local closed form,
    and the fetch bytes the link delivered against the article sizes."""
    sc, ex = rec.scenario, rec.experiment
    b = sc.cfg.hybrid_db.backends
    meta_bytes = sc.corpus.spec.metadata_bytes_per_article
    fails = check_sim(rec.sim, scratch_dir)
    if len(ex.rows) != len(sc.authors):
        fails.append(f"{rec.name}: {len(ex.rows)} query rows for {len(sc.authors)} authors")
    for qid, (author, (local, hybrid)) in enumerate(zip(sc.authors, ex.rows)):
        arts = articles_of(sc.corpus, author)
        ids = tuple(a.article_id for a in arts)
        nbytes = len(arts) * meta_bytes + sum(a.body_size for a in arts)
        meta_s = b.metadata_lookup_s + len(arts) * b.metadata_per_row_s
        closed_form = meta_s + nbytes / b.local_bytes_per_s
        for r in (local, hybrid):
            if (r.query_id, r.author, r.article_ids, r.bytes_moved) != (qid, author, ids, nbytes):
                fails.append(f"{rec.name} query {qid} ({r.protocol.value}): articles "
                             f"{r.article_ids}, {r.bytes_moved} bytes; scan gives {ids}, "
                             f"{nbytes} bytes")
        if not math.isclose(local.latency_s, closed_form, rel_tol=1e-12):
            fails.append(f"{rec.name} query {qid}: local latency {local.latency_s!r}, "
                         f"closed form {closed_form!r}")
        # 1 ns absorbs the rounding of latency - meta_s - transfer_s.
        if hybrid.latency_s < hybrid.meta_s + hybrid.transfer_s - 1e-9:
            fails.append(f"{rec.name} query {qid}: hybrid latency {hybrid.latency_s!r} below "
                         f"meta + transfer {hybrid.meta_s + hybrid.transfer_s!r}")
    sums, _, _ = _epoch_rows(rec.sim, scratch_dir)
    fetch = sums.get(str(QUERY_LABEL), [0, 0, 0, 0])
    if fetch[1] != sum(rec.sim.injected_sizes) or fetch[2] != 0:
        fails.append(f"{rec.name}: link delivered {fetch[1]} fetch bytes and dropped "
                     f"{fetch[2]}; the fetched articles hold {sum(rec.sim.injected_sizes)}")
    return fails


def check_s2(congested, idle) -> list[str]:
    """The s2 criteria from the query rows: hybrid loses on the congested
    link by mean latency and wins on the idle one by median latency."""
    def lat(ex, side):
        return [row[side].latency_s for row in ex.rows]

    fails = []
    c_local, c_hybrid = lat(congested.experiment, 0), lat(congested.experiment, 1)
    if not statistics.fmean(c_hybrid) > statistics.fmean(c_local):
        fails.append(f"{congested.name}: hybrid mean {statistics.fmean(c_hybrid)!r} does "
                     f"not exceed local mean {statistics.fmean(c_local)!r}")
    i_local, i_hybrid = lat(idle.experiment, 0), lat(idle.experiment, 1)
    if not _nearest_rank(i_hybrid, 0.5) < _nearest_rank(i_local, 0.5):
        fails.append(f"{idle.name}: hybrid p50 {_nearest_rank(i_hybrid, 0.5)!r} not below "
                     f"local p50 {_nearest_rank(i_local, 0.5)!r}")
    return fails


def check_round(name: str, rr, scratch_dir) -> list[str]:
    """Every check that applies to a round of the named workload."""
    fails = []
    for rec in rr.sims:
        fails += check_sim(rec, scratch_dir)
    for rec in rr.experiments:
        fails += check_experiment(rec, scratch_dir)
    if name == "s1-histogram":
        fails += check_s1(rr, scratch_dir)
    if name == "s2-hybrid-db":
        pairs = defaultdict(dict)
        for rec in rr.experiments:
            seed, kind = rec.name.split("/")
            pairs[seed][kind] = rec
        for p in pairs.values():
            fails += check_s2(p["congested"], p["idle"])
    return fails
