import csv
import dataclasses
import hashlib
import heapq
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hcqsim
from hcqsim.columns import EpochColumn
from hcqsim.control import (
    ControlDecision,
    CostWeights,
    ExcitationController,
    FixedShareController,
    MpcController,
    StateSpaceModel,
)
from hcqsim.netsim import (
    CONTROL_LABEL,
    MAX_EPOCHS,
    EPOCH_CSV_HEADER,
    FeedbackMode,
    LinkSimulator,
    LinkSpec,
    SimMetrics,
    SimulationError,
    run_simulation,
)
from hcqsim.runner import build_trace, run_open
from hcqsim.scenarios import s2_congested_config
from hcqsim.traffic import (
    AppKind,
    ClassProfile,
    FlowEvent,
    SizeDistribution,
    Trace,
    TrafficClassLabel,
    TrafficProfile,
    Zone,
    ZoneClass,
    canonical_class_order,
    classify,
    generate_trace,
)

A_WEB = TrafficClassLabel(ZoneClass.A, AppKind.WEB)
B_FILE = TrafficClassLabel(ZoneClass.B, AppKind.FILE)

A_ENDPOINTS = (Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD)
B_ENDPOINTS = (Zone.PRIVATE_CLOUD, Zone.PUBLIC_CLOUD)


def make_flow(fid, t, size, label=A_WEB):
    src, dst = A_ENDPOINTS if label.zone_class is ZoneClass.A else B_ENDPOINTS
    return FlowEvent(id=fid, arrival_time=t, size=size, src=src, dst=dst,
                     app=label.app_kind or AppKind.WEB)


def regular_flows(label, rate_per_s, size, duration, start=0.0, fid0=0):
    """Deterministic equally-spaced arrivals."""
    flows = []
    period = 1.0 / rate_per_s
    t = start
    fid = fid0
    while t < duration:
        flows.append(make_flow(fid, t, size, label))
        fid += 1
        t += period
    return flows


def toy_model_weights(k):
    """A plant-agnostic model/weights pair of the right shape."""
    n = 2 * k
    A = 0.5 * np.eye(n)
    B = np.zeros((n, k))
    for i in range(k):
        B[i, i] = -0.3
        B[k + i, i] = 0.5
    Q = np.eye(n)
    R = 0.05 * np.eye(k)
    x_ref = np.array([0.0] * k + [0.5] * k)
    return StateSpaceModel(A, B), CostWeights(Q=Q, R=R, x_ref=x_ref)


class TestBasics:
    def test_empty_trace_all_zero_metrics(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        m = run_simulation([], link, FeedbackMode.OPEN, classes=[A_WEB], n_epochs=5)
        assert m.arrived_bytes() == 0
        assert m.delivered_bytes() == 0
        assert m.dropped_bytes() == 0
        assert m.link_utilization == [0.0] * 5
        m.assert_conservation()

    def test_link_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(capacity_bps=0, queue_capacity_bytes=1)
        with pytest.raises(ValueError):
            LinkSpec(capacity_bps=1e6, queue_capacity_bytes=0)
        with pytest.raises(ValueError):
            LinkSpec(capacity_bps=1e6, queue_capacity_bytes=1, epoch_s=0)

    @pytest.mark.parametrize("field,value,message", [
        # Each of these ran: NaN epochs delivered nothing, an infinite epoch
        # emptied a deque, NaN or infinite delays gave NaN or infinite
        # latencies, a NaN capacity failed to convert, an infinite one gave
        # zero latencies, and a float queue size raised a TypeError mid-run.
        ("epoch_s", math.nan, "epoch_s must be finite, got nan"),
        ("epoch_s", math.inf, "epoch_s must be finite, got inf"),
        ("propagation_delay_s", math.nan, "propagation_delay_s must be finite, got nan"),
        ("propagation_delay_s", math.inf, "propagation_delay_s must be finite, got inf"),
        ("capacity_bps", math.nan, "capacity_bps must be finite, got nan"),
        ("capacity_bps", math.inf, "capacity_bps must be finite, got inf"),
        ("capacity_bps", -math.inf, "capacity_bps must be > 0, got -inf"),
        ("queue_capacity_bytes", 1000.0, "queue_capacity_bytes must be an integer, got 1000.0"),
        ("queue_capacity_bytes", math.nan, "queue_capacity_bytes must be an integer, got nan"),
    ])
    def test_link_spec_refuses_non_finite_values_and_a_float_queue(self, field, value, message):
        kwargs = dict(capacity_bps=8e6, queue_capacity_bytes=10**6,
                      propagation_delay_s=0.001, epoch_s=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinkSpec(**kwargs)

    def test_half_load_open_no_drops_util_half(self):
        # Offered load 0.5x capacity: long-run accounting must sit near 0.5
        # utilization with zero drops.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=4 * 10**6)  # 1e6 B/s
        profile = TrafficProfile((
            ClassProfile(A_WEB, 10.0, SizeDistribution(family="exponential", mean_bytes=5e4)),
        ))
        trace = generate_trace(profile, 200.0, seed=42)
        m = run_simulation(trace, link, FeedbackMode.OPEN, n_epochs=200)
        assert m.dropped_bytes() == 0
        util = sum(m.link_utilization) / len(m.link_utilization)
        assert util == pytest.approx(0.5, abs=0.05)
        m.assert_conservation()

    def test_determinism_bit_identical(self, tmp_path):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        profile = TrafficProfile((
            ClassProfile(A_WEB, 20.0, SizeDistribution(family="lognormal", mean_bytes=4e4,
                                                       sigma=1.0), burst_s=2.0, idle_s=1.0),
        ))
        trace = generate_trace(profile, 60.0, seed=5)
        out = []
        for run in range(2):
            m = run_simulation(trace, link, FeedbackMode.OPEN, n_epochs=60)
            p = tmp_path / f"epochs{run}.csv"
            m.write_epochs_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]


class TestScheduler:
    def test_all_capacity_to_one_class_starves_other(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        trace = regular_flows(A_WEB, 20.0, 50_000, 10.0) + \
            regular_flows(B_FILE, 20.0, 50_000, 10.0, fid0=10_000)
        trace.sort(key=lambda f: f.arrival_time)
        controller = FixedShareController((1.0, 0.0))
        m = run_simulation(trace, link, FeedbackMode.OPEN if False else FeedbackMode.CLOSED,
                           controller=controller, classes=[A_WEB, B_FILE], n_epochs=10)
        assert m.totals[B_FILE].delivered == 0
        assert m.totals[A_WEB].delivered > 0
        m.assert_conservation()

    def test_zero_shares_idle_link(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        trace = regular_flows(A_WEB, 10.0, 10_000, 5.0)
        controller = FixedShareController((0.0,))
        m = run_simulation(trace, link, FeedbackMode.CLOSED, controller=controller,
                           classes=[A_WEB], n_epochs=5)
        assert m.delivered_bytes() == 0
        assert m.totals[A_WEB].queued + m.totals[A_WEB].dropped == m.totals[A_WEB].arrived

    def test_uniform_shares_equal_delivery_when_saturated(self):
        # Identical saturating arrivals + equal integer budgets: delivered
        # bytes match exactly when budgets exhaust mid-epoch.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)  # 1e6 B/s
        trace = regular_flows(A_WEB, 40.0, 50_000, 20.0) + \
            regular_flows(B_FILE, 40.0, 50_000, 20.0, fid0=10_000)
        trace.sort(key=lambda f: f.arrival_time)
        controller = FixedShareController((0.45, 0.45))
        m = run_simulation(trace, link, FeedbackMode.CLOSED, controller=controller,
                           classes=[A_WEB, B_FILE], n_epochs=20)
        assert m.totals[A_WEB].delivered == m.totals[B_FILE].delivered
        assert m.totals[A_WEB].delivered == 20 * 450_000
        # At sum(u) == 1 a budget can exhaust exactly on a boundary, where
        # the segment cut may strand sub-byte progress: rounding stays
        # within k bytes per class per epoch.
        controller = FixedShareController((0.5, 0.5))
        m = run_simulation(trace, link, FeedbackMode.CLOSED, controller=controller,
                           classes=[A_WEB, B_FILE], n_epochs=20)
        a, b = m.classes.index(A_WEB), m.classes.index(B_FILE)
        for d in m.delivered:
            assert abs(d[a] - d[b]) <= 2
            assert d[a] >= 500_000 - 2 and d[b] >= 500_000 - 2

    def test_strict_priority_within_caps(self):
        # Both classes saturating, shares sum below 1: the higher-priority
        # class is served first but both are capped by their budgets.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        trace = regular_flows(A_WEB, 40.0, 50_000, 10.0) + \
            regular_flows(B_FILE, 40.0, 50_000, 10.0, fid0=10_000)
        trace.sort(key=lambda f: f.arrival_time)
        controller = FixedShareController((0.3, 0.4), priority_order=(1, 0))
        m = run_simulation(trace, link, FeedbackMode.CLOSED, controller=controller,
                           classes=[A_WEB, B_FILE], n_epochs=10)
        assert m.totals[A_WEB].delivered == 10 * 300_000
        assert m.totals[B_FILE].delivered == 10 * 400_000
        m.assert_conservation()

    def test_capacity_respect_per_epoch(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        trace = regular_flows(A_WEB, 60.0, 60_000, 15.0)
        m = run_simulation(trace, link, FeedbackMode.OPEN, n_epochs=15)
        per_epoch_cap = link.bytes_per_epoch + m.max_flow_size
        assert all(sum(row) <= per_epoch_cap for row in m.delivered)

    def test_invalid_decision_rejected(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        controller = FixedShareController((0.8, 0.8))  # sums above 1
        trace = regular_flows(A_WEB, 5.0, 1000, 2.0)
        with pytest.raises(SimulationError):
            run_simulation(trace, link, FeedbackMode.CLOSED, controller=controller,
                           classes=[A_WEB, B_FILE], n_epochs=2)

    def test_drop_tail_partial_accept(self):
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000)  # 1000 B/s
        flows = [make_flow(0, 0.0, 8_000), make_flow(1, 0.0, 8_000)]
        m = run_simulation(flows, link, FeedbackMode.OPEN, n_epochs=1)
        c = m.totals[A_WEB]
        assert c.arrived == 16_000
        # the second flow only fits partially: 10000 - 8000 + (1000 served
        # byte budget during the first second is irrelevant at t=0)
        assert c.dropped == 6_000 - 0  # 16000 - 10000 accepted at t=0
        m.assert_conservation()


def reference_write_epochs_csv(m, path):
    """The epoch CSV written one csv.writer row at a time."""
    per_epoch = m.link.bytes_per_epoch
    names = [str(label) for label in m.classes]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EPOCH_CSV_HEADER)
        columns = zip(m.arrived, m.delivered, m.dropped, m.queued, m.shares, m.ranks)
        for e, (arrived, delivered, dropped, queued, shares, ranks) in enumerate(columns):
            for i, name in enumerate(names):
                w.writerow([
                    e, name, arrived[i], delivered[i], dropped[i], queued[i],
                    "" if shares is None else "%.9g" % shares[i],
                    "" if ranks is None else ranks[i],
                    "%.9g" % (delivered[i] / per_epoch),
                ])


ALL_LABELS = canonical_class_order(
    [TrafficClassLabel(zc, ak) for zc in (ZoneClass.A, ZoneClass.B) for ak in AppKind]
    + [TrafficClassLabel(ZoneClass.C)])

# Shares as the writer may meet them: signed zeros, which compare equal but
# print "0" and "-0", subnormals, NaN and the infinities, ints and any float.
ODD_SHARES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1 / 3,
                     math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**70),
)
# Up to 2**62, so that a queued count (arrived + delivered below) fits the
# columns' int64.
BYTES = st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.integers(0, 2**62))
# Per class count k: a row of byte counts, of shares and of ranks.
BYTE_ROWS, SHARE_ROWS, RANK_ROWS = ({k: strategy(k) for k in range(1, 10)} for strategy in (
    lambda k: st.tuples(*[BYTES] * k),
    lambda k: st.tuples(*[ODD_SHARES] * k),
    lambda k: st.permutations(range(k)).map(tuple),
))


@st.composite
def epoch_columns(draw):
    """SimMetrics with 1 to 9 classes and up to 5 epoch rows, each row open
    (no shares or ranks) or closed, on a link with an odd epoch size."""
    classes = tuple(label for label in ALL_LABELS if draw(st.booleans())) or ALL_LABELS[-1:]
    k = len(classes)
    link = LinkSpec(capacity_bps=draw(st.sampled_from([8e3, 1e7, 3e9, 12345.678])),
                    queue_capacity_bytes=10**6,
                    epoch_s=draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3])))
    m = SimMetrics(scenario_id="csv", mode=FeedbackMode.CLOSED, seed=0, link=link,
                   classes=classes)
    for _ in range(draw(st.integers(0, 5))):
        arrived, delivered = draw(BYTE_ROWS[k]), draw(BYTE_ROWS[k])
        m.arrived.append(arrived)
        m.delivered.append(delivered)
        m.dropped.append(arrived[::-1])
        m.queued.append(tuple(a + d for a, d in zip(arrived, delivered)))
        closed = draw(st.booleans())
        m.shares.append(draw(SHARE_ROWS[k]) if closed else None)
        m.ranks.append(draw(RANK_ROWS[k]) if closed else None)
    return m


class TestEpochColumn:
    """An EpochColumn reads as the list of k-tuples it holds flat."""

    def test_reads_as_a_list_of_tuples(self):
        rows = [(1, 2, 3), (0, 0, 0), (2**63 - 1, -5, 7)]
        col = EpochColumn(3)
        for row in rows:
            col.append(row)
        assert col.flat == array("q", [1, 2, 3, 0, 0, 0, 2**63 - 1, -5, 7])
        assert len(col) == 3 and list(col) == rows and col == rows and rows == col
        assert [col[e] for e in range(-3, 3)] == rows + rows
        assert col[1:] == rows[1:] and col[::-2] == rows[::-2] and col[5:] == []
        assert repr(col) == repr(rows)
        assert col != rows[:2] and col != [list(row) for row in rows]
        with pytest.raises(IndexError):
            col[3]
        with pytest.raises(IndexError):
            col[-4]

    def test_columns_compare_by_rows(self):
        a, b, c = EpochColumn(2), EpochColumn(2), EpochColumn(1)
        assert a == b == c == []  # no rows, whatever k
        a.append((1, 2))
        b.append([1, 2])
        c.append((1,))
        c.append((2,))
        assert a == b and a.flat == c.flat and a != c

    def test_a_row_is_appended_whole_or_not_at_all(self):
        col = EpochColumn(2)
        col.append((4, 5))
        with pytest.raises(OverflowError):
            col.append((1, 2**63))
        with pytest.raises(ValueError, match="a row of 3 values for 2 classes"):
            col.append((1, 2, 3))
        assert col == [(4, 5)]
        with pytest.raises(ValueError, match="at least one class"):
            EpochColumn(0)


class TestEpochsCsv:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(epoch_columns())
    def test_same_bytes_as_one_row_at_a_time(self, tmp_path_factory, m):
        out = tmp_path_factory.getbasetemp()
        reference_write_epochs_csv(m, out / "want.csv")
        m.write_epochs_csv(out / "got.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_same_bytes_over_many_blocks(self, tmp_path):
        # 700 epochs span several blocks of rows; open and closed rows mix
        # within a block, and every share is one of a few values, as under
        # the MPC grid, with -0.0 after 0.0 has been seen.
        rng = random.Random("epoch csv")
        link = LinkSpec(capacity_bps=1e7, queue_capacity_bytes=10**6, epoch_s=0.5)
        classes = ALL_LABELS[:4]
        m = SimMetrics(scenario_id="csv", mode=FeedbackMode.CLOSED, seed=0, link=link,
                       classes=classes)
        for e in range(700):
            for col in (m.arrived, m.delivered, m.dropped, m.queued):
                col.append(tuple(rng.choice([0, 0, 256, rng.randrange(10**6)]) for _ in classes))
            closed = e < 300 or rng.random() < 0.7
            m.shares.append(tuple(rng.choice([0.0, 0.25, 0.5, -0.0 if e > 5 else 0.0, 1.0])
                                  for _ in classes) if closed else None)
            m.ranks.append(tuple(rng.sample(range(4), 4)) if closed else None)
        reference_write_epochs_csv(m, tmp_path / "want.csv")
        m.write_epochs_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert b",-0," in (tmp_path / "got.csv").read_bytes()


class _Recorder:
    """Wraps a controller, keeping a copy of every state it is handed and
    the shares of every decision it returns."""

    def __init__(self, inner):
        self.inner, self.m, self.seen = inner, inner.m, []

    def decide(self, x, epoch_index):
        decision = self.inner.decide(x, epoch_index)
        self.seen.append((x.copy(), decision.u))
        return decision


def _bits(history):
    return [(x.tobytes(), array("d", u).tobytes()) for x, u in history]


class TestObserveState:
    def test_zero_state_when_idle(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.OPEN)
        assert sim.metrics.observed_state(0).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_full_queue_saturated_class(self):
        # One class with a full queue that saturated its share: components
        # are exactly (1, share) with the other class at 0.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)  # 1e6 B/s
        trace = [make_flow(0, 0.0, 3 * 10**6)]  # overfills the queue
        controller = FixedShareController((0.5, 0.5))
        sim = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.CLOSED, controller=controller)
        sim.add_flows(trace)
        sim.run_epochs(1)
        # after one epoch: delivered 500000, queue refilled? queue had 1e6,
        # drained 5e5 -> 5e5 remain
        x = sim.metrics.observed_state(1)
        assert x[0] == pytest.approx(0.5)  # backlog fraction
        assert x[2] == pytest.approx(0.5)  # utilization == share
        assert x[1] == 0.0 and x[3] == 0.0

    def test_the_controller_saw_the_recorded_state(self):
        # The (x, u) pairs a run reports are derived from its epoch columns;
        # they must be, bit for bit, what its controller was handed and
        # returned: in a run taken in chunks with flows added between them
        # and control messages, in a run until idle, and in a warmup.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=2 * 10**6, epoch_s=0.5)
        labels = [A_WEB, B_FILE, CONTROL_LABEL]
        model, weights = toy_model_weights(3)
        flows = regular_flows(A_WEB, 30.0, 50_000, 6.0) + \
            regular_flows(B_FILE, 10.0, 80_000, 6.0, fid0=10_000)
        flows.sort(key=lambda f: f.arrival_time)
        later = regular_flows(B_FILE, 20.0, 60_000, 9.0, start=6.0, fid0=20_000)

        chunked = _Recorder(MpcController(model, weights, 3, 11))
        sim = LinkSimulator(link, labels, FeedbackMode.CLOSED, controller=chunked,
                            control_message_bytes=256)
        sim.add_flows(flows)
        sim.run_epochs(5)
        sim.add_flows(later)
        sim.run_epochs(7)
        chunks = sim.run_epochs(10)

        until_idle = _Recorder(FixedShareController((0.3, 0.6, 0.1), (2, 1, 0)))
        idle = run_simulation(flows, link, FeedbackMode.CLOSED, controller=until_idle,
                              classes=labels, control_message_bytes=256)

        warmup = _Recorder(ExcitationController(3, seed=4))
        excited = run_simulation(flows, link, FeedbackMode.CLOSED, controller=warmup,
                                 classes=labels, n_epochs=16, control_message_bytes=256)

        for rec, m in ((chunked, chunks), (until_idle, idle), (warmup, excited)):
            assert len(rec.seen) == m.n_epochs >= 12
            assert any(x.any() for x, _ in rec.seen[1:])
            assert _bits(m.state_history) == _bits(rec.seen)
            assert [u for _, u in m.state_history] == m.shares


class TestApplyDecision:
    def closed_sim(self):
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000)  # 1000 B/s
        return LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.CLOSED,
                             controller=FixedShareController((0.5, 0.5)))

    def test_wrong_length_rejected(self):
        sim = self.closed_sim()
        for u in ((1.0,), (0.2, 0.2, 0.2)):
            order = tuple(range(len(u)))
            with pytest.raises(SimulationError, match=f"decision has {len(u)} shares for 2 classes"):
                sim.apply_decision(ControlDecision(u=u, priority_order=order))

    def test_shares_outside_control_set_rejected(self):
        sim = self.closed_sim()
        for u in ((0.7, 0.7), (-0.1, 0.5), (1.1, 0.0), (math.nan, 0.0), (math.inf, 0.0)):
            with pytest.raises(SimulationError, match="decision shares outside the control set"):
                sim.apply_decision(ControlDecision(u=u, priority_order=(0, 1)))
        # within the 1e-9 tolerance
        sim.apply_decision(ControlDecision(u=(0.5, 0.5 + 1e-10), priority_order=(0, 1)))

    @pytest.mark.parametrize("via", ["query step", "flow callback"])
    def test_refused_while_an_epoch_runs(self, via):
        # Five 100 B B:File flows and one 100 B A:Web flow at 1000 B/s under
        # shares (0, 1), with a 50 B B:File flow whose completion callback
        # makes a decision giving A:Web half the link. A query takes its next
        # step on its fetch's completion callback (hcqsim.hybriddb): as that
        # fetch, the flow is injected before the trace and is served first,
        # at 0.05 s; as a plain flow callback, it is injected after the trace
        # and is served last, at 0.55 s. The decision would change budgets
        # mid-epoch, which the event loop assumes never happens: unchecked,
        # it left A:Web waiting until 0.6 s instead of 0.2 s.
        sim = LinkSimulator(LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000),
                            [A_WEB, B_FILE], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.0, 1.0)))
        half = ControlDecision(u=(0.5, 0.5), priority_order=(0, 1))

        def decide(s, t):
            s.apply_decision(half)

        if via == "query step":
            sim.inject_flow(0.0, 50, B_FILE, callback=decide)
        sim.add_flows([make_flow(j, 0.0, 100, B_FILE) for j in range(5)]
                      + [make_flow(5, 0.0, 100, A_WEB)])
        if via == "flow callback":
            sim.inject_flow(0.0, 50, B_FILE, callback=decide)
        at = "0.05" if via == "query step" else "0.55"
        with pytest.raises(SimulationError, match=f"decision at t={at} inside epoch 0"):
            sim.run_epochs(1)

    def test_non_permutation_rejected(self):
        # The simulator's check is the only one: a ControlDecision and a
        # duck-typed decision reach it alike.
        sim = self.closed_sim()
        for order in ((0, 0), (1, 2), (0,), (0, 1, 2)):
            for decision in (SimpleNamespace(u=(0.5, 0.5), priority_order=order),
                             ControlDecision(u=(0.5, 0.5), priority_order=order)):
                with pytest.raises(SimulationError, match=r"invalid priority order: \("):
                    sim.apply_decision(decision)


class TestmodeAndDims:
    def test_closed_requires_matching_dims(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        model, weights = toy_model_weights(3)  # wrong: run has 2 classes
        trace = regular_flows(A_WEB, 5.0, 1000, 2.0)
        with pytest.raises(ValueError):
            run_simulation(trace, link, FeedbackMode.CLOSED,
                           controller=MpcController(model, weights, 3, 11),
                           classes=[A_WEB, B_FILE], n_epochs=2)

    def test_closed_refuses_model_with_wrong_state_count(self):
        # m = k shares but n = 3 states, not 2k = 4: the first decision
        # refuses the observed state before any epoch row is appended.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        B = np.array([[-0.3, 0.0], [0.0, -0.3], [0.5, 0.5]])
        model = StateSpaceModel(0.5 * np.eye(3), B)
        weights = CostWeights(Q=np.eye(3), R=0.05 * np.eye(2), x_ref=np.zeros(3))
        sim = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.CLOSED,
                            controller=MpcController(model, weights, 3, 11))
        sim.add_flows(regular_flows(A_WEB, 5.0, 1000, 2.0))
        with pytest.raises(ValueError, match="x must have length 3"):
            sim.run_epochs(2)
        assert sim.metrics.n_epochs == 0 and sim.metrics.state_history == []

    def test_open_rejects_controller(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        with pytest.raises(ValueError):
            LinkSimulator(link, [A_WEB], FeedbackMode.OPEN,
                          controller=FixedShareController((1.0,)))
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        with pytest.raises(SimulationError, match="open mode"):
            sim.apply_decision(ControlDecision(u=(1.0,), priority_order=(0,)))

    def test_open_rejects_control_messages(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        with pytest.raises(ValueError, match="open mode sends no control messages"):
            LinkSimulator(link, [A_WEB], FeedbackMode.OPEN, control_message_bytes=1024)
        with pytest.raises(ValueError, match="open mode sends no control messages"):
            run_simulation([], link, FeedbackMode.OPEN, classes=[A_WEB], n_epochs=5,
                           control_message_bytes=1024)

    def test_unknown_class_rejected(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        with pytest.raises(ValueError):
            sim.add_flows([make_flow(0, 0.0, 1000, B_FILE)])

    def test_unknown_class_names_its_first_flow(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        flows = [make_flow(3, 0.0, 10), make_flow(9, 0.5, 10, B_FILE),
                 make_flow(5, 0.2, 10, B_FILE)]
        with pytest.raises(ValueError, match="flow 9 has class B:File not configured"):
            sim.add_flows(flows)


class TestFeedbackOverhead:
    def test_messages_become_service_arrivals(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        controller = FixedShareController((0.5, 0.5))
        sim = LinkSimulator(link, [A_WEB, CONTROL_LABEL], FeedbackMode.CLOSED,
                            controller=controller, control_message_bytes=1024)
        sim.run_epochs(100)
        c = sim.metrics.totals[CONTROL_LABEL]
        assert c.control_arrived == 102_400
        assert sim.metrics.control_bytes_injected == 102_400

    def test_goodput_difference_equals_overhead_when_saturated(self):
        # Paired runs on a saturated link: the service class carries both
        # real traffic and the control messages under one share cap, so
        # every delivered control byte displaces exactly one goodput byte.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        trace = regular_flows(CONTROL_LABEL, 20.0, 10_000, 50.0) + \
            regular_flows(B_FILE, 40.0, 50_000, 50.0, fid0=10_000)
        trace.sort(key=lambda f: f.arrival_time)
        by_msg = {}
        for msg in (0, 2048):
            # sum(u) < 1 keeps budget exhaustion off the epoch boundary, so
            # per-epoch delivery is byte-exact in both runs
            controller = FixedShareController((0.1, 0.8), priority_order=(0, 1))
            sim = LinkSimulator(link, [CONTROL_LABEL, B_FILE], FeedbackMode.CLOSED,
                                controller=controller, control_message_bytes=msg)
            sim.add_flows(trace)
            m = sim.run_epochs(50)
            goodput = sum(c.delivered - c.control_delivered for c in m.totals.values())
            by_msg[msg] = (goodput, m.totals[CONTROL_LABEL].control_delivered,
                           m.control_bytes_injected)
        assert by_msg[2048][2] == 2048 * 50  # injected per the arithmetic contract
        overhead_delivered = by_msg[2048][1]
        assert 0 < overhead_delivered <= 2048 * 50
        assert by_msg[0][0] - by_msg[2048][0] == overhead_delivered


class TestConservationRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_configs_conserve(self, seed):
        rng = random.Random(f"cons/{seed}")
        labels = [A_WEB, B_FILE, TrafficClassLabel(ZoneClass.C)][: rng.randint(1, 3)]
        profiles = tuple(
            ClassProfile(
                lab,
                rate_per_s=rng.uniform(2.0, 30.0),
                size_dist=SizeDistribution(family="lognormal",
                                           mean_bytes=rng.uniform(5e3, 8e4),
                                           sigma=rng.uniform(0.3, 1.2)),
                burst_s=rng.uniform(0.5, 4.0),
                idle_s=rng.uniform(0.0, 3.0),
            )
            for lab in labels
        )
        link = LinkSpec(
            capacity_bps=rng.uniform(2e6, 2e7),
            queue_capacity_bytes=rng.randint(2 * 10**5, 4 * 10**6),
            propagation_delay_s=rng.uniform(0.0, 0.01),
            epoch_s=rng.choice([0.25, 0.5, 1.0]),
        )
        n_epochs = rng.randint(10, 30)
        trace = generate_trace(TrafficProfile(profiles), n_epochs * link.epoch_s, seed)
        mode = rng.choice(["open", "excite", "mpc"])
        if mode == "open":
            m = run_simulation(trace, link, FeedbackMode.OPEN, classes=labels,
                               n_epochs=n_epochs)
        elif mode == "excite":
            m = run_simulation(trace, link, FeedbackMode.CLOSED,
                               controller=ExcitationController(len(labels), seed),
                               classes=labels, n_epochs=n_epochs)
        else:
            model, weights = toy_model_weights(len(labels))
            m = run_simulation(trace, link, FeedbackMode.CLOSED,
                               controller=MpcController(model, weights, 3, 11),
                               classes=labels, n_epochs=n_epochs)
        m.assert_conservation()
        per_epoch_cap = link.bytes_per_epoch + m.max_flow_size
        assert all(sum(row) <= per_epoch_cap for row in m.delivered)


@st.composite
def lattice_runs(draw):
    """A small random run: up to three classes, a drop-prone link, and a
    trace whose arrivals sit on a quarter-epoch lattice that includes every
    epoch boundary and the horizon. Open mode, or closed under fixed random
    feasible shares and a random priority order."""
    labels = [A_WEB, B_FILE, TrafficClassLabel(ZoneClass.B, AppKind.DATABASE)]
    labels = labels[: draw(st.integers(1, 3))]
    k = len(labels)
    epoch_s = draw(st.sampled_from([0.25, 0.5, 1.0]))
    link = LinkSpec(capacity_bps=draw(st.sampled_from([8e3, 2.4e4, 8e4])),
                    queue_capacity_bytes=draw(st.integers(500, 20_000)),
                    propagation_delay_s=draw(st.sampled_from([0.0, 0.003])),
                    epoch_s=epoch_s)
    n_epochs = draw(st.integers(1, 6))
    arrivals = draw(st.lists(st.tuples(st.integers(0, 4 * n_epochs), st.integers(1, 6000),
                                       st.integers(0, k - 1)), max_size=40))
    trace = [make_flow(fid, q * epoch_s / 4, size, labels[c])
             for fid, (q, size, c) in enumerate(arrivals)]
    controller = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
        total = max(20, sum(weights))
        controller = FixedShareController([w / total for w in weights],
                                          draw(st.permutations(range(k))))
    return link, labels, n_epochs, trace, controller


def on_event_core(sim):
    """Keep sim's runs on the event core, the FIFO pass's reference: an open
    run that has not begun an epoch takes the pass otherwise. The routing
    predicate is the one seam for this, and it changes no output."""
    sim._takes_pass = lambda: False
    return sim


def assert_rows_conserve(m):
    """The FIFO pass makes no credit, replan or epoch call for
    conservation_checked to check, so check its ledger on every epoch row:
    each class's queued bytes are the last row's plus those arrived, less
    those delivered and dropped, and no count is negative."""
    backlog = (0,) * len(m.classes)
    for row in zip(m.arrived, m.delivered, m.dropped, m.queued):
        assert min(map(min, row)) >= 0
        arrived, delivered, dropped, queued = row
        backlog = tuple(q + a - d - x for q, a, d, x in zip(backlog, arrived, delivered, dropped))
        assert queued == backlog


def conservation_checked(sim):
    """Check every class's byte conservation after each call of `sim`'s
    methods that the event loop calls with the ledger settled: a credit, a
    replan (mid-epoch, after a completion or an arrival) and a whole epoch.
    These are the event core's, so the run is kept on it (see
    on_event_core)."""
    def checked(method):
        def run(*args):
            result = method(*args)
            for label, c in zip(sim.classes, sim.counters):
                assert c.conserved(), f"conservation violated mid-run for {label}"
            return result
        return run

    for name in ("_credit", "_replan", "_run_epoch"):
        setattr(sim, name, checked(getattr(sim, name)))
    return on_event_core(sim)


class TestPropertyRandomLattice:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lattice_runs())
    def test_conservation_and_budgets(self, case):
        link, labels, n_epochs, trace, controller = case
        mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
        sim = conservation_checked(LinkSimulator(link, labels, mode, controller=controller))
        sim.add_flows(trace)
        if controller is None:
            assert_rows_conserve(run_simulation(trace, link, mode, classes=labels,
                                                n_epochs=n_epochs))  # the FIFO pass
        m = sim.run_epochs(n_epochs)
        m.assert_conservation()
        if controller is not None:
            for row in m.delivered:
                for u, d in zip(controller.u, row):
                    assert d <= int(u * link.bytes_per_epoch + 1e-6)


class TestPropertyBoundarySnapshots:
    """Each epoch row is the ledger read at the epoch's end boundary."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lattice_runs())
    def test_rows_conserve_bytes_at_every_boundary(self, case):
        link, labels, n_epochs, trace, controller = case
        mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
        sim = LinkSimulator(link, labels, mode, controller=controller)
        sim.add_flows(trace)
        m = sim.run_epochs(n_epochs)
        k = len(m.classes)
        # A flow on a boundary opens the new epoch; one at the horizon is
        # not offered.
        offered = [[0] * k for _ in range(n_epochs)]
        for f in trace:
            e = int(f.arrival_time // link.epoch_s)
            if e < n_epochs:
                offered[e][m.classes.index(classify(f))] += f.size
        assert [list(row) for row in m.arrived] == offered
        backlog = [0] * k
        for e in range(n_epochs):
            for i in range(k):
                backlog[i] += m.arrived[e][i] - m.delivered[e][i] - m.dropped[e][i]
            assert list(m.queued[e]) == backlog


class TestEventOrdering:
    def test_tie_order_boundary_before_arrival(self):
        # An arrival at exactly an epoch boundary lands in the new epoch.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6, epoch_s=1.0)
        flows = [make_flow(0, 1.0, 1000)]
        m = run_simulation(flows, link, FeedbackMode.OPEN, classes=[A_WEB], n_epochs=3)
        arrived = [row[m.classes.index(A_WEB)] for row in m.arrived]
        assert arrived[0] == 0
        assert arrived[1] == 1000

    def test_arrival_at_horizon_not_offered(self):
        # The run covers [0, n_epochs * epoch_s); a flow at exactly the
        # horizon waits for a next run call, so it is not counted anywhere.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6, epoch_s=1.0)
        flows = [make_flow(0, 0.5, 100), make_flow(1, 2.0, 300)]
        m = run_simulation(flows, link, FeedbackMode.OPEN, classes=[A_WEB], n_epochs=2)
        assert m.arrived_bytes() == 100
        assert sum(map(sum, m.arrived)) == 100
        assert m.flows_offered == 1
        m.assert_conservation()

    @pytest.mark.parametrize("mode", [FeedbackMode.OPEN, FeedbackMode.CLOSED])
    def test_service_ending_on_a_boundary_is_taken_in_the_ending_epoch(self, mode):
        # At 1000 B/s, a 1000 B trace flow at t = 0 ends on boundary 1, and a
        # 750 B flow injected at 1.25 ends on boundary 2. Each counts in the
        # ending epoch's row. The callback runs at the boundary, inside
        # epoch 1: before its row and before epoch 2's decision. An open run
        # is made on the event core and on the FIFO pass.
        for core in (True, False) if mode is FeedbackMode.OPEN else (True,):
            self.check_service_ending_on_a_boundary(mode, core)

    def check_service_ending_on_a_boundary(self, mode, core):
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000,
                        propagation_delay_s=0.25, epoch_s=1.0)
        log = []

        class Logged(FixedShareController):
            def decide(self, x, epoch_index):
                log.append(("decide", epoch_index))
                return super().decide(x, epoch_index)

        def served(s, t):
            log.append(("served", s.now, t, s.metrics.n_epochs))
            with pytest.raises(SimulationError, match=refusal):
                s.apply_decision(ControlDecision(u=(1.0,), priority_order=(0,)))

        if mode is FeedbackMode.OPEN:
            sim = LinkSimulator(link, [A_WEB], mode)
            refusal = "open mode takes no control decisions"
        else:
            sim = LinkSimulator(link, [A_WEB], mode, controller=Logged((1.0,)))
            refusal = r"decision at t=2.0 inside epoch 1: decisions are installed only"
        sim.add_flows([make_flow(0, 0.0, 1000)])
        fid = sim.inject_flow(1.25, 750, A_WEB, callback=served)
        m = (conservation_checked(sim) if core else sim).run_epochs(3)
        assert m.delivered == [(1000,), (750,), (0,)]
        assert m.queued == [(0,), (0,), (0,)]
        assert list(m.latencies_s[A_WEB]) == [1.25, 1.0]  # exact: (end + delay) - arrival
        assert m.flows_completed == 2 and fid not in m.failed_flow_ids
        # now is the boundary, the delivery is a delay later, one row is done
        served_at = [("served", 2.0, 2.25, 1)]
        if mode is FeedbackMode.OPEN:
            assert log == served_at
        else:
            assert log == [("decide", 0), ("decide", 1), *served_at, ("decide", 2)]

    def test_conservation_checks_epoch_rows(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6, epoch_s=1.0)
        m = run_simulation([make_flow(0, 0.5, 100)], link, FeedbackMode.OPEN,
                           classes=[A_WEB], n_epochs=2)
        m.arrived.flat[0] += 1
        with pytest.raises(SimulationError, match="epoch rows disagree"):
            m.assert_conservation()


class TestClock:
    """The clock never goes back: a flow before `now`, or at a non-finite
    time, is refused at every entry point."""

    def test_inject_flow_before_now_rejected(self):
        # The completion callback of a 200 B flow injected at t = 3.0, which
        # runs at t = 3.2, injects a flow at t = 0.1.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**4)  # 1000 B/s
        sim = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.5, 0.5), (1, 0)))
        sim.inject_flow(3.0, 200, A_WEB, callback=lambda s, t: s.inject_flow(0.1, 400, B_FILE))
        with pytest.raises(ValueError, match="event time 0.1 is not finite or before now=3.2"):
            sim.run_epochs(5)
        for t in (3.0, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite or before now=3.2"):
                sim.inject_flow(t, 400, B_FILE)

    def test_inject_flow_after_a_run_refuses_before_now(self):
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**4)  # 1000 B/s
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        sim.run_epochs(2)
        for t in (1.0, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite or before now=2.0"):
                sim.inject_flow(t, 100, A_WEB)
        served = []
        sim.inject_flow(2.0, 100, A_WEB, callback=lambda s, t: served.append(t))  # at now
        sim.run_epochs(1)
        assert served == [2.1]

    def test_add_flows_before_now_names_the_first_flow(self):
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**4)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        sim.run_epochs(2)
        flows = [make_flow(4, 2.5, 10), make_flow(8, 1.5, 10), make_flow(6, 0.5, 10)]
        with pytest.raises(ValueError, match="flow 8 arrives at t=1.5, before now=2.0"):
            sim.add_flows(flows)
        sim.add_flows([make_flow(9, 2.0, 10)])  # at now: accepted
        assert sim.run_epochs(1).arrived == [(0,), (0,), (10,)]


class TestRunInParts:
    """A simulator keeps its epoch and clock between run calls."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lattice_runs(), st.data())
    def test_chunks_equal_one_call(self, case, data):
        link, labels, n_epochs, trace, controller = case
        mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
        cuts = sorted(data.draw(st.sets(st.integers(1, n_epochs - 1)))) if n_epochs > 1 else []
        outcomes = []
        for chunks in ([n_epochs], [b - a for a, b in zip([0, *cuts], [*cuts, n_epochs])]):
            sim = LinkSimulator(link, labels, mode, controller=controller)
            sim.add_flows(trace)
            for n in chunks:
                m = sim.run_epochs(n)
            assert sim.now == n_epochs * link.epoch_s
            outcomes.append(_outcome(m))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lattice_runs(), st.integers(1, 6))
    def test_run_until_idle_drains_the_rest(self, case, first):
        # Open only: a zero share would stall a closed run.
        link, labels, _, trace, _ = case
        whole = LinkSimulator(link, labels, FeedbackMode.OPEN)
        whole.add_flows(trace)
        idle = whole.run_until_idle()
        sim = LinkSimulator(link, labels, FeedbackMode.OPEN)
        sim.add_flows(trace)
        sim.run_epochs(first)
        m = sim.run_until_idle()
        assert m.flows_offered == len(trace)
        assert all(c.queued == 0 for c in sim.counters)
        if first <= idle.n_epochs:
            assert _outcome(m) == _outcome(idle)

    def test_more_epochs_than_a_run_may_take_are_refused(self):
        # Refused before the first epoch: nothing is recorded.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**5)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        with pytest.raises(ValueError, match="1,000,001 epochs are more than the 1,000,000"):
            sim.run_epochs(MAX_EPOCHS + 1)
        assert sim.metrics.n_epochs == 0 and sim.now == 0.0

    def test_second_run_epochs_continues_from_the_horizon(self):
        # 1000 B every 0.5 s for 4 s on a 1000 B/s link.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**5)
        flows = regular_flows(A_WEB, 2.0, 1000, 4.0)
        parts = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        parts.add_flows(flows)
        parts.run_epochs(2)
        m = parts.run_epochs(2)
        assert m.arrived == [(2000,)] * 4
        assert m.arrived_bytes() == 8000
        assert parts.now == 4.0
        whole = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        whole.add_flows(flows)
        assert _outcome(whole.run_epochs(4)) == _outcome(m)

    def test_max_epochs_exceeded(self):
        # A 0.001 share of 1000 B/s serves 1 B per epoch: 100 B take 100
        # epochs. (A zero share stalls instead; see TestStall.)
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.001,)))
        sim.add_flows([make_flow(0, 0.5, 100)])
        with pytest.raises(SimulationError, match="exceeded max_epochs=50 without draining"):
            sim.run_until_idle(max_epochs=50)

    def test_max_epochs_checked_before_the_idle_test(self):
        # 50,500 B at 1000 B/s drain in epoch 50: boundary 51 is idle but
        # past max_epochs=50.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**5)
        sims = [LinkSimulator(link, [A_WEB], FeedbackMode.OPEN) for _ in range(2)]
        for sim in sims:
            sim.add_flows([make_flow(0, 0.0, 50_500)])
        with pytest.raises(SimulationError, match="exceeded max_epochs=50 without draining"):
            sims[0].run_until_idle(max_epochs=50)
        assert sims[1].run_until_idle(max_epochs=51).n_epochs == 51


class TestStall:
    """A closed run that can never drain fails at its first repeated epoch."""

    def test_zero_share_fails_fast(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.0,)))
        sim.add_flows([make_flow(0, 0.5, 100)])
        t0 = time.perf_counter()
        with pytest.raises(SimulationError, match=r"stalled in epoch 1: .*A:Web \(100 B\)$"):
            sim.run_until_idle()
        assert time.perf_counter() - t0 < 0.1
        assert sim.metrics.n_epochs == 2

    def test_names_every_class_holding_bytes(self):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.0, 0.0)))
        sim.add_flows([make_flow(0, 0.5, 100), make_flow(1, 2.5, 200, B_FILE)])
        with pytest.raises(SimulationError,
                           match=r"stalled in epoch 3: .*A:Web \(100 B\), B:File \(200 B\)$"):
            sim.run_until_idle()

    def test_dropped_control_messages_stall_once_the_queue_is_full(self):
        # The zero-share control class holds a 100 B flow and each epoch's
        # 300 B message until its 1000 B are full (epoch 2); epoch 3 drops
        # the message and changes nothing else.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=1000)
        sim = LinkSimulator(link, [CONTROL_LABEL], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.0,)), control_message_bytes=300)
        sim.add_flows([make_flow(0, 0.5, 100, CONTROL_LABEL)])
        with pytest.raises(SimulationError, match=r"stalled in epoch 3: .*\(1000 B\)$"):
            sim.run_until_idle()
        assert sim.metrics.dropped == [(0,), (0,), (0,), (300,)]

    def test_served_control_messages_do_not_hide_a_stall(self):
        # Each epoch delivers its 256 B control message while A:Web holds
        # 100 B at share 0: epoch 1 has no other arrival and repeats.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB, CONTROL_LABEL], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.0, 0.5)),
                            control_message_bytes=256)
        sim.add_flows([make_flow(0, 0.5, 100)])
        t0 = time.perf_counter()
        with pytest.raises(SimulationError, match=r"stalled in epoch 1: .*A:Web \(100 B\)$"):
            sim.run_until_idle(max_epochs=20_000)
        assert time.perf_counter() - t0 < 0.1
        assert sim.metrics.delivered == [(0, 256), (0, 256)]

    def test_an_idle_epoch_is_not_a_stall(self):
        # The callback of a flow served in epoch 0 injects one at t = 3.5:
        # epochs 1 and 2 deliver nothing, hold nothing and end with the same
        # state, but an arrival is pending, so the run goes on.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.5,)))
        sim.inject_flow(0.5, 100, A_WEB, callback=lambda s, t: s.inject_flow(3.5, 100, A_WEB))
        m = sim.run_until_idle()
        assert m.delivered == [(100,), (0,), (0,), (100,)]

    def test_slow_share_still_drains(self):
        # 1 B per epoch is slow, not stalled.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10**6)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.CLOSED,
                            controller=FixedShareController((0.001,)))
        sim.add_flows([make_flow(0, 0.5, 20)])
        m = sim.run_until_idle()
        assert m.delivered_bytes() == 20 and m.n_epochs == 20


class _RecordingSim(LinkSimulator):
    """Logs epoch finalize and every flow offered, in the order offered,
    with its arrival time: a flow is offered when it joins its queue, or
    when it is dropped whole and its id joins failed_flow_ids. Completion
    callbacks log through the flows a test offers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self._queues = [_LoggedQueue(self) for _ in self._queues]
        self.metrics.failed_flow_ids = _LoggedIds(self)

    def _takes_pass(self):
        return False  # the log is of the event core's queue appends and epochs

    def _finalize_epoch(self):
        self.log.append((self.now, f"epoch {self.metrics.n_epochs}"))
        super()._finalize_epoch()


class _LoggedQueue(deque):
    def __init__(self, sim):
        super().__init__()
        self.sim = sim

    def append(self, j):
        self.sim.log.append((self.sim._arrival[j], f"arrival {self.sim._fid[j]}"))
        super().append(j)


class _LoggedIds(list):
    def __init__(self, sim):
        super().__init__()
        self.sim = sim

    def append(self, flow_id):
        j = self.sim._fid.index(flow_id)
        self.sim.log.append((self.sim._arrival[j], f"arrival {flow_id}"))
        super().append(flow_id)


class TestTraceCursor:
    def test_tie_rule_at_one_instant(self):
        # At t = 1.0 meet: epoch boundary 1, the service completion of a flow
        # injected at t = 0 (1e6 B at 1e6 B/s), a flow injected before the
        # trace was added, a trace flow, and a flow injected after it.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7, epoch_s=1.0)
        sim = _RecordingSim(link, [A_WEB], FeedbackMode.OPEN)
        sim.inject_flow(0.0, 10**6, A_WEB,
                        callback=lambda s, t: s.log.append((s.now, "served -1")))
        sim.inject_flow(1.0, 10, A_WEB)  # id -2
        sim.add_flows([make_flow(7, 1.0, 10)])
        sim.inject_flow(1.0, 10, A_WEB)  # id -3
        m = sim.run_epochs(2)
        assert [what for t, what in sim.log if t == 1.0] == [
            "served -1", "epoch 0",  # the boundary brings service up to t first
            "arrival -2",            # injected before add_flows: smaller seq
            "arrival 7",             # the trace flow
            "arrival -3",            # injected after add_flows
        ]
        assert m.delivered[0] == (10**6,)  # service ending on the boundary
        assert m.arrived[1] == (30,)

    def test_completion_before_arrival_at_one_instant(self):
        # 250,000 B injected at t = 0.25 end at 0.5 at 1e6 B/s, where a
        # trace flow arrives: the completion, taken from the plan, comes first.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7, epoch_s=1.0)
        sim = _RecordingSim(link, [A_WEB], FeedbackMode.OPEN)
        sim.inject_flow(0.25, 250_000, A_WEB,
                        callback=lambda s, t: s.log.append((s.now, "served -1")))
        sim.add_flows([make_flow(7, 0.5, 10)])
        sim.run_epochs(1)
        assert [what for t, what in sim.log if t == 0.5] == ["served -1", "arrival 7"]

    def test_arrival_runs_stop_at_heap_events(self):
        # The link is busy over [0, 0.5); trace flows arrive every 0.1 s
        # around two injected flows. The recorder logs each arrival as it
        # joins the queue, so the log is the order of offer: the heap
        # entries come between the trace flows in time order.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7, epoch_s=1.0)
        sim = _RecordingSim(link, [A_WEB], FeedbackMode.OPEN)
        sim.inject_flow(0.0, 500_000, A_WEB)  # id -1
        sim.add_flows([make_flow(j, j / 10, 10) for j in range(1, 5)])
        sim.inject_flow(0.25, 10, A_WEB)  # id -2
        sim.inject_flow(0.35, 10, A_WEB)  # id -3
        sim.run_epochs(1)
        assert [what for _, what in sim.log] == [
            "arrival -1", "arrival 1", "arrival 2", "arrival -2", "arrival 3", "arrival -3",
            "arrival 4", "epoch 0"]

    def test_each_epoch_ends_at_a_budget_limited_serve(self):
        # A 1000 B flow under a 300 B budget per epoch: each epoch serves
        # the flow until its budget runs out, which completes no flow; the
        # first begins with the flow's arrival on the idle link.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000, epoch_s=1.0)
        sim = conservation_checked(_RecordingSim(link, [A_WEB], FeedbackMode.CLOSED,
                                                 controller=FixedShareController((0.3,))))
        sim.add_flows([make_flow(0, 0.0, 1000)])
        m = sim.run_epochs(3)
        assert sim.log == [(0.0, "arrival 0"), (1.0, "epoch 0"), (2.0, "epoch 1"),
                           (3.0, "epoch 2")]
        assert m.delivered == [(300,)] * 3 and m.queued[-1] == (100,)
        assert m.flows_completed == 0 and list(m.latencies_s[A_WEB]) == []
        m = sim.run_epochs(1)
        assert m.delivered[-1] == (100,) and list(m.latencies_s[A_WEB]) == [3.1]

    def test_injected_flow_dropped_whole_leaves_no_entry(self):
        # The trace flow fills the queue at t = 0; the injected flow behind
        # it at the same instant is dropped whole.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=1000, epoch_s=1.0)
        sim = _RecordingSim(link, [A_WEB], FeedbackMode.OPEN)
        sim.add_flows([make_flow(0, 0.0, 1000)])
        served = []
        fid = sim.inject_flow(0.0, 500, A_WEB, callback=lambda s, t: served.append(t))
        m = sim.run_epochs(2)
        assert sim.log == [(0.0, "arrival 0"), (0.0, f"arrival {fid}"), (1.0, "epoch 0"),
                           (2.0, "epoch 1")]
        assert m.failed_flow_ids == [fid] and m.totals[A_WEB].dropped == 500
        assert served == [] and sim._callbacks == {}

    def test_second_add_flows_keeps_seq_order_on_ties(self):
        # Flows of the first call come first at a shared instant, as they
        # did when each flow took a heap entry; the queue holds only one.
        # The event core logs the order of offer; the FIFO pass offers in
        # the same order, so its outputs are the same.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=1000, epoch_s=1.0)
        core = _RecordingSim(link, [A_WEB, B_FILE], FeedbackMode.OPEN)
        fifo = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.OPEN)
        for sim in (core, fifo):
            sim.add_flows([make_flow(1, 0.5, 800), make_flow(2, 0.75, 10)])
            sim.add_flows([make_flow(3, 0.5, 800, B_FILE), make_flow(4, 0.25, 10, B_FILE)])
        m, passed = core.run_epochs(2), fifo.run_epochs(2)
        assert [what for t, what in core.log if what.startswith("arrival")] == [
            "arrival 4", "arrival 1", "arrival 3", "arrival 2"]
        assert _outcome(passed) == _outcome(m)
        assert m.totals[A_WEB].dropped == 0
        assert m.totals[B_FILE].dropped > 0

    def test_trace_flows_never_enter_the_heap(self, monkeypatch):
        pushed = []
        heappush = heapq.heappush

        def recording_push(heap, item):
            pushed.append(item)
            heappush(heap, item)

        monkeypatch.setattr(heapq, "heappush", recording_push)
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**7)
        sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        flows = regular_flows(A_WEB, 100.0, 1000, 50.0)
        sim.add_flows(flows)
        heap_sizes = []
        for t in (0.5, 10.5, 40.5):
            sim.inject_flow(t, 10, A_WEB, callback=lambda s, now: heap_sizes.append(len(s._heap)))
        m = sim.run_epochs(50)
        n = len(flows)
        assert m.flows_offered == n + 3 and n > 4000
        # Only the injected flows, as (time, seq, entry), each until it
        # arrives: trace flows, boundaries and completions are never pushed.
        assert pushed == [(0.5, n + 1, n), (10.5, n + 2, n + 1), (40.5, n + 3, n + 2)]
        assert heap_sizes == [2, 1, 0]

    def test_unread_trace_keeps_run_until_idle_going(self):
        # The link is idle at boundaries 1..3; the flow at t = 3.25 is
        # still in the cursor, so the run goes on.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6, epoch_s=1.0)
        m = run_simulation([make_flow(0, 0.1, 100), make_flow(1, 3.25, 200)], link,
                           FeedbackMode.OPEN, classes=[A_WEB])
        assert m.delivered_bytes() == 300
        assert m.n_epochs == 4

    def test_add_flows_mid_run_merges_with_the_cursor(self):
        # The late flows are added mid-run by the completion callback of a
        # 10 B flow injected at t = 1.6, which runs inside an epoch; the run
        # given every flow up front injects the same flow.
        link = LinkSpec(capacity_bps=8e4, queue_capacity_bytes=20_000, epoch_s=0.5)
        early = regular_flows(A_WEB, 7.0, 900, 6.0)
        late = regular_flows(B_FILE, 5.0, 1100, 6.0, start=2.01, fid0=1000)
        added = []

        def add_late(s, t):
            added.append(t)
            s.add_flows(late)

        whole = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.OPEN)
        whole.add_flows(sorted(early + late, key=lambda f: f.arrival_time))
        whole.inject_flow(1.6, 10, A_WEB)
        split = LinkSimulator(link, [A_WEB, B_FILE], FeedbackMode.OPEN)
        split.add_flows(early)
        split.inject_flow(1.6, 10, A_WEB, callback=add_late)
        assert _outcome(whole.run_epochs(12)) == _outcome(split.run_epochs(12))
        assert len(added) == 1 and 1.6 < added[0] < 2.0

    def test_trace_added_in_parts_takes_one_entry_per_flow(self):
        # Each part is merged with the unread rest of the cursor; the rest's
        # old entries are reused unless an injected flow follows them.
        link = LinkSpec(capacity_bps=8e4, queue_capacity_bytes=20_000, epoch_s=0.5)
        flows = regular_flows(A_WEB, 7.0, 900, 6.0)[:40]
        whole = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        whole.add_flows(flows)
        whole.inject_flow(1.0, 500, A_WEB)
        parts = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
        sizes = []
        for j in range(0, len(flows), 10):
            parts.add_flows(flows[j:j + 10])
            sizes.append(len(parts._cls))
        assert sizes == list(range(10, len(flows) + 1, 10))
        parts.inject_flow(1.0, 500, A_WEB)
        parts.add_flows([])  # the injected flow keeps its entry; the cursor moves past it
        assert len(parts._cls) == 2 * len(flows) + 1
        assert _outcome(whole.run_epochs(12)) == _outcome(parts.run_epochs(12))

    def test_a_range_of_ids_is_stored_as_its_list(self):
        # A range is written as one block of int64s, a list one id at a
        # time; a start other than 0 and a step over 1 must survive both.
        link = LinkSpec(capacity_bps=8e4, queue_capacity_bytes=20_000, epoch_s=0.5)
        flows = Trace.from_flows(regular_flows(A_WEB, 7.0, 900, 2.0, fid0=5))
        ids = range(-3, -3 + 7 * len(flows), 7)
        tables = []
        for col in (ids, list(ids), array("q", ids)):
            sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
            sim.add_flows(Trace(flows.time, flows.size, flows.endpoint, col))
            tables.append(sim._fid)
        assert tables[0] == tables[1] == tables[2] == array("q", ids)
        assert len(ids) > 10 and ids[0] == -3 and ids[1] == 4


class TestPathSelection:
    """An open run that has not begun an epoch takes the FIFO pass, which
    makes no event core call, whatever it holds; every other run takes the
    event core. A change that sent such runs back to the event core would
    lose the pass and fail here."""

    LINK = LinkSpec(capacity_bps=8e4, queue_capacity_bytes=20_000, epoch_s=0.5)
    FLOWS = regular_flows(A_WEB, 7.0, 900, 6.0) + regular_flows(B_FILE, 5.0, 1100, 6.0,
                                                                 start=0.01, fid0=1000)

    def calls(self, core_calls, prepare, controller=None, until_idle=False):
        """The event core epochs run by a run of FLOWS made ready by prepare."""
        mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
        sim = LinkSimulator(self.LINK, [A_WEB, B_FILE], mode, controller=controller)
        sim.add_flows(self.FLOWS)
        prepare(sim)
        core_calls.clear()
        if until_idle:
            sim.run_until_idle()
        else:
            sim.run_epochs(12)
        return len(core_calls)

    def test_a_bare_open_trace_takes_the_pass(self, core_calls):
        m = run_simulation(self.FLOWS, self.LINK, FeedbackMode.OPEN, n_epochs=12)
        assert m.flows_offered == len(self.FLOWS) and core_calls == []
        cfg = s2_congested_config(3)
        m = run_open(cfg, build_trace(cfg), cfg.classes())
        assert m.flows_offered > 1000 and core_calls == []

    def test_an_open_run_with_callbacks_takes_the_pass(self, core_calls):
        def fetch(sim):  # a callback that adds a flow and chains two fetches
            def served(s, t):
                s.add_flows([make_flow(5000, t + 0.25, 400)])
                s.inject_flow(t, 300, B_FILE,
                              callback=lambda s2, t2: s2.inject_flow(t2, 300, B_FILE))
            sim.inject_flow(1.0, 500, A_WEB, callback=served)

        for until_idle in (False, True):
            assert self.calls(core_calls, lambda sim: None, until_idle=until_idle) == 0
            assert self.calls(core_calls, lambda sim: sim.inject_flow(3.0, 100, A_WEB),
                              until_idle=until_idle) == 0
            assert self.calls(core_calls, fetch, until_idle=until_idle) == 0

    def test_every_other_run_takes_the_event_core(self, core_calls):
        assert self.calls(core_calls, on_event_core) > 0
        assert self.calls(core_calls, on_event_core, until_idle=True) > 0
        assert self.calls(core_calls, lambda sim: sim.run_epochs(1)) > 0  # a run that has begun
        assert self.calls(core_calls, lambda sim: sim.run_epochs(1), until_idle=True) > 0
        assert self.calls(core_calls, lambda sim: None,
                          FixedShareController((0.5, 0.5), (0, 1))) > 0
        model, weights = toy_model_weights(2)
        assert self.calls(core_calls, lambda sim: None, MpcController(model, weights, 3, 11)) > 0

    def test_only_a_run_that_takes_the_pass_loads_it(self):
        # hcqsim.fifo is imported by the first run that takes it, so a
        # process of closed runs never pays for the module. A fresh
        # interpreter shows what a run loads.
        script = "\n".join([
            "import json, sys",
            "from hcqsim.config import parse_config",
            "from hcqsim.runner import run_scenario",
            "with open(sys.argv[1]) as fh:",
            "    cfg = dict(json.load(fh), n_epochs=20)",
            "loaded = []",
            "for mode in ('closed', 'open'):",
            "    run_scenario(parse_config(dict(cfg, mode=mode)))",
            "    loaded.append('hcqsim.fifo' in sys.modules)",
            "print(loaded)",
        ])
        src = os.path.dirname(os.path.dirname(hcqsim.__file__))
        demo = os.path.join(os.path.dirname(__file__), os.pardir, "examples_config", "demo.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", script, demo],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out == "[False, True]\n"

    def test_byte_counts_past_2_53_stay_exact(self, core_calls):
        # The pass counts bytes in ints, as the event core does: 2**53 + 1 is
        # not a double, so a float sum would round it.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=2**62, epoch_s=1.0)
        sizes = [2**53 - 3, 2, 2]
        runs = []
        for held in (False, True):
            sim = LinkSimulator(link, [A_WEB], FeedbackMode.OPEN)
            sim.add_flows([make_flow(j, 0.25 * j, size) for j, size in enumerate(sizes)])
            if held:
                assert core_calls == []  # the pass took the first run
                on_event_core(sim)
            runs.append(_outcome(sim.run_epochs(2)))
        assert runs[0] == runs[1] and runs[0][0][0][0] == (2**53 + 1,)


def _outcome(m):
    return ((m.arrived, m.delivered, m.dropped, m.queued, m.shares, m.ranks), m.totals,
            m.latencies_s, m.link_utilization, m.flows_offered, m.flows_completed,
            m.failed_flow_ids)


@st.composite
def three_inputs(draw):
    """A small run and one set of flows with distinct arrival times, given
    three ways: as a Trace, as a shuffled FlowEvent list, and as two
    shuffled lists that split the flows at random."""
    labels = [A_WEB, B_FILE, TrafficClassLabel(ZoneClass.C)][: draw(st.integers(1, 3))]
    k = len(labels)
    epoch_s = draw(st.sampled_from([0.25, 0.5]))
    link = LinkSpec(capacity_bps=draw(st.sampled_from([8e3, 2.4e4, 8e4])),
                    queue_capacity_bytes=draw(st.integers(500, 20_000)),
                    propagation_delay_s=draw(st.sampled_from([0.0, 0.003])),
                    epoch_s=epoch_s)
    n_epochs = draw(st.integers(1, 5))
    slots = draw(st.lists(st.integers(0, 100 * n_epochs), unique=True, max_size=30))
    flows = []
    for fid, q in enumerate(sorted(slots)):
        label = labels[draw(st.integers(0, k - 1))]
        src, dst = {ZoneClass.A: A_ENDPOINTS, ZoneClass.B: B_ENDPOINTS,
                    ZoneClass.C: (Zone.INTERNET, Zone.INTERNET)}[label.zone_class]
        flows.append(FlowEvent(id=fid, arrival_time=q * epoch_s / 100,
                               size=draw(st.integers(1, 6000)), src=src, dst=dst,
                               app=label.app_kind or draw(st.sampled_from(list(AppKind)))))
    shuffled = [flows[j] for j in draw(st.permutations(range(len(flows))))]
    first = draw(st.lists(st.booleans(), min_size=len(flows), max_size=len(flows)))
    parts = ([f for f, b in zip(shuffled, first) if b],
             [f for f, b in zip(shuffled, first) if not b])
    controller = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
        total = max(20, sum(weights))
        controller = FixedShareController([w / total for w in weights],
                                          draw(st.permutations(range(k))))
    # run_until_idle only open: a zero share stalls a closed run
    idle = controller is None and draw(st.booleans())
    return link, labels, n_epochs, idle, controller, Trace.from_flows(flows), shuffled, parts


class TestPropertyThreeInputs:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(three_inputs())
    def test_trace_list_and_split_agree(self, case):
        link, labels, n_epochs, idle, controller, trace, shuffled, parts = case
        mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
        outcomes = []
        # An open run takes the FIFO pass given the Trace or the parts, and
        # the event core, checked, given the shuffled list.
        for batches, held in (([trace], False), ([shuffled], True), (list(parts), False)):
            sim = LinkSimulator(link, labels, mode, controller=controller)
            if held or controller is not None:
                conservation_checked(sim)
            for batch in batches:
                sim.add_flows(batch)
            m = sim.run_until_idle() if idle else sim.run_epochs(n_epochs)
            assert_rows_conserve(m)
            outcomes.append(_outcome(m))
        assert outcomes[0] == outcomes[1] == outcomes[2]


def _run_with_credits(link, labels, controller, check, batches, n_epochs, instants):
    """Run n_epochs, or until idle when None, on the event core; before each
    credit the run makes, credit the live plan at each of the rising
    `instants` between its start and that credit's time. With `check`, byte
    conservation is checked after every credit, replan and epoch."""
    mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
    sim = LinkSimulator(link, labels, mode, controller=controller)
    (conservation_checked if check else on_event_core)(sim)
    credit = sim._credit

    def credit_at_instants(q, j, start, limit, done, t):
        for u in instants:
            if start <= u < t:
                done = credit(q, j, start, limit, done, u)
        return credit(q, j, start, limit, done, t)

    sim._credit = credit_at_instants
    for batch in batches:
        sim.add_flows(batch)
    return _outcome(sim.run_until_idle() if n_epochs is None else sim.run_epochs(n_epochs))


def _instants(seed, end):
    """Up to 30 random instants in [0, end), rising."""
    rng = random.Random(seed)
    return sorted(end * rng.random() for _ in range(rng.randint(1, 30)))


def _live_plan(rate, size, budget, control):
    """A closed simulator whose one queue holds one flow of `size` bytes,
    under `budget`, with the link at `rate` B/s; and the flow's entry."""
    link = LinkSpec(capacity_bps=8.0 * rate, queue_capacity_bytes=size)
    sim = LinkSimulator(link, [A_WEB], FeedbackMode.CLOSED,
                        controller=FixedShareController((1.0,)))
    j = sim._inject(0.0, 0, size)
    if control:
        sim._control.add(j)
    sim._budget[0], sim._queued_bytes[0] = budget, size
    c = sim.counters[0]
    c.arrived = c.queued = size
    return sim, j


def _credited(rate, size, budget, control, start, limit, instants):
    """What crediting a live plan of `limit` bytes from `start` at each of
    `instants` in turn leaves: the count, rem, queued bytes, budget and
    counters."""
    sim, j = _live_plan(rate, size, budget, control)
    done = 0
    for t in instants:
        done = sim._credit(0, j, start, limit, done, t)
    return (done, sim._rem[j], sim._queued_bytes[0], sim._budget[0],
            dataclasses.astuple(sim.counters[0]))


class TestPropertyPathIndependence:
    """Served bytes depend on the time alone: crediting a live plan at any
    rising run of instants leaves what one credit at the last instant
    leaves, so bringing service up to date at extra instants changes no
    output of a run."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from([1000.0, 1_234_567.89, 987.654321, 3125.5]),
                     st.floats(1.0, 1e9)),
           st.integers(1, 10**12), st.integers(0, 10**12), st.floats(0.0, 1e6),
           st.lists(st.floats(-0.1, 1.0, exclude_max=True), min_size=1, max_size=30),
           st.booleans(), st.data())
    def test_credit_at_rising_instants(self, rate, size, extra, start, fractions, control,
                                       data):
        limit = data.draw(st.integers(1, size))
        end = start + limit / rate
        instants = sorted(start + f * (end - start) for f in fractions)
        args = (rate, size, limit + extra, control, start, limit)
        one = _credited(*args, instants[-1:])
        assert _credited(*args, instants) == one
        done = one[0]
        assert done == max(0, min(limit - 1, int(rate * (instants[-1] - start))))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lattice_runs(), st.integers(0, 2**32 - 1), st.booleans())
    def test_lattice_runs(self, case, seed, check):
        link, labels, n_epochs, trace, controller = case
        instants = _instants(seed, n_epochs * link.epoch_s)
        outcomes = [_run_with_credits(link, labels, controller, check, [trace], n_epochs, i)
                    for i in ([], instants)]
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(three_inputs(), st.integers(0, 2**32 - 1), st.booleans())
    def test_three_inputs(self, case, seed, check):
        link, labels, n_epochs, idle, controller, trace, shuffled, parts = case
        instants = _instants(seed, n_epochs * link.epoch_s)
        outcomes = [_run_with_credits(link, labels, controller, check, list(parts),
                                      None if idle else n_epochs, i)
                    for i in ([], instants)]
        assert outcomes[0] == outcomes[1]

    def test_long_flow_at_an_odd_rate(self):
        # 10^8 B at 1,234,567.89 B/s spans 81 epochs; crediting its service
        # at 30 random instants too leaves every epoch row as it was.
        link = LinkSpec(capacity_bps=8 * 1_234_567.89, queue_capacity_bytes=2 * 10**8)
        flow = [make_flow(0, 0.1, 10**8)]
        instants = sorted(random.Random(5).uniform(0.0, 90.0) for _ in range(30))
        plain, credited = (_run_with_credits(link, [A_WEB], None, False, [flow], 90, i)
                           for i in ([], instants))
        assert plain == credited
        assert plain[1][A_WEB].delivered == 10**8


GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "golden_digests.json")
EVENT_CORE_KEY = "event-core"


def event_core_run(seed, core=True):
    """One small random run that leans on every corner of the event loop.

    Times sit on a 1/8 s lattice and most sizes last a whole number of
    lattice steps at the link's rate, so plan ends, trace arrivals,
    injected flows and epoch boundaries often meet at one instant. Queues
    are small enough to drop; closed runs take zero shares, shares summing
    to 1, random priority orders, changing shares (excitation) and control
    messages. Injected flows carry callbacks: fetches chain further
    fetches, and probes record the ledger, inject flows and add trace flows
    mid-run. Returns the metrics and the log of what the callbacks saw.
    With `core` the run is kept on the event core; without it, an open run
    takes the FIFO pass.
    """
    rng = random.Random(f"event-core/{seed}")
    b_db = TrafficClassLabel(ZoneClass.B, AppKind.DATABASE)
    labels = rng.sample([A_WEB, B_FILE, CONTROL_LABEL, b_db], rng.randint(1, 3))
    k = len(labels)
    rate = rng.choice([1000, 2000, 4000])  # B/s: rate // 8 B last one lattice step
    epoch_s = rng.choice([0.25, 0.5, 1.0])
    link = LinkSpec(capacity_bps=8.0 * rate,
                    queue_capacity_bytes=rng.randint(rate // 2, 3 * rate),
                    propagation_delay_s=rng.choice([0.0, 0.003]), epoch_s=epoch_s)
    n_epochs = rng.randint(3, 8)
    steps = int(n_epochs * epoch_s * 8)
    # Offered load 0.3, 0.8 or 2 times the link's rate; flows average rate / 4 B.
    n_flows = max(3, int(rng.choice([0.3, 0.8, 2.0]) * 4 * n_epochs * epoch_s))

    def instant(lo=0):
        return rng.randrange(lo, steps) / 8

    def size():
        if rng.random() < 0.7:
            return rate // 8 * rng.randint(1, 3)
        return rng.randint(1, rate // 2)

    def flows(n, fid0, lo=0):
        fs = [make_flow(fid0 + j, instant(lo), size(), rng.choice(labels)) for j in range(n)]
        return sorted(fs, key=lambda f: f.arrival_time)

    kind = rng.choice(["open", "fixed", "fixed", "excite"])
    controller, message = None, 0
    if kind == "fixed":
        weights = [rng.choice([0, 0, 1, 2, 3]) for _ in range(k)]
        total = sum(weights) if rng.random() < 0.4 else max(4, sum(weights))
        controller = FixedShareController([w / max(total, 1) for w in weights],
                                          rng.sample(range(k), k))
    elif kind == "excite":
        controller = ExcitationController(k, seed)
    if controller is not None and CONTROL_LABEL in labels and rng.random() < 0.7:
        message = rng.choice([100, 250, 700])
    mode = FeedbackMode.OPEN if controller is None else FeedbackMode.CLOSED
    sim = LinkSimulator(link, labels, mode, controller=controller, seed=seed,
                        control_message_bytes=message)
    if core:
        on_event_core(sim)
    log = []

    def fetch(t, depth):
        def delivered(s, when):
            log.append(("delivered", depth, when, s.now))
            if depth < 3 and rng.random() < 0.7:
                fetch(when + rng.choice([0.0, 0.125]), depth + 1)
        sim.inject_flow(t, size(), rng.choice(labels), callback=delivered)

    def probed(s, when):
        log.append(("probe", when, s.now, tuple(c.queued for c in s.counters),
                    tuple(c.delivered for c in s.counters)))
        r = rng.random()
        if r < 0.3:
            s.inject_flow(s.now, size(), rng.choice(labels))
        elif r < 0.5:
            s.add_flows([make_flow(5000 + len(log), s.now + rng.randrange(4) / 8, size(),
                                   rng.choice(labels))])

    def probe(t):
        sim.inject_flow(t, size(), rng.choice(labels), callback=probed)

    trace = flows(n_flows, 0)
    if rng.random() < 0.5:
        # A flow that, served alone, ends at t; a trace flow, an injected
        # flow and a probe at t too.
        t = instant(2)
        sim.inject_flow(t - 0.25, rate // 4, rng.choice(labels))
        trace = sorted([*trace, make_flow(900, t, size(), rng.choice(labels))],
                       key=lambda f: f.arrival_time)
        sim.inject_flow(t, size(), rng.choice(labels))
        probe(t)
    sim.add_flows(trace)
    for _ in range(rng.randint(0, 4)):
        fetch(instant(), 0)
    for _ in range(rng.randint(0, 5)):
        probe(instant())
    if controller is None or (kind == "fixed" and min(controller.u) >= 0.2 and not message):
        m = sim.run_until_idle(max_epochs=1000)
    else:
        first = rng.randint(1, n_epochs)
        sim.run_epochs(first)
        if first < n_epochs:
            sim.add_flows(flows(n_flows // 2, 1000, int(first * epoch_s * 8)))
            sim.run_epochs(n_epochs - first)
        m = sim.metrics
    return m, log


def metrics_digest(m, log) -> str:
    """SHA-256 over every epoch column, the per-class totals and latencies,
    failed_flow_ids, the counts, the observed states and decisions, and a
    log of callbacks."""
    blob = repr((
        (m.arrived, m.delivered, m.dropped, m.queued, m.shares, m.ranks),
        [dataclasses.astuple(m.totals[label]) for label in m.classes],
        [list(m.latencies_s[label]) for label in m.classes],
        m.failed_flow_ids, m.flows_offered, m.flows_completed, m.max_flow_size,
        [(x.tolist(), list(map(float, u))) for x, u in m.state_history],
        list(log),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def event_core_digests(core=True) -> dict:
    return {f"run-{seed:02d}": metrics_digest(*event_core_run(seed, core)) for seed in range(32)}


class TestEventCorePins:
    def test_small_runs_match_their_pins(self):
        with open(GOLDEN_DIGESTS) as fh:
            want = json.load(fh)[EVENT_CORE_KEY]
        got = event_core_digests()
        assert sorted(name for name in want if want[name] != got.get(name)) == []
        assert got.keys() == want.keys()

    def test_open_runs_on_the_pass_match_their_pins(self, core_calls):
        # The same runs, with the open ones on the FIFO pass: they must give
        # the pins made on the event core, and make no event core call.
        with open(GOLDEN_DIGESTS) as fh:
            want = json.load(fh)[EVENT_CORE_KEY]
        got, opened = {}, 0
        for seed in range(32):
            core_calls.clear()
            got[f"run-{seed:02d}"] = metrics_digest(*event_core_run(seed, core=False))
            opened += not core_calls
        assert sorted(name for name in want if want[name] != got.get(name)) == []
        assert opened >= 8  # open runs, none of which ran an event core epoch


class TestRunRecordMemory:
    def test_a_finished_open_run_keeps_about_8_bytes_per_number(self):
        # A run's records are typed columns: 8 bytes per latency and per
        # epoch column entry, and about 1/16 more while an array grows. Each
        # part is measured by what dropping it frees. As lists of floats and
        # of tuples they took about 33 bytes per latency.
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6, epoch_s=0.1)
        size = SizeDistribution(family="fixed", size_bytes=1000.0)
        profile = TrafficProfile((ClassProfile(A_WEB, 100.0, size),
                                  ClassProfile(B_FILE, 100.0, size)))
        trace = generate_trace(profile, 50.0, seed=8)
        run_simulation(generate_trace(profile, 1.0, seed=9), link, FeedbackMode.OPEN)  # warm
        tracemalloc.start()
        try:
            m = run_simulation(trace, link, FeedbackMode.OPEN)
            completed, entries = m.flows_completed, m.n_epochs * len(m.classes)
            kept = tracemalloc.get_traced_memory()[0]
            m.latencies_s = None
            without_latencies = tracemalloc.get_traced_memory()[0]
            m.arrived = m.delivered = m.dropped = m.queued = None
            without_columns = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert completed == len(trace) > 8_000 and entries >= 1000
        assert (kept - without_latencies) / completed <= 9
        assert (without_latencies - without_columns) / entries <= 4 * 9

    def test_a_finished_closed_run_keeps_no_second_copy_of_its_states(self):
        # Nine classes closed at fixed shares with control messages, idle but
        # for them: per epoch, four rows of nine int64 counts, a rank tuple,
        # two list slots, the message's flow table entry and its latency,
        # about 470 B. The states the controller saw are derived from the
        # columns; a stored (x, u) pair of arrays per epoch took about 500 B
        # more.
        link = LinkSpec(capacity_bps=1e7, queue_capacity_bytes=10**6, epoch_s=0.5)

        def run(n_epochs):
            sim = LinkSimulator(link, ALL_LABELS, FeedbackMode.CLOSED,
                                controller=FixedShareController((1 / 9,) * 9),
                                control_message_bytes=256)
            return sim.run_epochs(n_epochs)

        run(5)  # warm
        tracemalloc.start()
        try:
            m = run(2000)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(m.state_history) == m.n_epochs == 2000
        assert kept / m.n_epochs < 700
