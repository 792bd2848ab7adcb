"""Open mode against a reference worked out flow by flow.

The reference shares no code with the event core: it sorts the trace,
gives each accepted flow its departure by Lindley's recursion and reads
the ledger at any instant from those departures. It models one drop-tail
FIFO with eager service at the link's rate, the floor byte-count rule for
the flow in service (by t it has served min(size - 1, floor(rate * (t -
start))) bytes, its last one at its end), and a departure at t before an
arrival at t.

An open run from epoch 0 takes the FIFO pass; the same run kept on the
event core takes the event core. Both are compared with the reference, and
with each other on every output, on what each completion callback sees, and
on the state the pass hands over.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from hcqsim.netsim import FeedbackMode, LinkSimulator, LinkSpec, SimMetrics, SimulationError
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
    generate_trace,
)

from test_netsim import (
    A_ENDPOINTS,
    A_WEB,
    B_ENDPOINTS,
    B_FILE,
    lattice_runs,
    on_event_core,
    three_inputs,
)

C_ANY = TrafficClassLabel(ZoneClass.C)
ENDPOINTS = {A_WEB: A_ENDPOINTS, B_FILE: B_ENDPOINTS, C_ANY: (Zone.INTERNET, Zone.INTERNET)}


def open_reference(trace, link, n_epochs=None):
    """Latencies and dropped bytes per label, failed flow ids, and the epoch
    rows (arrived, delivered, dropped, queued) of an open run; n_epochs=None
    runs until idle."""
    rate, cap, eps = link.byte_rate, link.queue_capacity_bytes, link.epoch_s
    horizon = float("inf") if n_epochs is None else n_epochs * eps
    accepted = []  # (class, bytes, arrival, start, end), in FIFO order
    offered = []   # (arrival, class, size, dropped)
    failed, head, last_end = [], 0, 0.0

    def served(flow, t):  # bytes of an accepted flow delivered by t
        _, size, _, start, end = flow
        if end <= t:
            return size
        return min(size - 1, int(rate * (t - start))) if t > start else 0

    for j in sorted(range(len(trace)), key=lambda j: trace.time[j]):
        t, size, c = trace.time[j], trace.size[j], trace.cls[j]
        if t >= horizon:
            break
        while head < len(accepted) and accepted[head][4] <= t:
            head += 1
        take = min(size, cap - sum(f[1] - served(f, t) for f in accepted[head:]))
        offered.append((t, c, size, size - take))
        if take > 0:
            start = max(t, last_end)
            last_end = start + take / rate
            accepted.append((c, take, t, start, last_end))
        else:
            failed.append(trace.ids[j])
    if n_epochs is None:  # the first boundary after every arrival, at or after every departure
        n_epochs = 0
        while any(t >= n_epochs * eps for t in trace.time) or last_end > n_epochs * eps:
            n_epochs += 1

    k = len(trace.labels)
    rows, at = ([], [], [], []), [(0, 0, 0)] * k
    for e in range(n_epochs):
        b = (e + 1) * eps
        now = [[0, 0, 0] for _ in range(k)]  # cumulative arrived, delivered, dropped
        for t, c, size, lost in offered:
            if t < b:
                now[c][0] += size
                now[c][2] += lost
        for f in accepted:
            now[f[0]][1] += served(f, b)
        for col in range(3):
            rows[col].append(tuple(n[col] - p[col] for n, p in zip(now, at)))
        rows[3].append(tuple(a - d - x for a, d, x in now))
        at = now
    b = n_epochs * eps
    latencies = {label: [] for label in trace.labels}
    for c, _, arrival, _, end in accepted:
        if end <= b:
            latencies[trace.labels[c]].append(end + link.propagation_delay_s - arrival)
    dropped = {label: sum(lost for _, c, _, lost in offered if c == i)
               for i, label in enumerate(trace.labels)}
    return latencies, failed, dropped, rows


@st.composite
def open_runs(draw):
    """A small open run: up to three classes, a drop-prone queue and a trace
    on a 1/8 s lattice, where most sizes last whole lattice steps so that
    departures, arrivals and boundaries meet, or at arbitrary times on a
    link of odd rate. n_epochs None runs until idle."""
    labels = [A_WEB, B_FILE, C_ANY][: draw(st.integers(1, 3))]
    lattice = draw(st.booleans())
    rate = draw(st.sampled_from([1000, 2000, 4000] if lattice else [987.654321, 3125.5]))
    epoch_s = draw(st.sampled_from([0.25, 0.5, 1.0]))
    if lattice:
        # whole lattice steps of bytes, or one byte off: flows that fill the
        # queue exactly, or miss by a byte, where departures and arrivals meet
        cap = draw(st.integers(4, 24)) * rate // 8 + draw(st.sampled_from([-1, 0, 1]))
    else:
        cap = draw(st.integers(int(rate) // 2, 3 * int(rate)))
    link = LinkSpec(capacity_bps=8.0 * rate, queue_capacity_bytes=cap,
                    propagation_delay_s=draw(st.sampled_from([0.0, 0.003])), epoch_s=epoch_s)
    n_epochs = draw(st.one_of(st.none(), st.integers(1, 6)))
    end = 6 * epoch_s
    if lattice:
        time = st.integers(0, int(8 * end)).map(lambda q: q / 8)
        size = st.one_of(st.integers(1, 3).map(lambda n: n * rate // 8), st.integers(1, rate))
    else:
        time = st.floats(0.0, end, allow_nan=False)
        size = st.integers(1, 2 * int(rate))
    arrivals = draw(st.lists(st.tuples(time, size, st.sampled_from(labels)),
                             min_size=1, max_size=40))
    flows = [FlowEvent(fid, t, n, *ENDPOINTS[label], label.app_kind or AppKind.WEB)
             for fid, (t, n, label) in enumerate(arrivals)]
    return Trace.from_flows(flows), link, n_epochs


def open_sim(link, labels, batches) -> LinkSimulator:
    sim = LinkSimulator(link, labels, FeedbackMode.OPEN)
    for batch in batches:
        sim.add_flows(batch)
    return sim


def simulated(trace, link, n_epochs, held=False):
    """An open run's outputs, as open_reference gives them: the FIFO pass,
    or with `held` the event core. n_epochs None runs until idle."""
    sim = open_sim(link, trace.labels, [trace])
    if held:
        on_event_core(sim)
    m = sim.run_until_idle() if n_epochs is None else sim.run_epochs(n_epochs)
    dropped = {label: c.dropped for label, c in m.totals.items()}
    latencies = {label: list(values) for label, values in m.latencies_s.items()}
    return latencies, m.failed_flow_ids, dropped, (m.arrived, m.delivered, m.dropped, m.queued)


def both_paths_match(trace, link, n_epochs=None):
    """The run on each path, and until idle when n_epochs is None, matches
    the reference; a run until idle is also run on both paths for as many
    epochs as it took."""
    want = open_reference(trace, link, n_epochs)
    if n_epochs is None:
        assert simulated(trace, link, None) == want
        assert simulated(trace, link, None, held=True) == want
        n_epochs = len(want[3][0])
    assert simulated(trace, link, n_epochs) == want
    assert simulated(trace, link, n_epochs, held=True) == want
    return want


class TestOpenReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(open_runs())
    def test_small_runs_match_the_reference(self, case):
        both_paths_match(*case)

    def test_generated_trace_matches_the_reference(self):
        # Two on/off classes offering about three quarters of a 1 MB/s link
        # to a 200 kB queue: long busy periods, and drops where bursts meet.
        profile = TrafficProfile((
            ClassProfile(A_WEB, 30.0, SizeDistribution(family="lognormal", mean_bytes=2e4,
                                                       sigma=1.0), burst_s=2.0, idle_s=1.0),
            ClassProfile(B_FILE, 4.0, SizeDistribution(family="exponential", mean_bytes=1.5e5),
                         burst_s=3.0, idle_s=2.0),
        ))
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=200_000,
                        propagation_delay_s=0.002, epoch_s=0.5)
        trace = generate_trace(profile, 60.0, seed=11)
        got = both_paths_match(trace, link)
        assert sum(map(len, got[0].values())) > 1000 and sum(got[2].values()) > 0


def every_field(m: SimMetrics) -> dict:
    """Each SimMetrics field by name, as its repr, so that floats compare bit
    for bit (-0.0 apart from 0.0)."""
    return {f.name: repr(getattr(m, f.name)) for f in dataclasses.fields(m)}


@st.composite
def open_cases(draw):
    """An open run as (link, classes, batches for add_flows, n_epochs): an
    open_runs trace, the flows of an open lattice_runs case, or the flows of
    an open three_inputs case as one shuffled FlowEvent list or in two
    shuffled parts. Half are open_runs, whose queues fill to the byte where
    departures and arrivals meet."""
    kind = draw(st.sampled_from(["open_runs"] * 3 + ["lattice_runs", "shuffled", "parts"]))
    if kind == "open_runs":
        trace, link, n_epochs = draw(open_runs())
        return link, trace.labels, [trace], n_epochs or draw(st.integers(1, 6))
    if kind == "lattice_runs":
        link, labels, n_epochs, flows, _ = draw(lattice_runs().filter(lambda c: c[4] is None))
        return link, labels, [flows], n_epochs
    link, labels, n_epochs, _, _, _, shuffled, parts = draw(
        three_inputs().filter(lambda c: c[4] is None))
    return link, labels, [shuffled] if kind == "shuffled" else list(parts), n_epochs


class TestFifoPass:
    """The FIFO pass against the event core, its reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(open_cases())
    def test_every_field_matches_the_event_core(self, case):
        link, labels, batches, n_epochs = case
        core = on_event_core(open_sim(link, labels, batches))
        assert every_field(open_sim(link, labels, batches).run_epochs(n_epochs)) == every_field(
            core.run_epochs(n_epochs))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(open_cases(), st.data())
    def test_the_event_core_goes_on_from_the_pass(self, case, data):
        # The pass runs j epochs; then a flow with a callback and a 1 B flow
        # whose callback reads the ledger are offered, and the event core
        # runs on. The run held on the event core from the start must see
        # and give the same.
        link, labels, batches, n_epochs = case
        eps = link.epoch_s
        j = data.draw(st.integers(1, n_epochs))
        rest = n_epochs + 1 - j
        lattice = st.integers(0, int(8 * rest * eps) - 1).map(lambda q: j * eps + q / 8)
        t_flow, t_probe = data.draw(lattice), data.draw(lattice)
        size = data.draw(st.integers(1, 3000))
        label = data.draw(st.sampled_from(labels))
        runs = []
        for held in (False, True):
            sim = open_sim(link, labels, batches)
            if held:
                on_event_core(sim)
            sim.run_epochs(j)
            log = []
            sim.inject_flow(t_flow, size, label,
                            callback=lambda s, t: log.append(("served", t, s.now)))
            sim.inject_flow(t_probe, 1, label, callback=lambda s, t: log.append(
                ("probe", t, [dataclasses.astuple(c) for c in s.counters])))
            runs.append((every_field(sim.run_epochs(rest)), log))
        assert runs[0] == runs[1]


def flow(fid, t, size, label) -> FlowEvent:
    src, dst = {ZoneClass.A: A_ENDPOINTS, ZoneClass.B: B_ENDPOINTS,
                ZoneClass.C: (Zone.INTERNET, Zone.INTERNET)}[label.zone_class]
    return FlowEvent(fid, t, size, src, dst, label.app_kind or AppKind.WEB)


@st.composite
def driven_runs(draw):
    """An open_cases run with code running inside it: flows injected up front
    with callbacks, and a script of what each callback does when it runs
    (inject a flow with a callback, add a trace flow, or nothing). Times sit
    on the 1/8 s lattice and many sizes last whole lattice steps, so
    departures, arrivals and boundaries meet; sizes reach twice the queue,
    so that callback flows are dropped in part or whole. Half the runs go
    until idle."""
    link, labels, batches, n_epochs = draw(open_cases())
    rate, cap = int(link.byte_rate), link.queue_capacity_bytes
    end = int(8 * n_epochs * link.epoch_s)
    size = st.one_of(st.integers(1, 3).map(lambda q: max(1, q * rate // 8)),
                     st.integers(1, 2 * cap))
    label = st.sampled_from(labels)
    flows = draw(st.lists(st.tuples(st.integers(0, end), size, label), max_size=8))
    script = draw(st.lists(st.tuples(st.sampled_from(["inject", "add", "none"]),
                                     st.integers(0, 8), size, label), max_size=12))
    return link, labels, batches, n_epochs, flows, script, draw(st.booleans())


def driven(case, core):
    """Every SimMetrics field of a driven_runs case, on the event core or the
    FIFO pass, and a log of what each callback saw: the clock, the cursor,
    the epochs, the queue, its bytes, the head's rem and every SimMetrics
    field."""
    link, labels, batches, n_epochs, flows, script, until_idle = case
    sim = open_sim(link, labels, batches)
    if core:
        on_event_core(sim)
    todo, log = iter(script), []

    def served(s, t):
        q = s._queues[0]
        log.append((t, s.now, s._pos, s.metrics.n_epochs, list(q), s._queued_bytes[0],
                    s._rem[q[0]] if q else None, every_field(s.metrics)))
        what, dt, size, label = next(todo, ("none", 0, 0, None))
        if what == "inject":
            s.inject_flow(t + dt / 8, size, label, callback=served)
        elif what == "add":
            s.add_flows([flow(9000 + len(log), t + dt / 8, size, label)])

    for q, size, label in flows:
        sim.inject_flow(q / 8, size, label, callback=served)
    m = sim.run_until_idle() if until_idle else sim.run_epochs(n_epochs)
    return every_field(m), log


class TestFifoPassDriven:
    """The FIFO pass against the event core on runs with callbacks."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(driven_runs())
    def test_what_the_code_sees_and_gives_matches_the_event_core(self, case):
        assert driven(case, core=False) == driven(case, core=True)

    def test_callback_flows_dropped_in_part_or_whole(self):
        # A 1000 B queue at 1000 B/s: a trace flow fills 800 B at t = 0; at
        # 0.125, when 125 B of it are served, a callback flow of 500 B fits
        # 325 B, and one of 50 B behind it fits none. Only the first
        # callback runs.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=1000, epoch_s=0.5)
        runs = []
        for core in (True, False):
            sim = open_sim(link, [A_WEB], [[flow(0, 0.0, 800, A_WEB)]])
            if core:
                on_event_core(sim)
            seen = []
            for size in (500, 50):
                sim.inject_flow(0.125, size, A_WEB, callback=lambda s, at, size=size: seen.append(
                    (size, at, s.now, [dataclasses.astuple(c) for c in s.counters])))
            m = sim.run_until_idle()
            assert m.totals[A_WEB].dropped == 175 + 50 and len(m.failed_flow_ids) == 1
            assert [size for size, *_ in seen] == [500] and sim._callbacks == {}
            runs.append((every_field(m), seen))
        assert runs[0] == runs[1]

    def test_a_run_that_never_drains_exceeds_max_epochs(self):
        # A 1 B flow whose callback injects the next one 0.75 s later keeps
        # the run going for ever; boundary max_epochs + 1 is an error on
        # either path, and each leaves the same simulator.
        link = LinkSpec(capacity_bps=8e3, queue_capacity_bytes=10_000, epoch_s=0.5)
        runs = []
        for core in (True, False):
            sim = open_sim(link, [A_WEB], [[flow(0, 0.1, 700, A_WEB)]])
            if core:
                on_event_core(sim)

            def again(s, t):
                s.inject_flow(t + 0.75, 1, A_WEB, callback=again)

            sim.inject_flow(0.0, 1, A_WEB, callback=again)
            with pytest.raises(SimulationError, match="exceeded max_epochs=20 without draining"):
                sim.run_until_idle(max_epochs=20)
            runs.append((every_field(sim.metrics), sim.now, sim._epoch, sim._heap[0][0]))
        assert runs[0] == runs[1] and runs[0][1:3] == (10.5, 21)
