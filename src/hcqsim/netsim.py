"""Event-driven fluid simulation of one bottleneck link.

The link serves flows byte-by-byte at its full rate, one flow at a time,
under a single discipline: a list of drop-tail queues served in strict
priority order, each queue at most its byte budget per epoch. In closed
mode each traffic class has its own queue, and at every epoch boundary a
controller sets the budgets (share * capacity * epoch bytes) and the
priority order anew. Open mode is the same rule with one FIFO that every
class shares and an unlimited budget.

Classes are addressed by their index in the canonical class order; a
label is turned into its index once, when its flow is offered, and a
trace's labels once per trace.

All byte counters are integers, so the conservation identity
arrived == delivered + dropped + queued holds exactly per class. The live
service plan serves `limit` bytes of the flow at the head of one queue
from its `start`: by time t it has served min(limit - 1,
floor(byte_rate * (t - start))) bytes, and the last one at its `end`. The
count depends on t alone, not on the instants at which service was
brought up to date, so service is advanced lazily: at completions and
epoch boundaries, and at an arrival only when a drop or a preemption
depends on it (the arrival joins the queue in service and may overflow it,
or it preempts a lower-priority queue). A replan cuts the segment's
sub-byte progress (the remainder stays queued).

The run loop goes epoch by epoch. Epoch e begins at e * epoch_s, where
closed mode observes the state, installs the controller's decision and
sends its control message; then every event before the end boundary
(e + 1) * epoch_s is taken, and a plan end on it; then service is brought
up to the boundary and the epoch's row is appended. What the boundary
reads of the link and the classes (the bytes an epoch carries, the
identity permutation a priority order must sort to, the control class's
index) is worked out once, when the simulator is built. Each event is
taken from the trace cursor, the event heap or the live plan's end,
whichever comes first. Only injected flows enter the heap, as (time, seq,
entry): trace arrivals are read from a cursor over the flow table (below),
and service completions from the live plan's end. Ties at one instant are
broken by kind (service completion, then epoch boundary, then flow
arrival), then by seq. So a plan end on the end boundary is taken in the
ending epoch: its bytes count in that epoch's row, and its callback runs
while the epoch is still open. An arrival on the boundary opens the next
epoch. A cursor arrival and a heap entry at one instant are ordered by
their seqs. A trace flow takes its seq when the trace is added, in trace
order, so the merge breaks ties exactly as one heap holding every arrival
would. The clock never goes back: a flow before `now` is refused.

Every flow, trace or injected, is one entry of a flow table: typed
columns of class index, bytes not yet served, arrival time and id. Queues,
the live plan and heap payloads hold entry indices, so offering a flow
allocates no object. An added trace is merged in (time, seq) order with
the unread rest of the cursor and appended to the table, and the cursor is
the range of entries so appended. Control messages and flow callbacks are
few, so they are kept apart, in a set and a dict keyed by index, which
forget a flow when it completes or is dropped whole.

One loop takes every event of an epoch, with one copy of each rule and
the run's state in locals. While the link is busy, a FIFO queue follows
Lindley's recursion: each departure is max(arrival, previous departure) +
size / rate.

- A completion serves the live plan's flow at its end. If the same queue
  still holds bytes and has budget, its head is the next plan: no queue of
  higher rank can be serviceable, since an arrival there would have
  preempted and budgets change only at boundaries, where the plan is made
  anew. So the plan moves on to that head, with end = previous end +
  limit / byte_rate. A queue out of bytes or budget is left to the
  priority scan.
- An arrival, from the cursor or the heap, joins its queue with the bytes
  that fit its free space (on an idle link they start a plan); the rest
  are dropped. Its drop test or a preemption may need service brought up
  to it (see above).

The loop is the one place a flow completes. Service short of a plan's
end is credited by one method, _credit, for the drop test, a preemption
and the boundary; the plan then ends after that instant, so this serves
part of its flow and completes none.

Other code runs at one place only, and can change the run's state there:
a completion callback. Around it the loop writes its locals back and reads
them again. A completion serves its flow, runs the callback, then
replans.

An open run serves one FIFO with no budget, so no preemption can meet it
and a flow's departure is fixed when it is accepted. run_epochs and
run_until_idle hand every open run that has not begun an epoch to the FIFO
pass (hcqsim.fifo), whatever it holds: a trace, injected flows and
completion callbacks. The pass takes the events in this loop's order,
shows each callback the state this loop would show it, and leaves the
simulator at the end boundary as this loop would. The route depends on
the mode and the epoch alone (_takes_pass). A closed run, or one that has
begun, takes the event core, which is the pass's reference.

The per-class ClassCounters are the one byte ledger. At each epoch
boundary the run appends one row of k counts to each epoch column of the
metrics (an EpochColumn, held as one flat array('q')): the arrived,
delivered and dropped counters differenced against each class's values at
the previous boundary, and the queued counter as it stands. A closed epoch's
controller decides from a state read off the previous epoch's queued and
delivered rows (SimMetrics.observed_state). Latencies are appended to one
array('d') per class as flows complete.
"""

from __future__ import annotations

import heapq
import math
import numbers
from array import array
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, cycle, repeat
from typing import Optional

import numpy as np

from .columns import EpochColumn
from .control import ControlBounds, ControlDecision
from .traffic import (
    AppKind,
    Trace,
    TrafficClassLabel,
    ZoneClass,
    canonical_class_order,
)

# Control messages ride the link as class-A service traffic.
CONTROL_LABEL = TrafficClassLabel(ZoneClass.A, AppKind.SERVICE)


class SimulationError(RuntimeError):
    pass


class FeedbackMode(Enum):
    OPEN = "open"
    CLOSED = "closed"


# The most epochs one run may take, and run_until_idle's default cap. A
# closed run keeps about 0.5 KB per epoch at nine classes (its epoch columns,
# ranks, share slots and control messages) and spends about 26 us on an idle
# epoch with an MPC decision, so a million epochs take about 0.5 GB and 26 s.
MAX_EPOCHS = 1_000_000


def check_epoch_count(n_epochs: int) -> None:
    """Refuse a run of more than MAX_EPOCHS epochs."""
    if n_epochs > MAX_EPOCHS:
        raise ValueError(f"{n_epochs:,} epochs are more than the {MAX_EPOCHS:,} a run may take")


@dataclass(frozen=True)
class LinkSpec:
    capacity_bps: float
    queue_capacity_bytes: int
    propagation_delay_s: float = 0.0
    epoch_s: float = 1.0

    def __post_init__(self):
        # `< inf` fails for NaN as for inf; either would stall the run or
        # make every latency NaN or inf.
        for name in ("capacity_bps", "propagation_delay_s", "epoch_s"):
            if not getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity_bps must be > 0, got {self.capacity_bps}")
        if not isinstance(self.queue_capacity_bytes, numbers.Integral):
            raise ValueError(f"queue_capacity_bytes must be an integer, "
                             f"got {self.queue_capacity_bytes!r}")
        if self.queue_capacity_bytes <= 0:
            raise ValueError(f"queue_capacity_bytes must be > 0, got {self.queue_capacity_bytes}")
        if self.propagation_delay_s < 0:
            raise ValueError(f"propagation_delay_s must be >= 0, got {self.propagation_delay_s}")
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {self.epoch_s}")

    @property
    def byte_rate(self) -> float:
        return self.capacity_bps / 8.0

    @property
    def bytes_per_epoch(self) -> float:
        return self.byte_rate * self.epoch_s


@dataclass
class ClassCounters:
    """Cumulative per-class byte accounting (all integers)."""

    arrived: int = 0
    delivered: int = 0
    dropped: int = 0
    queued: int = 0
    control_arrived: int = 0
    control_delivered: int = 0

    def conserved(self) -> bool:
        return self.arrived == self.delivered + self.dropped + self.queued


EPOCH_CSV_HEADER = [
    "epoch",
    "class",
    "arrived",
    "delivered",
    "dropped",
    "queued",
    "share",
    "priority_rank",
    "utilization",
]


@dataclass
class SimMetrics:
    """Everything one run produced, sufficient to rebuild every report.

    `totals` maps each class to its cumulative ClassCounters, and
    `latencies_s` each class to the latencies of its completed flows, an
    array('d') in completion order. The epoch columns `arrived`,
    `delivered`, `dropped` and `queued` are EpochColumns, one k-tuple per
    epoch in class order: the first three are the counters differenced at
    the epoch's two boundaries, `queued` the counter at its end. `shares`
    and `ranks` are lists of the installed shares and priority ranks, None
    in open mode. Latencies and counts are held in typed arrays, about 8
    bytes per latency and 8 per count of an epoch column. The observed
    states are not stored: observed_state derives them from the columns.
    """

    scenario_id: str
    mode: FeedbackMode
    seed: int
    link: LinkSpec
    classes: tuple[TrafficClassLabel, ...]
    totals: dict = field(default_factory=dict)
    latencies_s: dict = field(default_factory=dict)
    arrived: EpochColumn = field(init=False)
    delivered: EpochColumn = field(init=False)
    dropped: EpochColumn = field(init=False)
    queued: EpochColumn = field(init=False)
    shares: list[Optional[tuple]] = field(default_factory=list)
    ranks: list[Optional[tuple]] = field(default_factory=list)
    flows_offered: int = 0
    flows_completed: int = 0
    failed_flow_ids: list[int] = field(default_factory=list)
    max_flow_size: int = 0

    def __post_init__(self):
        k = len(self.classes)
        self.arrived, self.delivered, self.dropped, self.queued = (
            EpochColumn(k), EpochColumn(k), EpochColumn(k), EpochColumn(k))

    @property
    def n_epochs(self) -> int:
        return len(self.delivered)

    def observed_state(self, e: int) -> np.ndarray:
        """The state a closed run observes at the start of epoch e, 0 <= e <=
        n_epochs: per-class backlog fractions at the end of epoch e - 1, then
        per-class utilization of epoch e - 1, in class order; zeros at e = 0."""
        queued = delivered = (0,) * len(self.classes)
        if e:
            rows = slice((e - 1) * len(queued), e * len(queued))
            queued, delivered = self.queued.flat[rows], self.delivered.flat[rows]
        queue_bytes, per_epoch = self.link.queue_capacity_bytes, self.link.bytes_per_epoch
        return np.array([q / queue_bytes for q in queued] + [d / per_epoch for d in delivered])

    @property
    def state_history(self) -> list:
        """Each closed epoch's (x, u): the state observed at its start and
        the shares installed for it, built from the epoch columns when read."""
        return [(self.observed_state(e), u) for e, u in enumerate(self.shares) if u is not None]

    @property
    def link_utilization(self) -> list[float]:
        per_epoch = self.link.bytes_per_epoch
        return [total / per_epoch for total in map(sum, self.delivered)]

    @property
    def control_bytes_injected(self) -> int:
        return sum(c.control_arrived for c in self.totals.values())

    def arrived_bytes(self) -> int:
        return sum(c.arrived for c in self.totals.values())

    def delivered_bytes(self) -> int:
        return sum(c.delivered for c in self.totals.values())

    def dropped_bytes(self) -> int:
        return sum(c.dropped for c in self.totals.values())

    def drop_fraction(self) -> float:
        arrived = self.arrived_bytes()
        return self.dropped_bytes() / arrived if arrived else 0.0

    def assert_conservation(self) -> None:
        """Per class: arrived == delivered + dropped + queued, and the epoch
        rows' arrived/delivered/dropped sum to the totals."""
        k = len(self.classes)
        for i, label in enumerate(self.classes):
            c = self.totals[label]
            if not c.conserved():
                raise SimulationError(
                    f"byte conservation violated for {label}: arrived={c.arrived} "
                    f"delivered={c.delivered} dropped={c.dropped} queued={c.queued}"
                )
            arrived, delivered, dropped = (sum(col.flat[i::k])
                                           for col in (self.arrived, self.delivered, self.dropped))
            if (arrived, delivered, dropped) != (c.arrived, c.delivered, c.dropped):
                raise SimulationError(
                    f"epoch rows disagree with the totals for {label}: rows sum to "
                    f"arrived={arrived} delivered={delivered} dropped={dropped}, totals are "
                    f"arrived={c.arrived} delivered={c.delivered} dropped={c.dropped}"
                )

    def write_epochs_csv(self, path) -> None:
        """One row per epoch and class, in the bytes csv.writer would write
        (no field needs quoting; lines end in CR LF): the counters, the
        share as "%.9g", the priority rank and the utilization as "%.9g".
        Share and rank are empty for an epoch run open. Each distinct share
        and each distinct delivered count is formatted once, and the rows
        are written a block of epochs at a time."""
        per_epoch = self.link.bytes_per_epoch
        names = [str(label) for label in self.classes]
        k = len(names)
        blank = ("",) * k
        # Shares are keyed by their bits: 0.0 == -0.0, but they print "0"
        # and "-0". Utilization depends on the delivered count alone.
        share_text = _Texts(_from_bits)
        util_text = _Texts(lambda delivered: delivered / per_epoch)
        arrived, delivered, dropped, queued = (
            col.flat for col in (self.arrived, self.delivered, self.dropped, self.queued))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(EPOCH_CSV_HEADER) + "\r\n")
            for first in range(0, self.n_epochs, _CSV_BLOCK_EPOCHS):
                block = slice(first, first + _CSV_BLOCK_EPOCHS)
                values = slice(first * k, (first + _CSV_BLOCK_EPOCHS) * k)
                shares = self.shares[block]
                if None in shares:  # epochs run open have no shares
                    share = chain.from_iterable(
                        blank if row is None else map(share_text.__getitem__, _bits(row))
                        for row in shares)
                else:
                    share = map(share_text.__getitem__, _bits(chain.from_iterable(shares)))
                rows = zip(
                    chain.from_iterable(map(repeat, range(first, first + len(shares)),
                                            repeat(k))),
                    cycle(names),
                    arrived[values],
                    delivered[values],
                    dropped[values],
                    queued[values],
                    share,
                    chain.from_iterable(blank if row is None else row
                                        for row in self.ranks[block]),
                    map(util_text.__getitem__, delivered[values]),
                )
                fh.write("".join(map("%s,%s,%s,%s,%s,%s,%s,%s,%s\r\n".__mod__, rows)))


# Epochs of rows write_epochs_csv joins per write: enough to make the writes
# few, and at nine classes under the peak memory of one csv.writer row at a
# time, so a long run's file is never held in memory.
_CSV_BLOCK_EPOCHS = 32


class _Texts(dict):
    """The "%.9g" text of value(key), formatted once per distinct key."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def __missing__(self, key):
        text = self[key] = "%.9g" % self.value(key)
        return text


def _bits(values) -> array:
    """The IEEE 754 bit patterns of the values as doubles, as int64s."""
    return array("q", array("d", values).tobytes())


def _from_bits(bits: int) -> float:
    """The double whose IEEE 754 bit pattern is the int64 bits."""
    return array("d", array("q", (bits,)).tobytes())[0]


class _ServicePlan:
    """Serve `limit` bytes of flow `flow` (an index into the flow table)
    from `queue` over [start, end]; `done` of them have been served so far."""

    __slots__ = ("start", "end", "queue", "flow", "limit", "done")

    def __init__(self, start, end, queue, flow, limit):
        self.start = start
        self.end = end
        self.queue = queue
        self.flow = flow
        self.limit = limit
        self.done = 0


class LinkSimulator:
    """Deterministic single-link simulator; see module docstring.

    One service rule for every mode: drop-tail queues in priority order,
    each within its byte budget. Closed mode has a queue per class with
    controller-set budgets; open mode is one FIFO with an unlimited budget.
    `counters` lists each class's ClassCounters in class-index order.
    """

    def __init__(
        self,
        link: LinkSpec,
        classes,
        mode: FeedbackMode,
        controller=None,
        scenario_id: str = "run",
        seed: int = 0,
        control_message_bytes: int = 0,
    ):
        self.link = link
        self.classes = canonical_class_order(classes)
        if not self.classes:
            raise ValueError("simulator needs at least one traffic class")
        self.mode = mode
        self.controller = controller
        self.control_message_bytes = int(control_message_bytes)
        if mode is FeedbackMode.CLOSED:
            if controller is None:
                raise ValueError("closed mode requires a controller")
            if controller.m != len(self.classes):
                raise ValueError(f"controller emits {controller.m} shares but the run has "
                                 f"{len(self.classes)} classes")
            if self.control_message_bytes > 0 and CONTROL_LABEL not in self.classes:
                raise ValueError(f"control overhead needs {CONTROL_LABEL} among the classes")
        elif controller is not None:
            raise ValueError("open mode takes no controller")
        elif self.control_message_bytes > 0:
            raise ValueError("open mode sends no control messages")

        self.byte_rate = link.byte_rate
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0
        self._epoch = 0  # the next epoch to begin
        self._in_epoch = False  # between an epoch's begin and its row
        self._plan: Optional[_ServicePlan] = None
        # The flow table: one entry per flow, trace or injected, addressed by
        # its index. Columns: class index, bytes not yet served (the bytes
        # accepted, once offered), arrival time and id. Control messages and
        # flow callbacks are few, so they are kept apart, keyed by index.
        self._cls = array("B")
        self._rem = array("q")
        self._arrival = array("d")
        self._fid = array("q")
        self._control: set = set()
        self._callbacks: dict = {}
        # The cursor: unread trace arrivals are entries _pos .. _stop - 1, in
        # (time, seq) order; the seq of entry j is _seqs[j - _first].
        self._pos = self._stop = self._first = 0
        self._seqs = range(0)

        k = len(self.classes)
        self._index = {label: i for i, label in enumerate(self.classes)}
        # Fixed for the run, so the epoch boundary reads them: the bytes one
        # epoch of full service carries, the identity permutation a priority
        # order must sort to, and the control class's index.
        self._per_epoch = link.bytes_per_epoch
        self._identity = list(range(k))
        self._control_class = self._index.get(CONTROL_LABEL)
        self._control_set = ControlBounds.simplex(k)
        self.counters = [ClassCounters() for _ in range(k)]
        if mode is FeedbackMode.CLOSED:
            self._queue_of = list(range(k))
            self._budget = [0] * k
        else:
            self._queue_of = [0] * k
            self._budget = [math.inf]
        n_queues = len(self._budget)
        self._queues = [deque() for _ in range(n_queues)]
        self._queued_bytes = [0] * n_queues
        self._priority = tuple(range(n_queues))
        self._rank = list(range(n_queues))
        self._shares: Optional[tuple] = None

        # Each class's (arrived, delivered, dropped) at the last epoch boundary
        self._at_boundary = [(0, 0, 0)] * k
        self._latencies = [array("d") for _ in range(k)]

        self._inject_id = -1

        self.metrics = SimMetrics(
            scenario_id=scenario_id,
            mode=mode,
            seed=seed,
            link=link,
            classes=self.classes,
            totals=dict(zip(self.classes, self.counters)),
            latencies_s=dict(zip(self.classes, self._latencies)),
        )

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, entry: int) -> None:
        if not self.now <= time < math.inf:
            raise ValueError(f"event time {time} is not finite or before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, entry))

    def add_flows(self, flows) -> None:
        """Offer a Trace, or an iterable of FlowEvents through Trace.from_flows.

        The trace's labels are mapped to class indices once. Its flows take
        their seqs now, in trace order, and join the unread rest of the
        cursor in (time, seq) order. The merge is appended to the table and
        becomes the cursor; the old cursor's entries are reused for it when
        no injected flow follows them, so a trace added in parts takes one
        entry per flow. The columns are copied whole: a range of ids, as
        every generated trace has, is written as one block of int64s, and
        lists and arrays are extended as they stand. A flow before `now` is
        refused.
        """
        trace = Trace.from_flows(flows)
        n = len(trace)
        times = np.frombuffer(trace.time)
        early = np.flatnonzero(times < self.now)
        if early.size:
            j = early[0]
            raise ValueError(f"flow {trace.ids[j]} arrives at t={trace.time[j]}, "
                             f"before now={self.now}")
        to_index = [self._index.get(label) for label in trace.labels]
        if None in to_index:
            j = min(trace.cls.index(c) for c, i in enumerate(to_index) if i is None)
            raise ValueError(f"flow {trace.ids[j]} has class {trace.labels[trace.cls[j]]} "
                             f"not configured for this run")
        table = bytes(to_index).ljust(256, b"\0")
        cls = array("B", trace.cls.tobytes().translate(table))
        seqs = range(self._seq + 1, self._seq + 1 + n)
        self._seq += n
        new = (trace.time, seqs, cls, trace.size, trace.ids)
        a, b = self._pos, self._stop
        if a < b or (np.diff(times) < 0).any():
            rest = (self._arrival[a:b], self._seqs[a - self._first:b - self._first],
                    self._cls[a:b], self._rem[a:b], self._fid[a:b])
            cols = tuple([*x, *y] for x, y in zip(rest, new))
            order = sorted(range(len(cols[0])), key=lambda j: (cols[0][j], cols[1][j]))
            new = tuple([col[j] for j in order] for col in cols)
        time, seqs, cls, size, ids = new
        if b == len(self._cls):  # no flow was injected after the cursor: reuse its range
            for col in (self._cls, self._rem, self._arrival, self._fid):
                del col[a:]
        self._first = self._pos = len(self._cls)
        self._stop = self._pos + len(time)
        self._seqs = seqs
        self._cls.extend(cls)
        self._rem.extend(size)
        self._arrival.extend(time)
        if type(ids) is range:
            self._fid.frombytes(np.arange(ids.start, ids.stop, ids.step, dtype=np.int64).tobytes())
        else:
            self._fid.extend(ids)

    def inject_flow(self, time, size, label, callback=None) -> int:
        """Dynamically offer a flow (query fetches); callback(sim, t) runs
        when it is delivered at t. Closed runs send their control messages
        themselves (see _begin_epoch)."""
        i = self._index.get(label)
        if i is None:
            raise ValueError(f"injected flow class {label} not configured for this run")
        if size < 1:
            raise ValueError("injected flow size must be >= 1")
        j = self._inject(time, i, int(size))
        if callback is not None:
            self._callbacks[j] = callback
        return self._fid[j]

    def _inject(self, time: float, i: int, size: int) -> int:
        """Append a flow of class index i arriving at time to the table, with
        the next injected id, and push its arrival; returns its entry."""
        j = len(self._cls)
        self._push(time, j)
        self._cls.append(i)
        self._rem.append(size)
        self._arrival.append(time)
        self._fid.append(self._inject_id)
        self._inject_id -= 1
        return j

    # -- fluid service -----------------------------------------------------

    def _replan(self, now: float) -> None:
        self._plan = None
        queued, budget = self._queued_bytes, self._budget
        for q in self._priority:
            if queued[q] > 0 and budget[q] > 0:
                j = self._queues[q][0]
                rem = self._rem[j]
                limit = rem if rem <= budget[q] else budget[q]
                self._plan = _ServicePlan(now, now + limit / self.byte_rate, q, j, limit)
                return

    def _credit(self, q: int, j: int, start: float, limit: int, done: int, t: float) -> int:
        """Serve the live plan, `limit` bytes of flow j of queue q from
        `start` with `done` served, up to time t before its end; returns the
        new count, min(limit - 1, floor(byte_rate * (t - start))), whatever
        instants it was credited at before. Its last byte is served only at
        its end, where the run loop completes the flow."""
        nbytes = min(limit - 1, int(self.byte_rate * (t - start))) - done
        if nbytes <= 0:
            return done
        self._rem[j] -= nbytes
        self._queued_bytes[q] -= nbytes
        self._budget[q] -= nbytes
        c = self.counters[self._cls[j]]
        c.delivered += nbytes
        c.queued -= nbytes
        if j in self._control:
            c.control_delivered += nbytes
        return done + nbytes

    # -- control and epochs ------------------------------------------------

    def apply_decision(self, decision: ControlDecision) -> None:
        """Install shares and priority order for the upcoming epoch; closed
        mode's queue index is the class index. The run installs one at each
        boundary, and its event loop relies on budgets changing only
        there, so a call while an epoch runs (from a flow callback) is
        refused."""
        if self.mode is not FeedbackMode.CLOSED:
            raise SimulationError("open mode takes no control decisions")
        if self._in_epoch:
            raise SimulationError(
                f"decision at t={self.now} inside epoch {self._epoch}: decisions are "
                "installed only at epoch boundaries")
        u, order, k = decision.u, decision.priority_order, len(self._identity)
        if len(u) != k:
            raise SimulationError(f"decision has {len(u)} shares for {k} classes")
        if not self._control_set.contains(u, tol=1e-9):
            raise SimulationError(f"decision shares outside the control set: {u}")
        if sorted(order) != self._identity:
            raise SimulationError(f"invalid priority order: {order}")
        per_epoch = self._per_epoch
        # 1e-6-byte nudge absorbs float representation error in u_i.
        self._budget = [int(v * per_epoch + 1e-6) for v in u]
        self._priority = order = tuple(order)
        rank = self._rank
        for pos, q in enumerate(order):
            rank[q] = pos
        self._shares = tuple(u)

    def _finalize_epoch(self) -> None:
        """Append the ending epoch's row to each column of the metrics."""
        arrived, delivered, dropped, queued = [], [], [], []
        at = self._at_boundary
        for i, c in enumerate(self.counters):
            a0, d0, r0 = at[i]
            at[i] = a, d, r = c.arrived, c.delivered, c.dropped
            arrived.append(a - a0)
            delivered.append(d - d0)
            dropped.append(r - r0)
            queued.append(c.queued)
        m = self.metrics
        m.arrived.flat.fromlist(arrived)
        m.delivered.flat.fromlist(delivered)
        m.dropped.flat.fromlist(dropped)
        m.queued.flat.fromlist(queued)
        m.shares.append(self._shares)
        m.ranks.append(None if self._shares is None else tuple(self._rank))

    def _begin_epoch(self, t: float) -> None:
        if self.mode is not FeedbackMode.CLOSED:
            return
        x = self.metrics.observed_state(self._epoch)
        self.apply_decision(self.controller.decide(x, self._epoch))
        if self.control_message_bytes > 0:
            self._control.add(self._inject(t, self._control_class, self.control_message_bytes))
        self._replan(t)

    def _active(self) -> bool:
        return bool(self._heap) or self._pos < self._stop or any(self._queued_bytes)

    # -- run loops ----------------------------------------------------------

    def _run_epoch(self) -> None:
        """Run the next epoch: begin it, take in one loop every event before
        its end boundary and a plan end on it (see the module docstring),
        then credit the live plan up to the boundary and append the epoch's
        row.

        The inner loop holds the cursor, the live plan and the metrics'
        counts in locals. It leaves them for a completion callback, the one
        place other code runs, and for the boundary; the outer loop writes
        them back, runs the callback, and reads them again.
        """
        e = self._epoch
        eps = self.link.epoch_s
        self._begin_epoch(e * eps)
        self._in_epoch = True
        t_end = (e + 1) * eps
        heap, heappop, inf = self._heap, heapq.heappop, math.inf
        arrival, cls, rem, fid = self._arrival, self._cls, self._rem, self._fid
        queue_of, queues, queued = self._queue_of, self._queues, self._queued_bytes
        budget, rank, counters = self._budget, self._rank, self.counters
        control, callbacks, latencies = self._control, self._callbacks, self._latencies
        cap = self.link.queue_capacity_bytes
        rate = self.byte_rate
        delay = self.link.propagation_delay_s
        m = self.metrics
        failed = m.failed_flow_ids
        while True:
            pos, stop, first, seqs = self._pos, self._stop, self._first, self._seqs
            t_next = arrival[pos] if pos < stop else inf
            t_heap = heap[0][0] if heap else inf
            offered = completed = 0
            largest = m.max_flow_size
            callback = None
            replanned = True
            while True:
                if replanned:  # bind the live plan, or mark the link idle
                    replanned = False
                    plan = self._plan
                    if plan is None:
                        end, busy, serving = inf, -1, -1
                    else:
                        q, start, end, j, limit, done = (plan.queue, plan.start, plan.end,
                                                         plan.flow, plan.limit, plan.done)
                        queue, busy, serving = queues[q], q, rank[q]
                if end <= t_next and end <= t_heap and end <= t_end:
                    # The completion of the live plan.
                    nbytes = limit - done
                    left = rem[j] - nbytes
                    rem[j] = left
                    held = queued[q] - nbytes
                    queued[q] = held
                    allowed = budget[q] - nbytes
                    budget[q] = allowed
                    i = cls[j]
                    c = counters[i]
                    c.delivered += nbytes
                    c.queued -= nbytes
                    if control and j in control:
                        c.control_delivered += nbytes
                        if left == 0:
                            control.discard(j)
                    if left == 0:
                        queue.popleft()
                        latencies[i].append(end + delay - arrival[j])
                        completed += 1
                        if callbacks and j in callbacks:
                            callback = callbacks.pop(j)
                            break
                    if held > 0 and allowed > 0:
                        j = queue[0]
                        limit = rem[j]
                        if limit > allowed:
                            limit = allowed
                        start = end
                        end = end + limit / rate
                        done = 0
                    else:
                        self._replan(end)
                        replanned = True
                    continue
                if t_next < t_heap or (t_next == t_heap < t_end
                                       and heap[0][1] > seqs[pos - first]):
                    if t_next >= t_end:
                        break
                    flow, t = pos, t_next
                    pos += 1
                    t_next = arrival[pos] if pos < stop else inf
                elif t_heap < t_end:
                    t, _, flow = heappop(heap)
                    t_heap = heap[0][0] if heap else inf
                else:
                    break
                # The arrival of entry `flow` at t.
                i = cls[flow]
                size = rem[flow]
                qa = queue_of[i]
                free = cap - queued[qa]
                if size > free and qa == busy:
                    # The drop test needs the service not yet counted.
                    done = self._credit(q, j, start, limit, done, t)
                    free = cap - queued[qa]
                c = counters[i]
                c.arrived += size
                offered += 1
                if size > largest:
                    largest = size
                if control and flow in control:
                    c.control_arrived += size
                if size > free:
                    c.dropped += size - free
                    if free == 0:  # dropped whole: never served, and its entry is dead
                        failed.append(fid[flow])
                        control.discard(flow)
                        callbacks.pop(flow, None)
                        continue
                    size = rem[flow] = free
                c.queued += size
                queued[qa] += size
                queues[qa].append(flow)
                if plan is None:
                    self._replan(t)
                    replanned = True
                elif budget[qa] > 0 and rank[qa] < serving:
                    # Serviceable higher-priority work preempts; the cut
                    # segment's sub-byte progress is dropped.
                    self._credit(q, j, start, limit, done, t)
                    self._replan(t)
                    replanned = True
            if plan is not None and callback is None:
                # The plan outlives the boundary: credit it up to the
                # boundary and write it back. After a callback it is replanned.
                done = self._credit(q, j, start, limit, done, t_end)
                plan.queue, plan.start, plan.end, plan.flow, plan.limit, plan.done = (
                    q, start, end, j, limit, done)
            self._pos = pos
            m.flows_offered += offered
            m.flows_completed += completed
            m.max_flow_size = largest
            if callback is None:
                break
            self.now = end
            callback(self, end + delay)
            self._replan(end)
        self.now = t_end
        self._finalize_epoch()
        self._epoch = e + 1
        self._in_epoch = False

    def _takes_pass(self) -> bool:
        """Whether the next run takes the FIFO pass: an open run that has
        not begun an epoch (see the module docstring)."""
        return self.mode is FeedbackMode.OPEN and self._epoch == 0

    def run_epochs(self, n_epochs: int) -> SimMetrics:
        """Run the next n_epochs control epochs, then stop.

        Arrivals at or after the horizon, the end boundary of the last
        epoch run, wait for the next call; a completion on it is taken. An
        open run that has not begun an epoch takes the FIFO pass, with
        whatever it holds: a trace, injected flows and callbacks.
        Every other run takes the event core, the pass's reference. Either
        leaves the same metrics and the same simulator to go on from.
        """
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        check_epoch_count(n_epochs)
        if self._takes_pass():
            # Imported here: a process whose runs never take the pass (closed
            # runs only) does not load it.
            from .fifo import fifo_pass

            fifo_pass(self, n_epochs)
        else:
            for _ in range(n_epochs):
                self._run_epoch()
        self.metrics.assert_conservation()
        return self.metrics

    def run_until_idle(self, max_epochs: int = MAX_EPOCHS) -> SimMetrics:
        """Run epoch by epoch until no backlog or pending events remain at an
        epoch boundary; reaching boundary max_epochs + 1 is an error.

        An open run that has not begun an epoch takes the FIFO pass, which
        stops at the first idle boundary or at boundary max_epochs + 1,
        whichever comes first, as the event core would. A closed run that
        stalls is an error too (see _check_stalled); the error names each
        class that still holds bytes.
        """
        closed = self.mode is FeedbackMode.CLOSED
        while True:
            if self._epoch > max_epochs:
                raise SimulationError(f"exceeded max_epochs={max_epochs} without draining")
            if not self._active():
                break
            if self._takes_pass():
                from .fifo import fifo_pass

                fifo_pass(self, max_epochs + 1, until_idle=True)
                continue
            self._run_epoch()
            if closed and not self._heap and self._pos == self._stop:
                self._check_stalled()
        self.metrics.assert_conservation()
        return self.metrics

    def _check_stalled(self) -> None:
        """Raise if the closed epoch just run, which ended with no event
        pending, is a stall: some class holds bytes, the epoch's only
        arrival was its control message, every class that delivered a byte
        holds none at its end, and the observed state is as it began.

        Such an epoch repeats for ever. The queued bytes per class are
        unchanged. A class that delivered holds nothing at either end, so
        it served only what arrived in the epoch: its control message. A
        class that delivered nothing accepted nothing either, so it holds
        the same flows. Control messages are interchangeable byte for byte,
        so the next epoch starts from the same queues, takes the same
        decision (the controller is assumed to decide from the state alone)
        and sees the same one arrival: it repeats this one, with nothing
        pending at its end, and the bytes held never leave. A class that
        delivers while it holds bytes is not covered: the order in its queue
        can change (a flow waiting behind control bytes moves up), so the
        next epoch need not repeat this one.
        """
        if not any(self._queued_bytes):
            return  # idle: the run ends at this boundary
        m = self.metrics
        message = [0] * len(self.classes)
        if self.control_message_bytes:
            message[self._control_class] = self.control_message_bytes
        n = self._epoch
        if (list(m.arrived[-1]) != message
                or any(d and q for d, q in zip(m.delivered[-1], m.queued[-1]))
                or not np.array_equal(m.observed_state(n), m.observed_state(n - 1))):
            return
        held = ", ".join(f"{label} ({c.queued} B)"
                         for label, c in zip(self.classes, self.counters) if c.queued)
        raise SimulationError(f"closed run stalled in epoch {self._epoch - 1}: no event "
                              f"pending, no byte delivered from a class that holds bytes and "
                              f"the state unchanged, so it can never drain; still queued: {held}")


def run_simulation(
    trace,
    link: LinkSpec,
    mode: FeedbackMode,
    seed: int = 0,
    *,
    scenario_id: str = "run",
    n_epochs: Optional[int] = None,
    control_message_bytes: int = 0,
    classes=None,
    controller=None,
) -> SimMetrics:
    """Simulate one trace over the link and return its metrics.

    The one entry point for a run of a whole trace: runner.run_open,
    runner.run_closed and runner.identify_from_warmup all call it. Closed
    mode takes the controller that decides each epoch; LinkSimulator holds
    the rules (a closed run needs one with a share per class, an open run
    takes neither a controller nor control messages). classes defaults to
    the trace's labels, plus the control class when closed mode sends
    control messages. n_epochs=None runs until idle.
    """
    trace = Trace.from_flows(trace)
    if classes is None:
        classes = set(trace.labels)
        if mode is FeedbackMode.CLOSED and control_message_bytes > 0:
            classes.add(CONTROL_LABEL)
    sim = LinkSimulator(link, classes, mode, controller=controller, scenario_id=scenario_id,
                        seed=seed, control_message_bytes=control_message_bytes)
    sim.add_flows(trace)
    if n_epochs is not None:
        return sim.run_epochs(n_epochs)
    return sim.run_until_idle()
