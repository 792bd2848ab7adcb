"""The FIFO pass: an open run from epoch 0 without the event core.

An open LinkSimulator serves one drop-tail FIFO with no budget, so a flow's
departure is fixed when it is accepted (Lindley's recursion): its start is
max(arrival, previous departure) and its departure start + accepted /
byte_rate, with the event core's float operations. LinkSimulator.run_epochs
and run_until_idle hand every open run that has not begun an epoch here,
and the pass takes its events in the event core's order without the event
core's work per event:

- trace arrivals, from the cursor, in runs: every arrival before the next
  heap entry, the next completion with a callback and the horizon;
- injected arrivals, from the heap, one at a time;
- completions with a callback. A flow's departure is known when it is
  accepted and departures keep FIFO order, so a deque holds these flows in
  the order they fall due. No other completion is an event.

Ties at one instant keep the event core's order: completion, epoch
boundary, arrival, then seq. A cursor arrival and a heap entry at one
instant are ordered by their seqs.

The drop test keeps a stale lower bound on the free space. Only when a flow
does not fit under it does the pass complete the flows that depart by the
arrival, credit the head its served bytes as LinkSimulator._credit does,
min(accepted - 1, floor(byte_rate * (t - start))), and test again.

The ledger is kept per epoch, in ints, as the event core keeps it. A flow's
offered and dropped bytes count in the epoch it arrives in, and its
accepted bytes in the one it departs in: the first whose end boundary is at
or after its departure. A flow whose service crosses a boundary is the head
there; the bytes credited to it at the boundary count in the ending epoch,
and the next epoch's delivered count takes them back. Delivered rows are
worked out when a departure is accepted, ahead of the clock, and arrived
and dropped rows once an arrival comes after their epoch. Each waits in a
deque of the pass until its epoch has ended; then the epoch's four rows,
the queued row worked out from the others, are written to the flat arrays
of the metrics' epoch columns. The pass never reads a row back. A latency
is appended when its flow is accepted if the flow departs before any
callback can run, and otherwise when it departs.

A completion callback sees the simulator as the event core leaves it at
that instant: `now` (the departure; the callback is called with the
delivery a propagation delay later), the counters, the rows of the epochs
that have ended (a departure on a boundary is taken before it), the
latencies, the flows offered and completed, failed_flow_ids and
max_flow_size, the cursor position, the queue, its queued bytes and the
head's rem credited up to `now`. The pass reads the cursor and the heap
again when the callback returns, since it may add or inject flows.

The simulator is left at the end boundary as the event core leaves it: the
waiting flows in the queue, the head's plan credited to the boundary, the
counters, the cursor, the heap and the clock. A later run goes on in the
event core, which is the pass's reference. The pass reads and writes the
simulator's flow table and ledger; it is kept apart from the event core in
netsim because it shares none of its code.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappop
from operator import add, sub

import numpy as np


def _zero(rem: array, entries: array) -> None:
    """rem[j] = 0 for every entry j: the flows in entries have departed."""
    if entries:
        np.frombuffer(rem, dtype=np.int64)[np.frombuffer(entries, dtype=np.int64)] = 0


def _records(rem: array, a: int, b: int) -> tuple[array, array]:
    """The entries j of a .. b - 1 whose size rem[j] is larger than every
    size before it from a on, then b as an end mark; and those sizes."""
    if a == b:
        return array("q", [b]), array("q")
    top = np.maximum.accumulate(np.frombuffer(rem, dtype=np.int64)[a:b])
    at = np.flatnonzero(np.concatenate(([True], top[1:] > top[:-1])))
    rec_at = array("q", (at + a).tobytes())
    rec_at.append(b)
    return rec_at, array("q", top[at].tobytes())


def _close(rows: deque, total: list, at: list, zero: list) -> list:
    """Append to rows the bytes by class counted in total since at, the
    totals when the epoch began, and return the totals it ends with."""
    if total == at:
        rows.append(zero)
        return at
    rows.append(list(map(sub, total, at)))
    return total[:]


def fifo_pass(sim, n_epochs: int, until_idle: bool = False) -> None:
    """Run sim, an open LinkSimulator that has not begun an epoch, for
    n_epochs epochs, or with until_idle up to the first epoch boundary at
    which nothing is queued or pending, if that comes within n_epochs; leave
    it as the event core would at that boundary."""
    link = sim.link
    eps, rate = link.epoch_s, sim.byte_rate
    cap, delay = link.queue_capacity_bytes, link.propagation_delay_s
    horizon = n_epochs * eps
    k = len(sim.classes)
    arrival, rem, cls, fid = sim._arrival, sim._rem, sim._cls, sim._fid
    heap, callbacks = sim._heap, sim._callbacks
    queue, counters = sim._queues[0], sim.counters
    appends = [lat.append for lat in sim._latencies]
    m = sim.metrics
    failed = m.failed_flow_ids
    arrived_fromlist, delivered_fromlist, dropped_fromlist, queued_fromlist = (
        col.flat.fromlist for col in (m.arrived, m.delivered, m.dropped, m.queued))
    shares_append, ranks_append = m.shares.append, m.ranks.append
    inf, never = math.inf, -math.inf
    zero = [0] * k  # one list, never changed, for every row that is all zero

    # The flows offered, in order, from FIFO index `base` on: their entries
    # and departures. A flow dropped whole keeps its place with no bytes
    # (rem 0 until the pass ends) and the departure before it; `holes` holds
    # the FIFO indices of such flows, and `whole` their entries and sizes.
    # Flows before h have departed by the last drop test; room is cap less
    # the bytes accepted from flow h on, plus the bytes credited to flow h,
    # never more than the free space.
    fifo, ends, base = array("q"), array("d"), 0
    fifo_append, fifo_frombytes, ends_append = fifo.append, fifo.frombytes, ends.append
    holes, whole = [], []
    h, room, credited = 0, cap, 0
    tail = prev = never  # the last departure, and the one before flow h
    lat_n = -1  # the first flow whose latency waits for its departure, or -1
    due = deque()  # (departure, FIFO index, entry) of each flow with a callback
    # The bytes offered and dropped by class, in all and at the end boundary
    # of the last arrival's epoch; that epoch's arrived and dropped rows are
    # worked out once an arrival comes after it, into arrived_rows and
    # dropped_rows, and shown once it has ended.
    ea, arrive_by = 0, eps
    arr_cum, drp_cum, arr_at, drp_at = [0] * k, [0] * k, [0] * k, [0] * k
    arrived_rows, dropped_rows = deque(), deque()
    # The last departure's epoch, its end boundary and its bytes so far by
    # class. Its delivered row is worked out once a departure comes after
    # it, into `ahead`, and shown with its queued row once it has ended.
    e, depart_by = 0, eps
    departed_now = [0] * k
    lent, lent_cls = 0, 0  # the bytes credited to the head at the last boundary, its class
    ahead, shown, shown_by, queued = deque(), 0, eps, zero  # shown_by: the next end boundary
    offered, largest = 0, m.max_flow_size
    pos, stop, first, seqs = sim._pos, sim._stop, sim._first, sim._seqs
    # The cursor's record sizes: the largest flow offered so far from the
    # cursor is the last record read. They are made again whenever code adds
    # flows, which makes a new cursor; r is the next record to read.
    rec_at, rec_size = _records(rem, pos, stop)
    r = 0
    s_offered = s_w = s_got = -1  # what the ledger was last set from
    sim._in_epoch = True
    while True:
        t_due = due[0][0] if due else inf
        t_heap = heap[0][0] if heap else inf
        t_next = arrival[pos] if pos < stop else inf
        batch = fn = None
        if t_due <= t_next and t_due <= t_heap and t_due <= horizon:
            # A completion with a callback: its flow and those before it
            # have departed, and the boundary at t_due is still ahead.
            t, w, j = due.popleft()
            w += 1
            fn, at = callbacks.pop(j), t + delay
        elif t_next < t_heap or (t_next == t_heap < horizon
                                 and heap[0][1] > seqs[pos - first]):
            if t_next < horizon:
                # The cursor's arrivals before the next event of another kind.
                bound = t_due if t_due < t_heap else t_heap
                if bound > horizon:
                    bound = horizon
                read = bisect_left(arrival, bound, pos, stop)
                if read == pos:  # tied with the heap entry, and first
                    read = pos + 1
                batch, injected = range(pos, read), -1
                fifo_frombytes(np.arange(pos, read, dtype=np.int64).tobytes())
                while rec_at[r] < read:
                    r += 1
                if rec_size[r - 1] > largest:
                    largest = rec_size[r - 1]
                offered += read - pos
                pos = read
        elif t_heap < horizon:
            _, _, j = heappop(heap)
            batch, injected = (j,), j
            fifo_append(j)
            bound = heap[0][0] if heap else inf
            if t_due < bound:
                bound = t_due
            if bound > horizon:
                bound = horizon
            size0 = rem[j]
            if size0 > largest:
                largest = size0
            offered += 1
        if batch is not None:
            # Latencies are appended on acceptance while none waits, for the
            # flows that depart before any code can run.
            lat_ok = bound if lat_n < 0 else never
            for j in batch:
                a = arrival[j]
                size = rem[j]
                c = cls[j]
                while a >= arrive_by:
                    arr_at = _close(arrived_rows, arr_cum, arr_at, zero)
                    drp_at = _close(dropped_rows, drp_cum, drp_at, zero)
                    ea += 1
                    arrive_by = (ea + 1) * eps
                arr_cum[c] += size
                if size > room:
                    # Complete the flows that depart by a; then credit the
                    # head its served bytes at a.
                    i, top = h - base, len(ends)
                    if i < top and ends[i] <= a:
                        room -= credited
                        credited = 0
                        while i < top and ends[i] <= a:
                            room += rem[fifo[i]]
                            i += 1
                        prev = ends[i - 1]
                        h = base + i
                    if i < top:
                        hj = fifo[i]
                        ah = arrival[hj]
                        start = ah if ah > prev else prev
                        if a > start:
                            served = int(rate * (a - start))
                            if served >= rem[hj]:
                                served = rem[hj] - 1
                            room += served - credited
                            credited = served
                    if i > 1024 and i > top >> 1:
                        cut = i if lat_n < 0 or lat_n >= h else lat_n - base
                        _zero(rem, fifo[:cut])
                        del fifo[:cut], ends[:cut]
                        base += cut
                    if size > room:
                        drp_cum[c] += size - room
                        if not room:  # dropped whole
                            failed.append(fid[j])
                            holes.append(base + len(ends))
                            whole.append((j, size))
                            rem[j] = 0
                            ends_append(tail)
                            continue
                        size = rem[j] = room
                start = a if a > tail else tail
                tail = start + size / rate
                room -= size
                ends_append(tail)
                while tail > depart_by:  # j is the head at each boundary it crosses
                    departed_now[lent_cls] -= lent
                    lent = 0
                    if depart_by > start:
                        lent = int(rate * (depart_by - start))
                        if lent >= size:
                            lent = size - 1
                    departed_now[c] += lent
                    ahead.append(departed_now if any(departed_now) else zero)
                    departed_now, lent_cls = [0] * k, c
                    e += 1
                    depart_by = (e + 1) * eps if e < n_epochs else inf
                departed_now[c] += size
                if tail < lat_ok:
                    appends[c](tail + delay - a)
                elif lat_n < 0:
                    lat_n = base + len(ends) - 1
            if injected >= 0 and callbacks and injected in callbacks:
                if rem[injected]:
                    due.append((tail, base + len(ends) - 1, injected))
                else:  # dropped whole
                    del callbacks[injected]
            continue

        # The flows from w on wait at t: those after a callback's own, or
        # those that depart after t; credit the head its served bytes at t.
        # h and room are left to the next drop test.
        top = base + len(ends)
        got = 0
        if fn is None:
            # Nothing is taken before the horizon; a run until idle that has
            # drained ends at the boundary after its last event.
            t = horizon
            if until_idle and pos == stop and not heap and not due:
                n = (ea if ea > e else e) + 1
                if n < n_epochs:
                    t = n * eps
            w = bisect_right(ends, t, h - base) + base
            if w < top:
                head = fifo[w - base]
                ah = arrival[head]
                before = ends[w - 1 - base] if w > h else prev
                head_start = ah if ah > before else before
                if t > head_start:
                    got = int(rate * (t - head_start))
                    if got >= rem[head]:
                        got = rem[head] - 1
        if lat_n >= 0:
            for j, end in zip(fifo[lat_n - base:w - base], ends[lat_n - base:w - base]):
                if rem[j]:  # not dropped whole
                    appends[cls[j]](end + delay - arrival[j])
            lat_n = w if w < top else -1
        # Show the rows of the epochs that have ended by t.
        n = shown
        if shown_by < t or (fn is None and shown_by == t):
            n += 1
            if fn is None:
                while (n + 1) * eps <= t:
                    n += 1
            else:
                while (n + 1) * eps < t:
                    n += 1
            while ea < n:
                arr_at = _close(arrived_rows, arr_cum, arr_at, zero)
                drp_at = _close(dropped_rows, drp_cum, drp_at, zero)
                ea += 1
            arrive_by = (ea + 1) * eps
            while e < n:  # no accepted flow crosses the boundary: close the epoch
                departed_now[lent_cls] -= lent
                lent = 0
                ahead.append(departed_now if any(departed_now) else zero)
                departed_now = [0] * k
                e += 1
                depart_by = (e + 1) * eps if e < n_epochs else inf
            for _ in range(n - shown):
                arr, drp, dlv = arrived_rows.popleft(), dropped_rows.popleft(), ahead.popleft()
                if arr is not zero or dlv is not zero or drp is not zero:
                    queued = list(map(sub, map(sub, map(add, queued, arr), dlv), drp))
                arrived_fromlist(arr)
                delivered_fromlist(dlv)
                dropped_fromlist(drp)
                queued_fromlist(queued)
                shares_append(None)
                ranks_append(None)
            shown, shown_by = n, (n + 1) * eps
        # The ledger, the queue and the counts at t. They are as the last
        # code left them if no flow has arrived or departed since and the
        # head's credit is the same.
        if offered != s_offered or w != s_w or got != s_got or fn is None:
            s_offered, s_w, s_got = offered, w, got
            waiting = fifo[w - base:]
            completed = w
            if holes:
                completed -= bisect_left(holes, w)
                if holes[-1] >= w:
                    waiting = [j for j in waiting if rem[j]]
            held = [0] * k
            for j in waiting:
                held[cls[j]] += rem[j]
            if got:
                held[cls[head]] -= got
            for c, arr, drp, q in zip(counters, arr_cum, drp_cum, held):
                c.arrived = arr
                c.dropped = drp
                c.queued = q
                c.delivered = arr - drp - q
            queue.clear()
            queue.extend(waiting)
            sim._queued_bytes[0] = sum(held)
            m.flows_offered, m.flows_completed, m.max_flow_size = offered, completed, largest
        sim._pos, sim.now, sim._epoch = pos, t, n
        if fn is None:
            break
        if got:
            rem[head] -= got
        fn(sim, at)
        if got:
            rem[head] += got
        if sim._seqs is not seqs:
            rec_at, rec_size = _records(rem, sim._pos, sim._stop)
            r = 0
        pos, stop, first, seqs = sim._pos, sim._stop, sim._first, sim._seqs

    _zero(rem, fifo[:w - base])
    for j, size in whole:
        rem[j] = size
    if waiting:
        sim._replan(head_start)  # the head's plan, as made when it began service
        sim._plan.done = got
        rem[head] -= got
    sim._at_boundary = list(zip(arr_cum, map(sub, map(sub, arr_cum, drp_cum), queued), drp_cum))
    sim._in_epoch = False
