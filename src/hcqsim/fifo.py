"""The open FIFO pass: an open run of a bare trace without the event core.

An open LinkSimulator that has not begun an epoch and holds no heap entry
offers the trace cursor alone: no callback, step or preemption can meet the
run, and in one drop-tail FIFO with no budget a flow's departure is fixed
when it is accepted (Lindley's recursion). LinkSimulator.run_epochs hands
such a run here, and it is taken in one pass over the flows before the
horizon, in offered order, instead of event by event.

Each flow gets its accepted bytes, its start max(arrival, previous
departure) and its departure start + accepted / byte_rate, with the event
core's float operations. The drop test keeps a stale upper bound on the
backlog. Only when a flow does not fit under it does the pass complete the
flows that end by the arrival, credit the head's served bytes as
LinkSimulator._credit does, and test again.

The ledger is kept per epoch as the flows go by, in ints, as the event
core keeps it. A flow's offered and dropped bytes count in the epoch it
arrives in, and its accepted bytes in the one it departs in: the first
whose end boundary is at or after its departure. A flow whose service
crosses a boundary is the head there. It has been credited min(accepted -
1, floor(byte_rate * (boundary - start))) bytes when the boundary is after
its start, as LinkSimulator._credit credits it, and the next epoch's
delivered count takes them back. An epoch's arrived and dropped rows are
appended when an arrival comes after its end boundary, and its delivered
row when a departure does; the queued rows and the counters follow at the
end.

The simulator is left at the horizon as the event core leaves it: the
waiting flows in the queue, the head's plan credited to the horizon, the
counters, the cursor and the clock. A later run, injected flow or step
goes on in the event core, which is the pass's reference. The pass reads
and writes the simulator's flow table and ledger; it is kept apart from the
event core in netsim because it shares none of its code.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import islice, repeat
from operator import itemgetter


def fifo_pass(sim, n_epochs: int) -> None:
    """Run the first n_epochs of sim, an open LinkSimulator that has not
    begun an epoch and holds no heap entry, and leave it as the event core
    would at the horizon."""
    link = sim.link
    eps, rate = link.epoch_s, sim.byte_rate
    cap, delay = link.queue_capacity_bytes, link.propagation_delay_s
    horizon = n_epochs * eps
    k = len(sim.classes)
    arrival, rem, cls, fid = sim._arrival, sim._rem, sim._cls, sim._fid
    pos = sim._pos
    read = bisect_left(arrival, horizon, pos, sim._stop)
    largest = max(islice(rem, pos, read), default=0)
    appends = [lat.append for lat in sim._latencies]
    failed = sim.metrics.failed_flow_ids
    whole = {}  # the size of each flow dropped whole, by entry
    # The rows of each epoch are appended once it ends: arrived and dropped
    # when an arrival comes after its end boundary, delivered when a
    # departure does. Until then its bytes by class are counted in lists.
    m = sim.metrics
    arrived_rows, dropped_rows, delivered_rows = m.arrived, m.dropped, m.delivered
    zero = (0,) * k  # one tuple for every row that is all zero
    offered_now, dropped_now, departed_now = [0] * k, [0] * k, [0] * k
    lent, lent_cls = 0, 0  # the bytes credited to the head at the last boundary, its class
    # ends[j - base] is flow j's departure (for a flow dropped whole, that of
    # the flow before it): the flows from h on, whose departures the drop
    # test may still need.
    ends, base = array("d"), pos
    # room is cap less the bytes accepted from flow h on, plus the bytes
    # credited to flow h: never more than the free space.
    room, h, credited = cap, pos, 0
    tail = prev = -math.inf  # the last departure, and the one before flow h
    head, head_start = read, 0.0  # the head at the horizon, and its start
    ea, arrive_by = 0, eps  # the arrival epoch and its end boundary
    e, depart_by = 0, eps  # the departure epoch and its end boundary
    for j in range(pos, read):
        a = arrival[j]
        size = rem[j]
        c = cls[j]
        if a >= arrive_by:
            arrived_rows.append(tuple(offered_now) if any(offered_now) else zero)
            dropped_rows.append(tuple(dropped_now) if any(dropped_now) else zero)
            offered_now, dropped_now = [0] * k, [0] * k
            ea += 1
            arrive_by = (ea + 1) * eps
            while a >= arrive_by:
                arrived_rows.append(zero)
                dropped_rows.append(zero)
                ea += 1
                arrive_by = (ea + 1) * eps
        offered_now[c] += size
        if size > room:
            # Complete the flows that end by a; then credit the head its
            # served bytes at a, as LinkSimulator._credit does.
            while h < j and ends[h - base] <= a:
                prev = ends[h - base]
                room += rem[h] - credited
                credited = 0
                h += 1
            if h < j:
                ah = arrival[h]
                start = ah if ah > prev else prev
                if a > start:
                    got = int(rate * (a - start))
                    if got >= rem[h]:
                        got = rem[h] - 1
                    room += got - credited
                    credited = got
            if h - base > len(ends) >> 1:
                del ends[:h - base]
                base = h
            if size > room:
                dropped_now[c] += size - room
                if not room:  # dropped whole: it takes no place in the FIFO
                    failed.append(fid[j])
                    whole[j] = size
                    rem[j] = 0
                    ends.append(tail)
                    continue
                size = rem[j] = room
        start = a if a > tail else tail
        tail = start + size / rate
        room -= size
        ends.append(tail)
        while tail > depart_by:  # j is the head at each boundary it crosses
            departed_now[lent_cls] -= lent
            lent = 0
            if depart_by > start:
                lent = int(rate * (depart_by - start))
                if lent >= size:
                    lent = size - 1
            departed_now[c] += lent
            delivered_rows.append(tuple(departed_now) if any(departed_now) else zero)
            departed_now, lent_cls = [0] * k, c
            head, head_start = j, start
            e += 1
            depart_by = (e + 1) * eps if e < n_epochs else math.inf
        departed_now[c] += size
        appends[c](tail + delay - a)
    del ends
    # The epochs that end after the last arrival or departure, and the
    # queued rows and counters.
    while ea < n_epochs:
        arrived_rows.append(tuple(offered_now) if any(offered_now) else zero)
        dropped_rows.append(tuple(dropped_now) if any(dropped_now) else zero)
        offered_now = dropped_now = zero
        ea += 1
    if e < n_epochs:
        head = read  # every accepted flow departs by the horizon
        departed_now[lent_cls] -= lent
        lent = 0
        while e < n_epochs:
            delivered_rows.append(tuple(departed_now) if any(departed_now) else zero)
            departed_now = zero
            e += 1
    queued = zero
    for row in zip(arrived_rows, delivered_rows, dropped_rows):
        queued = tuple(q + a - d - x for q, a, d, x in zip(queued, *row))
        m.queued.append(queued if any(queued) else zero)
    m.shares.extend(repeat(None, n_epochs))
    m.ranks.extend(repeat(None, n_epochs))
    totals = [[sum(map(itemgetter(i), rows)) for i in range(k)]
              for rows in (arrived_rows, delivered_rows, dropped_rows)]
    for counters, *ledger in zip(sim.counters, *totals, queued):
        counters.arrived, counters.delivered, counters.dropped, counters.queued = ledger
    sim._at_boundary = tuple(map(tuple, totals))

    # The flows that depart after the horizon wait in the queue, and have no
    # latency yet; the head has been credited lent bytes at the horizon.
    waiting = [j for j in range(head, read) if rem[j]]
    for j in reversed(waiting):
        sim._latencies[cls[j]].pop()
    m.flows_offered += read - pos
    m.flows_completed += head - pos - sum(j < head for j in whole)
    m.max_flow_size = max(m.max_flow_size, largest)
    if waiting:
        sim._queues[0].extend(waiting)
        sim._queued_bytes[0] = sum(rem[j] for j in waiting) - lent
        sim._replan(head_start)  # the head's plan, as made when it began service
        sim._plan.done = lent
        rem[head] -= lent
    zeros = array("q", bytes(8 * 1024))
    for j in range(pos, head, 1024):  # the flows that departed have no bytes left
        rem[j:min(j + 1024, head)] = zeros[:min(1024, head - j)]
    for j, size in whole.items():  # a flow dropped whole keeps its size
        rem[j] = size
    sim._pos = read
    sim.now = horizon
    sim._epoch = n_epochs
