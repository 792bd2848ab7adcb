"""Long runs against closed-form queueing results.

Every other pin on the simulator came from its own earlier output or from a
reference worked out flow by flow on small runs. The generated sources are
Poisson, so a run whose queues are never full is an M/G/1 system, and
closed-form results check it by a route that shares no code with the
simulator. The predictions take each class's lambda, E[S] and E[S^2] from
the trace itself; a flow's latency is its time in the system plus the
propagation delay.

Open. An open run is one FIFO served at the link's rate. Its mean waiting
time is W_q = lambda E[S^2] / (2 (1 - rho)) (Pollaczek-Khinchine;
Kleinrock, Queueing Systems vol. 1, 1975), and a flow's latency is
W_q + E[S] plus the propagation delay. W_q is also the time-average
unfinished work, in seconds of service, which the queued column holds in
bytes at each epoch end. The traffic is the benchmark's nine-class load
(perfbench's nine_class_dict: nine Poisson sources of 1.5 flows/s,
lognormal sizes of mean 20,480 bytes and sigma 0.8, rho about 0.22) on a
1e9-byte queue, so that nothing drops.

Closed. A closed run serves one queue per class in strict priority order,
preempting and resuming, each class at most its budget per epoch. Where no
budget binds, that is the preemptive-resume priority M/G/1 queue: class p
has mean time in system E[S_p] / (1 - s_{p-1}) + R_p / ((1 - s_{p-1})
(1 - s_p)), where s_p sums rho over p and the classes above it and R_p
sums lambda E[S^2] / 2 over them (Kleinrock, Queueing Systems vol. 2,
1976, section 3.7). The formula has no budgets: a flow that meets a spent
budget waits for the next boundary. Rather than bound that wait, the test
takes traffic whose rows show no binding cell, and checks that they show
none, so that the formula applies as it stands. Three Poisson classes of
15 flows/s with lognormal sizes of sigma 0.6 and means 12, 8 and 10 KiB
(rho about 0.37 in all) run under FixedShareController with shares 1/3 and
priority order (2, 0, 1) over 2 s epochs: a class's budget is 833,333
bytes an epoch, and the most any class delivers in one epoch of seed 0 is
682,496. At 1.5 flows/s of the nine-class sizes over 0.5 s epochs, 58-73
of 120,000 epoch-class cells bind and every class reads 0.65-1.24% above
the formula.

The tolerance is fixed here, before any run: the sample mean may differ
from the formula by at most four standard errors, each estimated by batch
means over BATCHES time-ordered batches (Student's t with 19 degrees of
freedom exceeds 3.9 with probability 0.001). The seeds are fixed, so the
verdict is deterministic. On seeds 0-2 at 40,000 epochs the open run's
mean latency read -0.06% to -0.02% off the formula against a batch
standard error of 0.24-0.39%, and the mean queued work -1.5% to -0.4%
against 0.9-1.6%. On seeds 0-2 of the closed traffic the class means read
0.00% to +0.95% above it, within 1.7 standard errors.
"""

import math

import numpy as np
import pytest

from hcqsim.control import FixedShareController
from hcqsim.netsim import FeedbackMode, LinkSimulator, LinkSpec
from hcqsim.traffic import (
    AppKind,
    ClassProfile,
    SizeDistribution,
    TrafficClassLabel,
    TrafficProfile,
    ZoneClass,
    generate_trace,
)

from test_netsim import on_event_core

BATCHES = 20
TOLERANCE_SE = 4.0

LINK = LinkSpec(capacity_bps=1.0e7, queue_capacity_bytes=10**9, propagation_delay_s=0.001,
                epoch_s=0.5)
NINE_CLASSES = TrafficProfile(tuple(
    ClassProfile(label, 1.5, SizeDistribution(family="lognormal", mean_bytes=20480.0, sigma=0.8))
    for label in [TrafficClassLabel(zc, kind) for zc in (ZoneClass.A, ZoneClass.B)
                  for kind in (AppKind.DATABASE, AppKind.WEB, AppKind.FILE, AppKind.SERVICE)]
    + [TrafficClassLabel(ZoneClass.C)]))


def batch_mean_and_se(batches):
    """The mean of equal-weight batch means and its standard error."""
    means = np.array([np.mean(b) for b in batches])
    return means.mean(), means.std(ddof=1) / math.sqrt(len(means))


def check_against_pollaczek_khinchine(seed, n_epochs, core):
    duration = n_epochs * LINK.epoch_s
    trace = generate_trace(NINE_CLASSES, duration, seed)
    sim = LinkSimulator(LINK, trace.labels, FeedbackMode.OPEN)
    if core:
        on_event_core(sim)
    sim.add_flows(trace)
    m = sim.run_epochs(n_epochs)
    assert m.dropped_bytes() == 0 and m.flows_completed == len(trace)

    service = np.asarray(trace.size, dtype=float) / LINK.byte_rate
    lam = len(trace) / duration
    mean_s, mean_s2 = service.mean(), (service * service).mean()
    rho = lam * mean_s
    wait = lam * mean_s2 / (2 * (1 - rho))

    # Each class's latencies are in completion order, which is arrival order
    # on one FIFO; batch b takes the b-th time slice of every class.
    per_class = [np.frombuffer(m.latencies_s[label]) for label in m.classes]
    latency, latency_se = batch_mean_and_se(
        [np.concatenate(parts) for parts in zip(*(np.array_split(x, BATCHES)
                                                  for x in per_class))])
    want = wait + mean_s + LINK.propagation_delay_s
    assert abs(latency - want) <= TOLERANCE_SE * latency_se, (latency, want, latency_se)

    work = np.asarray(m.queued, dtype=float).sum(axis=1) / LINK.byte_rate
    mean_work, work_se = batch_mean_and_se(np.array_split(work, BATCHES))
    assert abs(mean_work - wait) <= TOLERANCE_SE * work_se, (mean_work, wait, work_se)
    # The standard errors are small enough for the check to mean something.
    assert latency_se < 0.01 * want and work_se < 0.05 * wait


@pytest.mark.parametrize("seed,n_epochs,core", [
    (0, 40_000, False),  # the FIFO pass: about 270,000 flows
    (1, 20_000, True),   # the event core: about 135,000 flows
])
def test_open_run_matches_pollaczek_khinchine(seed, n_epochs, core):
    check_against_pollaczek_khinchine(seed, n_epochs, core)


CLOSED_LINK = LinkSpec(capacity_bps=1.0e7, queue_capacity_bytes=10**9,
                       propagation_delay_s=0.001, epoch_s=2.0)
THREE_CLASSES = TrafficProfile(tuple(
    ClassProfile(TrafficClassLabel(ZoneClass.A, kind), 15.0,
                 SizeDistribution(family="lognormal", mean_bytes=mean, sigma=0.6))
    for kind, mean in ((AppKind.DATABASE, 12288.0), (AppKind.WEB, 8192.0),
                       (AppKind.FILE, 10240.0))))
PRIORITY = (2, 0, 1)


def preemptive_resume_priority(lam, mean_s, mean_s2, order):
    """Each class's mean time in system, in class order, for a
    preemptive-resume priority M/G/1 queue serving classes in order."""
    times = [0.0] * len(lam)
    above, residual = 0.0, 0.0
    for p in order:
        residual += lam[p] * mean_s2[p] / 2
        through = above + lam[p] * mean_s[p]
        times[p] = mean_s[p] / (1 - above) + residual / ((1 - above) * (1 - through))
        above = through
    return times


def test_closed_run_matches_preemptive_resume_priority():
    n_epochs = 2_000  # about 180,000 flows
    duration = n_epochs * CLOSED_LINK.epoch_s
    trace = generate_trace(THREE_CLASSES, duration, 0)
    sim = LinkSimulator(CLOSED_LINK, trace.labels, FeedbackMode.CLOSED,
                        controller=FixedShareController((1 / 3,) * 3, PRIORITY))
    sim.add_flows(trace)
    m = sim.run_epochs(n_epochs)
    assert m.dropped_bytes() == 0 and m.flows_completed == len(trace)
    assert m.classes == trace.labels
    # No class spends its budget in any epoch, so no budget holds work back.
    budget = int(CLOSED_LINK.bytes_per_epoch / 3)
    assert max(map(max, m.delivered)) < budget

    service = np.asarray(trace.size, dtype=float) / CLOSED_LINK.byte_rate
    cls = np.asarray(trace.cls)
    per_class = [service[cls == i] for i in range(len(m.classes))]
    want = preemptive_resume_priority([len(s) / duration for s in per_class],
                                      [s.mean() for s in per_class],
                                      [(s * s).mean() for s in per_class], PRIORITY)
    for label, time_in_system in zip(m.classes, want):
        latency, se = batch_mean_and_se(np.array_split(np.frombuffer(m.latencies_s[label]),
                                                       BATCHES))
        expected = time_in_system + CLOSED_LINK.propagation_delay_s
        assert abs(latency - expected) <= TOLERANCE_SE * se, (label, latency, expected, se)
        assert se < 0.01 * expected
