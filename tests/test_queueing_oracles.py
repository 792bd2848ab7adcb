"""Long open runs against the Pollaczek-Khinchine formula.

Every other pin on the simulator came from its own earlier output or from a
reference worked out flow by flow on small runs. An open run is one FIFO
served at the link's rate, and the generated sources are Poisson, so the
link is an M/G/1 queue. Its mean waiting time is
W_q = lambda E[S^2] / (2 (1 - rho)) (Pollaczek-Khinchine; Kleinrock,
Queueing Systems vol. 1, 1975), and a flow's latency is W_q + E[S] plus the
propagation delay. W_q is also the time-average unfinished work, in seconds
of service, which the queued column holds in bytes at each epoch end. The
predictions take lambda, E[S] and E[S^2] from the trace itself, and share
no code with the simulator.

The traffic is the benchmark's nine-class load (perfbench's
nine_class_dict: nine Poisson sources of 1.5 flows/s, lognormal sizes of
mean 20,480 bytes and sigma 0.8, rho about 0.22) on a 1e9-byte queue, so
that nothing drops.

The tolerance is fixed here, before any run: the sample mean may differ
from the formula by at most four standard errors, each estimated by batch
means over BATCHES time-ordered batches (Student's t with 19 degrees of
freedom exceeds 3.9 with probability 0.001). The seeds are fixed, so the
verdict is deterministic. On seeds 0-2 at 40,000 epochs the mean latency
read -0.06% to -0.02% off the formula against a batch standard error of
0.24-0.39%, and the mean queued work -1.5% to -0.4% against 0.9-1.6%.
"""

import math

import numpy as np
import pytest

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
