"""The benchmark's three workloads, built from hcqsim's public functions.

``setup`` makes a workload's inputs from its seed: it parses the configs and
generates the traces and, for s2, builds the corpus and samples the query
authors. ``run_round`` runs one round of the same operations on them and
writes the run directories; it calls ``speed`` after each timed unit, outside
its time, and keeps the host speed it returns with the unit. Without a tracer a round calls the functions
``hcqsim.runner.run_scenario`` calls. With one it builds the same pipeline
call by call, so that a span sits around every call into a layer; the run
directories of the two must be byte-identical.
"""

from __future__ import annotations

import math
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from hcqsim.config import parse_config
from hcqsim.control import MpcController, StateSpaceModel
from hcqsim.hybriddb import ExperimentError, build_corpus, run_experiment, sample_query_authors
from hcqsim.metrics import compare_modes
from hcqsim.netsim import FeedbackMode, LinkSimulator
from hcqsim.runner import (
    RunResult,
    build_trace,
    identify_from_warmup,
    run_closed,
    run_open,
    write_outputs,
)
from hcqsim.scenarios import s1_config, s2_congested_config, s2_idle_config

from checks import articles_of, grid_points
from tracing import TracedController

# s2 runs this fixed block of scenario seeds in every round; the workload
# seed only shuffles their order. Seeds 1, 2, 6, 8, 9 and 18 hit the
# dropped-fetch fault of run_experiment, so the failed share of a round is
# the same whatever the workload seed.
S2_SEEDS = tuple(range(21))

_KINDS = ("Database", "Web", "File", "Service")


def nine_class_dict(seed: int) -> dict:
    """All nine classes of the two-stage classifier (A x4, B x4, C) under a
    light Poisson load (about 22% of the link), closed loop with a model
    identified from warmup and a 256-byte control message per epoch. Grid 5
    over nine shares gives 715 candidates per decision.

    The sources are unmodulated: a round's time is mostly its 400 decisions,
    whatever the trace, so flows_per_s follows the trace's flow count, and
    on/off sources with exponential bursts made that count spread 7% from
    seed to seed (Poisson: about 2.5%)."""
    size = {"family": "lognormal", "mean_bytes": 20480.0, "sigma": 0.8}
    source = {"rate_per_s": 1.5, "size": size}
    traffic = [dict(source, zone_class=zc, app_kind=k) for zc in "AB" for k in _KINDS]
    traffic.append(dict(source, zone_class="C"))
    return {
        "scenario_id": "nine-class",
        "seed": seed,
        "n_epochs": 400,
        "mode": "closed",
        "link": {
            "capacity_bps": 1.0e7,
            "queue_capacity_bytes": 1_000_000,
            "propagation_delay_s": 0.001,
            "epoch_s": 0.5,
        },
        "traffic": traffic,
        "controller": {
            "model": "identify-from-warmup",
            "warmup_epochs": 60,
            "excitation_seed": seed,
            "horizon": 3,
            "grid": 5,
            "control_message_bytes": 256,
            "weights": {
                "Q_diag": [4.0] * 9 + [1.0] * 9,
                "R_diag": [0.01] * 9,
                "x_ref": [0.0] * 9 + [0.1] * 9,
            },
        },
    }


@dataclass
class Scenario:
    """One config with its trace, ready to run."""

    cfg: object
    trace: list
    classes: tuple
    corpus: object = None
    authors: Optional[list] = None


@dataclass
class SimRecord:
    """A simulation whose outputs the checks reconcile with its inputs."""

    name: str
    metrics: object
    trace: list
    epochs_csv: Optional[str]
    injected_sizes: list
    control: Optional[tuple] = None  # (model, controller config) of a closed run


@dataclass
class ExperimentRecord:
    name: str
    scenario: Scenario
    experiment: object
    sim: SimRecord


@dataclass
class RoundResult:
    units: list = field(default_factory=list)  # (flows offered, seconds, speed) per timed unit
    attempted: int = 0
    failed: int = 0
    sims: list = field(default_factory=list)
    experiments: list = field(default_factory=list)
    report: object = None
    counts: dict = field(default_factory=dict)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _scenario(make_cfg, seed, tracer, hybrid=False) -> Scenario:
    cfg = make_cfg(seed)
    with _span(tracer, "traffic.generate_trace"):
        trace = build_trace(cfg)
    sc = Scenario(cfg, trace, cfg.classes())
    if hybrid:
        hc = cfg.hybrid_db
        with _span(tracer, "hybriddb.build_corpus"):
            sc.corpus = build_corpus(hc.corpus_spec)
        sc.authors = sample_query_authors(sc.corpus, hc.n_queries, hc.query_seed)
    return sc


def _closed_model(cfg, trace, classes, tracer):
    """The model run_closed would use, and its identification residual."""
    cc = cfg.controller
    if cc.identify:
        with tracer.span("control.identify"):
            return identify_from_warmup(
                trace, cfg.link, classes, cc.warmup_epochs, cc.excitation_seed,
                control_message_bytes=cc.control_message_bytes,
                scenario_id=cfg.scenario_id, control_bounds=cc.control_bounds,
            )
    model = cc.model
    if cc.control_bounds is not None:
        model = StateSpaceModel(model.A, model.B, model.state_bounds, cc.control_bounds)
    return model, math.nan


def _simulate(cfg, trace, classes, tracer, mode, controller=None, msg_bytes=0):
    sim = LinkSimulator(cfg.link, classes, mode, controller=controller,
                        scenario_id=cfg.scenario_id, seed=cfg.seed,
                        control_message_bytes=msg_bytes)
    with tracer.span("netsim.add_flows"):
        sim.add_flows(trace)
    with tracer.span("netsim.run_epochs"):
        return sim.run_epochs(cfg.n_epochs)


def _open(sc: Scenario, tracer):
    if tracer is None:
        return run_open(sc.cfg, sc.trace, sc.classes)
    return _simulate(sc.cfg, sc.trace, sc.classes, tracer, FeedbackMode.OPEN)


def _closed(sc: Scenario, tracer):
    """(metrics, model, residual), as run_closed returns them."""
    if tracer is None:
        return run_closed(sc.cfg, sc.trace, sc.classes)
    cc = sc.cfg.controller
    model, residual = _closed_model(sc.cfg, sc.trace, sc.classes, tracer)
    with tracer.span("control.init"):
        mpc = MpcController(model, cc.weights, cc.horizon, cc.grid)
    metrics = _simulate(sc.cfg, sc.trace, sc.classes, tracer, FeedbackMode.CLOSED,
                        controller=TracedController(mpc, tracer),
                        msg_bytes=cc.control_message_bytes)
    return metrics, model, residual


def _write(result: RunResult, out_dir, tracer) -> None:
    with _span(tracer, "runner.write_outputs"):
        write_outputs(result, out_dir)


def _control_sizes(cfg) -> list:
    msg = cfg.controller.control_message_bytes
    return [msg] * cfg.n_epochs if msg > 0 else []


def _warmup_flows(sc: Scenario) -> int:
    """Flows the identification warmup offers: the trace before its horizon
    plus one control message per warmup epoch. identify_from_warmup keeps its
    simulation to itself, so the benchmark counts them from the inputs."""
    cc = sc.cfg.controller
    horizon_s = cc.warmup_epochs * sc.cfg.link.epoch_s
    msgs = cc.warmup_epochs if cc.control_message_bytes > 0 else 0
    return sum(1 for f in sc.trace if f.arrival_time < horizon_s) + msgs


def _candidates(sc: Scenario, model) -> int:
    """Grid points per decision, as the benchmark enumerates them."""
    return len(grid_points(model.control_bounds, sc.cfg.controller.grid))


def _finish_counts(rr: RoundResult, loop_flows: int, candidates: int) -> None:
    sims = [s.metrics for s in rr.sims] + [e.sim.metrics for e in rr.experiments]
    closed = [s.metrics for s in rr.sims if s.control is not None]
    rr.counts.update({
        "netsim.flows_offered": sum(m.flows_offered for m in sims),
        "netsim.flows_completed": sum(m.flows_completed for m in sims),
        "netsim.epochs": sum(m.n_epochs for m in sims),
        "netsim.loop_flows": loop_flows,
        "control.decisions": sum(len(m.state_history) for m in closed),
        "control.candidates": candidates if closed else 0,
        "hybriddb.queries": sum(len(e.experiment.rows) for e in rr.experiments),
        "hybriddb.fetches": sum(len(s.injected_sizes) for s in
                                (e.sim for e in rr.experiments)),
    })


class S1Histogram:
    """The canned s1 scenario, open then closed, as `hcqsim scenario s1-histogram`."""

    name = "s1-histogram"

    def setup(self, seed: int, tracer=None):
        return _scenario(s1_config, seed, tracer)

    def generated_flows(self, sc: Scenario) -> int:
        return len(sc.trace)

    def run_round(self, sc: Scenario, out_dir, tracer, speed) -> RoundResult:
        # Two units, the open run and the rest, so that the host's speed is
        # sampled in the middle of the round too.
        t0 = time.perf_counter()
        open_m = _open(sc, tracer)
        open_s = time.perf_counter() - t0
        open_speed = speed(open_s)
        t0 = time.perf_counter()
        closed_m, model, residual = _closed(sc, tracer)
        with _span(tracer, "metrics.compare_modes"):
            report = compare_modes(open_m, closed_m)
        _write(RunResult(cfg=sc.cfg, open_metrics=open_m, closed_metrics=closed_m,
                         report=report, model=model, identification_residual=residual),
               out_dir, tracer)
        seconds = time.perf_counter() - t0
        rr = RoundResult(units=[(open_m.flows_offered, open_s, open_speed),
                                (closed_m.flows_offered, seconds, speed(seconds))],
                         attempted=2)
        rr.sims = [
            SimRecord("open", open_m, sc.trace, os.path.join(out_dir, "open", "epochs.csv"), []),
            SimRecord("closed", closed_m, sc.trace,
                      os.path.join(out_dir, "closed", "epochs.csv"),
                      _control_sizes(sc.cfg), (model, sc.cfg.controller)),
        ]
        rr.report = report
        _finish_counts(rr, open_m.flows_offered + closed_m.flows_offered,
                       _candidates(sc, model))
        return rr


class NineClass:
    """All nine classes closed loop, with the model identified from warmup."""

    name = "nine-class"

    def setup(self, seed: int, tracer=None):
        return _scenario(lambda s: parse_config(nine_class_dict(s), source="nine-class"),
                         seed, tracer)

    generated_flows = S1Histogram.generated_flows

    def run_round(self, sc: Scenario, out_dir, tracer, speed) -> RoundResult:
        t0 = time.perf_counter()
        closed_m, model, residual = _closed(sc, tracer)
        _write(RunResult(cfg=sc.cfg, closed_metrics=closed_m, model=model,
                         identification_residual=residual), out_dir, tracer)
        seconds = time.perf_counter() - t0
        warmup = _warmup_flows(sc)
        rr = RoundResult(units=[(closed_m.flows_offered + warmup, seconds, speed(seconds))],
                         attempted=2)
        rr.sims = [SimRecord("closed", closed_m, sc.trace,
                             os.path.join(out_dir, "closed", "epochs.csv"),
                             _control_sizes(sc.cfg), (model, sc.cfg.controller))]
        _finish_counts(rr, closed_m.flows_offered, _candidates(sc, model))
        rr.counts["netsim.flows_offered"] += warmup
        return rr


class S2HybridDb:
    """The canned s2 congested and idle configs over the seeds S2_SEEDS.

    One operation is one seed's pair: for each config, the open run and the
    hybrid-vs-local experiment that `hcqsim scenario s2-hybrid-db` runs.
    """

    name = "s2-hybrid-db"

    def setup(self, seed: int, tracer=None):
        order = list(S2_SEEDS)
        random.Random(f"perfbench/s2/{seed}").shuffle(order)
        return [
            (s, _scenario(s2_congested_config, s, tracer, hybrid=True),
             _scenario(s2_idle_config, s, tracer, hybrid=True))
            for s in order
        ]

    def generated_flows(self, pairs) -> int:
        return sum(len(c.trace) + len(i.trace) for _, c, i in pairs)

    def _experiment(self, sc: Scenario, tracer):
        hc = sc.cfg.hybrid_db
        with _span(tracer, "hybriddb.run_experiment"):
            return run_experiment(
                sc.corpus, sc.authors, hc.backends, sc.cfg.link, background=sc.trace,
                scenario_id=sc.cfg.scenario_id, seed=sc.cfg.seed,
                start_time=hc.query_start_s, parallel=hc.parallel_fetch,
            )

    def run_round(self, pairs, out_dir, tracer, speed) -> RoundResult:
        rr = RoundResult()
        loop_flows = 0
        for seed, congested, idle in pairs:
            rr.attempted += 1
            t0 = time.perf_counter()
            done = []
            try:
                for kind, sc in (("congested", congested), ("idle", idle)):
                    done.append((kind, sc, _open(sc, tracer), self._experiment(sc, tracer)))
            except ExperimentError:
                rr.failed += 1
                speed(time.perf_counter() - t0)
                continue
            for kind, sc, open_m, ex in done:
                _write(RunResult(cfg=sc.cfg, open_metrics=open_m, corpus=sc.corpus,
                                 experiment=ex),
                       os.path.join(out_dir, f"seed{seed}", kind), tracer)
            seconds = time.perf_counter() - t0
            host_speed = speed(seconds)
            flows = 0
            for kind, sc, open_m, ex in done:
                name = f"seed{seed}/{kind}"
                epochs = os.path.join(out_dir, f"seed{seed}", kind, "open", "epochs.csv")
                rr.sims.append(SimRecord(f"{name}/open", open_m, sc.trace, epochs, []))
                fetches = [a.body_size for author in sc.authors
                           for a in articles_of(sc.corpus, author)]
                rr.experiments.append(ExperimentRecord(
                    name, sc, ex,
                    SimRecord(f"{name}/experiment", ex.sim_metrics, sc.trace, None, fetches)))
                flows += open_m.flows_offered + ex.sim_metrics.flows_offered
                loop_flows += open_m.flows_offered
            rr.units.append((flows, seconds, host_speed))
        _finish_counts(rr, loop_flows, 0)
        return rr


WORKLOADS = {w.name: w for w in (S1Histogram(), NineClass(), S2HybridDb())}
