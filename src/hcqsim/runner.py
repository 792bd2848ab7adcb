"""Orchestration: trace generation, identification warmup, paired
open/closed runs, the hybrid-DB experiment, and run-directory output."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from .config import ScenarioConfig
from .control import ExcitationController, MpcController, identify_model, save_model_csv
from .hybriddb import ExperimentResult, build_corpus, run_experiment, sample_query_authors
from .metrics import ComparisonReport, compare_modes, export_report, fmt
from .netsim import FeedbackMode, SimMetrics, run_simulation
from .traffic import generate_trace


@dataclass
class RunResult:
    cfg: ScenarioConfig
    open_metrics: Optional[SimMetrics] = None
    closed_metrics: Optional[SimMetrics] = None
    report: Optional[ComparisonReport] = None
    model: object = None
    identification_residual: float = math.nan
    corpus: object = None
    experiment: Optional[ExperimentResult] = None


def build_trace(cfg: ScenarioConfig):
    return generate_trace(cfg.traffic, cfg.duration_s(), cfg.seed)


def identify_from_warmup(trace, link, classes, warmup_epochs: int, excitation_seed: int,
                         control_message_bytes: int = 0, scenario_id: str = "warmup",
                         control_bounds=None):
    """Drive the link with random feasible shares and fit (A, B) to the
    observed per-epoch (state, shares) pairs. The warmup offers the trace
    up to its horizon, as run_epochs offers nothing at or after it."""
    k = len(classes)
    metrics = run_simulation(
        trace, link, FeedbackMode.CLOSED, scenario_id=f"{scenario_id}-warmup",
        n_epochs=warmup_epochs, control_message_bytes=control_message_bytes,
        classes=classes, controller=ExcitationController(k, excitation_seed),
    )
    return identify_model(metrics.state_history, n=2 * k, m=k,
                          control_bounds=control_bounds)


def run_open(cfg: ScenarioConfig, trace, classes) -> SimMetrics:
    return run_simulation(trace, cfg.link, FeedbackMode.OPEN, seed=cfg.seed,
                          scenario_id=cfg.scenario_id, n_epochs=cfg.n_epochs,
                          classes=classes)


def run_closed(cfg: ScenarioConfig, trace, classes):
    """(metrics, model, residual) of a run under MpcController(model, weights,
    horizon, grid). The model is the config's fixed one, which carries the
    config's control set, or one identified from a warmup under that set."""
    cc = cfg.controller
    if cc is None:
        raise ValueError("closed run requires a controller section")
    if cc.identify:
        model, residual = identify_from_warmup(
            trace, cfg.link, classes, cc.warmup_epochs, cc.excitation_seed,
            control_message_bytes=cc.control_message_bytes, scenario_id=cfg.scenario_id,
            control_bounds=cc.control_bounds,
        )
    else:
        model, residual = cc.model, math.nan
    metrics = run_simulation(
        trace, cfg.link, FeedbackMode.CLOSED, cfg.seed, scenario_id=cfg.scenario_id,
        n_epochs=cfg.n_epochs, control_message_bytes=cc.control_message_bytes,
        classes=classes, controller=MpcController(model, cc.weights, cc.horizon, cc.grid),
    )
    return metrics, model, residual


def run_hybrid(cfg: ScenarioConfig, trace):
    hc = cfg.hybrid_db
    corpus = build_corpus(hc.corpus_spec)
    authors = sample_query_authors(corpus, hc.n_queries, hc.query_seed)
    experiment = run_experiment(
        corpus,
        authors,
        hc.backends,
        cfg.link,
        background=trace,
        scenario_id=cfg.scenario_id,
        seed=cfg.seed,
        start_time=hc.query_start_s,
        parallel=hc.parallel_fetch,
    )
    return corpus, experiment


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute the modes a config requests; paired runs share one trace."""
    trace = build_trace(cfg)
    classes = cfg.classes()
    result = RunResult(cfg=cfg)
    if cfg.mode in ("open", "both"):
        result.open_metrics = run_open(cfg, trace, classes)
    if cfg.mode in ("closed", "both"):
        result.closed_metrics, result.model, result.identification_residual = run_closed(
            cfg, trace, classes
        )
    if result.open_metrics is not None and result.closed_metrics is not None:
        result.report = compare_modes(result.open_metrics, result.closed_metrics)
    if cfg.hybrid_db is not None:
        result.corpus, result.experiment = run_hybrid(cfg, trace)
    return result


def write_outputs(result: RunResult, out_dir) -> list[str]:
    """Write the run directory; every file is a pure function of the run."""
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.cfg
    for name, metrics in (("open", result.open_metrics), ("closed", result.closed_metrics)):
        if metrics is None:
            continue
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        p = os.path.join(sub, "epochs.csv")
        metrics.write_epochs_csv(p)
        paths.append(p)
    if result.model is not None:
        p = os.path.join(out_dir, "closed", "model.csv")
        save_model_csv(result.model, p)
        paths.append(p)
        p = os.path.join(out_dir, "closed", "residual.txt")
        with open(p, "w") as fh:
            fh.write(fmt(result.identification_residual) + "\n")
        paths.append(p)
    if result.report is not None:
        paths.extend(export_report(result.report, out_dir))
    if result.experiment is not None:
        p = os.path.join(out_dir, "experiment.csv")
        result.experiment.write_csv(p)
        paths.append(p)
        p = os.path.join(out_dir, "corpus.csv")
        result.corpus.write_csv(p)
        paths.append(p)
    return paths
