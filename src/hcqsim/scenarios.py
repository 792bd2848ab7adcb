"""Canned scenarios with built-in configs and pass/fail evaluation.

s1-histogram: two bursty classes whose joint bursts offer 1.3x the link
capacity; closed-loop control must cut the drop fraction and utilization
variance by at least 20% and the above-0.95 utilization tail mass by at
least 30%, all relative to the open-mode FIFO baseline.

s2-hybrid-db: a corpus at scale 1e-3 (17 articles), 100 author queries
under both protocols. Result sets must match exactly, hybrid must lose on
a congested link (mean), and win on an idle link paired with a slow local
store (p50).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ScenarioConfig, parse_config
from .hybriddb import Protocol
from .runner import RunResult, run_scenario

S1_DROP_REDUCTION = 0.20
S1_VARIANCE_REDUCTION = 0.20
S1_TAIL_REDUCTION = 0.30

S1_SEED = 42
S2_SEED = 7


# s1 link constants. The controller's plant is the link's structural model
# (control.structural_model), which config builds from them.
_S1_CAPACITY_BPS = 1.0e7
_S1_EPOCH_S = 0.5
_S1_QUEUE_BYTES = 3_000_000
_S1_BURST_S = 4.0
_S1_IDLE_S = 2.4
_S1_MEAN_FLOW_BYTES = 20480.0
_S1_PEAK_FACTOR = 0.65  # per-class on-rate as a fraction of capacity


def _s1_dict(seed: int) -> dict:
    # Two on/off classes, each bursting at 0.65x capacity in fixed 4 s
    # spells, so joint bursts offer 1.3x capacity (long-run ~0.81x). The
    # cost couples the utilization components (ones block), parking total
    # shares at 0.95 with 5% headroom; the quadratic backlog penalty
    # water-fills the split and escalates past the park point only under
    # deep backlog. State order is the canonical class order: A:Web, B:File.
    duty = _S1_BURST_S / (_S1_BURST_S + _S1_IDLE_S)
    rate = _S1_PEAK_FACTOR * (_S1_CAPACITY_BPS / 8.0) / _S1_MEAN_FLOW_BYTES * duty
    return {
        "scenario_id": "s1-histogram",
        "seed": seed,
        "n_epochs": 2000,
        "mode": "both",
        "link": {
            "capacity_bps": _S1_CAPACITY_BPS,
            "queue_capacity_bytes": _S1_QUEUE_BYTES,
            "propagation_delay_s": 0.001,
            "epoch_s": _S1_EPOCH_S,
        },
        "traffic": [
            {
                "zone_class": "A",
                "app_kind": "Web",
                "rate_per_s": rate,
                "size": {"family": "lognormal", "mean_bytes": _S1_MEAN_FLOW_BYTES,
                         "sigma": 0.8},
                "burst_s": _S1_BURST_S,
                "idle_s": _S1_IDLE_S,
                "burst_dist": "fixed",
            },
            {
                "zone_class": "B",
                "app_kind": "File",
                "rate_per_s": rate,
                "size": {"family": "lognormal", "mean_bytes": _S1_MEAN_FLOW_BYTES,
                         "sigma": 0.8},
                "burst_s": _S1_BURST_S,
                "idle_s": _S1_IDLE_S,
                "burst_dist": "fixed",
            },
        ],
        "controller": {
            "model": "structural",
            "horizon": 3,
            "grid": 41,
            "control_message_bytes": 0,
            "weights": {
                "Q": [[3.0, 0.0, 0.0, 0.0],
                      [0.0, 3.0, 0.0, 0.0],
                      [0.0, 0.0, 50.0, 50.0],
                      [0.0, 0.0, 50.0, 50.0]],
                "R_diag": [0.01, 0.01],
                "x_ref": [0.0, 0.0, 0.475, 0.475],
            },
        },
    }


def _s2_congested_dict(seed: int) -> dict:
    return {
        "scenario_id": "s2-hybrid-db-congested",
        "seed": seed,
        "n_epochs": 240,
        "mode": "open",
        "link": {
            "capacity_bps": 1.0e7,
            "queue_capacity_bytes": 48_000_000,
            "propagation_delay_s": 0.001,
            "epoch_s": 1.0,
        },
        "traffic": [
            {
                "zone_class": "A",
                "app_kind": "Web",
                "rate_per_s": 13.0,
                "size": {"family": "lognormal", "mean_bytes": 51200.0, "sigma": 0.8},
                "burst_s": 6.0,
                "idle_s": 4.0,
            },
            {
                "zone_class": "B",
                "app_kind": "File",
                "rate_per_s": 13.0,
                "size": {"family": "lognormal", "mean_bytes": 51200.0, "sigma": 0.8},
                "burst_s": 6.0,
                "idle_s": 4.0,
            },
        ],
        "hybrid_db": {
            "scale": 1e-3,
            "metadata_bytes_per_article": 2048,
            "corpus_seed": 7,
            "n_queries": 100,
            "query_seed": 11,
            "query_start_s": 20.0,
            "backends": {
                "metadata_lookup_s": 1e-3,
                "metadata_per_row_s": 1e-4,
                "blob_first_byte_s": 5e-3,
                "blob_bytes_per_s": 2.0e8,
                "local_bytes_per_s": 1.0e8,
            },
        },
    }


def _s2_idle_dict(seed: int) -> dict:
    # Fast idle link, fast blob store, slow local store: the hybrid split wins.
    return {
        "scenario_id": "s2-hybrid-db-idle",
        "seed": seed,
        "n_epochs": 10,
        "mode": "open",
        "link": {
            "capacity_bps": 1.0e9,
            "queue_capacity_bytes": 8_000_000,
            "propagation_delay_s": 0.001,
            "epoch_s": 1.0,
        },
        "traffic": [
            {
                "zone_class": "A",
                "app_kind": "Web",
                "rate_per_s": 0.2,
                "size": {"family": "fixed", "size_bytes": 1500.0},
            }
        ],
        "hybrid_db": {
            "scale": 1e-3,
            "metadata_bytes_per_article": 2048,
            "corpus_seed": 7,
            "n_queries": 100,
            "query_seed": 11,
            "query_start_s": 0.0,
            "backends": {
                "metadata_lookup_s": 1e-3,
                "metadata_per_row_s": 1e-4,
                "blob_first_byte_s": 2e-3,
                "blob_bytes_per_s": 2.0e8,
                "local_bytes_per_s": 2.0e7,
            },
        },
    }


def s1_config(seed: int = S1_SEED) -> ScenarioConfig:
    return parse_config(_s1_dict(seed), source="s1-histogram")


def s2_congested_config(seed: int = S2_SEED) -> ScenarioConfig:
    return parse_config(_s2_congested_dict(seed), source="s2-hybrid-db-congested")


def s2_idle_config(seed: int = S2_SEED) -> ScenarioConfig:
    return parse_config(_s2_idle_dict(seed), source="s2-hybrid-db-idle")


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    passed: bool

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.value:.6g} (threshold {self.threshold:.6g})"


@dataclass
class ScenarioOutcome:
    """A canned scenario's checks and its runs, each keyed by the
    subdirectory of the output directory it is written to ("" for the
    directory itself)."""

    name: str
    checks: list
    runs: dict[str, RunResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _relative_reduction(open_value: float, closed_value: float) -> float:
    if open_value <= 0:
        return math.nan
    return (open_value - closed_value) / open_value


def evaluate_s1(result: RunResult) -> ScenarioOutcome:
    rep = result.report
    drop_red = _relative_reduction(rep.open.drop_fraction, rep.closed.drop_fraction)
    var_red = _relative_reduction(rep.open.util_variance, rep.closed.util_variance)
    tail_red = _relative_reduction(rep.open.tail_mass, rep.closed.tail_mass)
    checks = [
        Check("drop fraction relative reduction", drop_red, S1_DROP_REDUCTION,
              drop_red >= S1_DROP_REDUCTION),
        Check("utilization variance relative reduction", var_red, S1_VARIANCE_REDUCTION,
              var_red >= S1_VARIANCE_REDUCTION),
        Check("tail mass (>0.95) relative reduction", tail_red, S1_TAIL_REDUCTION,
              tail_red >= S1_TAIL_REDUCTION),
    ]
    return ScenarioOutcome(name="s1-histogram", checks=checks, runs={"": result})


def run_s1(seed: int = S1_SEED) -> ScenarioOutcome:
    return evaluate_s1(run_scenario(s1_config(seed)))


def evaluate_s2(congested: RunResult, idle: RunResult) -> ScenarioOutcome:
    cs = congested.experiment.summary
    isum = idle.experiment.summary
    mismatches = sum(local.article_ids != hybrid.article_ids
                     for run in (congested, idle) for local, hybrid in run.experiment.rows)
    checks = [
        Check("result-set mismatches across protocols", mismatches, 0.0, mismatches == 0),
        Check(
            "congested link: hybrid mean - local mean latency (s)",
            cs[Protocol.HYBRID_5STEP.value]["mean"] - cs[Protocol.LOCAL_4STEP.value]["mean"],
            0.0,
            cs[Protocol.HYBRID_5STEP.value]["mean"] > cs[Protocol.LOCAL_4STEP.value]["mean"],
        ),
        Check(
            "idle link + slow local store: local p50 - hybrid p50 latency (s)",
            isum[Protocol.LOCAL_4STEP.value]["p50"] - isum[Protocol.HYBRID_5STEP.value]["p50"],
            0.0,
            isum[Protocol.HYBRID_5STEP.value]["p50"] < isum[Protocol.LOCAL_4STEP.value]["p50"],
        ),
    ]
    return ScenarioOutcome(name="s2-hybrid-db", checks=checks,
                           runs={"congested": congested, "idle": idle})


def run_s2(seed: int = S2_SEED) -> ScenarioOutcome:
    congested = run_scenario(s2_congested_config(seed))
    idle = run_scenario(s2_idle_config(seed))
    return evaluate_s2(congested, idle)


SCENARIOS = {
    "s1-histogram": run_s1,
    "s2-hybrid-db": run_s2,
}
