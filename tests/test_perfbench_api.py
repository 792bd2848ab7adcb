"""The benchmark's calls into hcqsim still work.

perfbench/ builds its workloads from hcqsim's public functions; a change
that breaks one of those calls fails here rather than only in a benchmark
run. The benchmark code itself is imported as it stands.
"""

import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_workload_sets_up():
    for work in workloads.WORKLOADS.values():
        assert work.setup(0)


def s2_seed0_operation():
    """The s2 workload and its one operation on scenario seed 0."""
    work = workloads.WORKLOADS["s2-hybrid-db"]
    return work, [p for p in work.setup(0) if p[0] == 0]


def test_one_s2_operation_passes_its_checks(tmp_path):
    work, pairs = s2_seed0_operation()
    rr = work.run_round(pairs, str(tmp_path / "run"), None, lambda seconds: 1.0)
    assert (rr.attempted, rr.failed) == (1, 0)
    assert len(rr.experiments) == 2
    assert checks.check_round("s2-hybrid-db", rr, str(tmp_path)) == []


def test_one_nine_class_round_passes_its_checks(tmp_path):
    # The closed-loop checks: byte accounting, control bytes, and ten
    # decisions re-derived by a brute-force argmin over the share grid.
    work = workloads.WORKLOADS["nine-class"]
    rr = work.run_round(work.setup(0), str(tmp_path / "run"), None, lambda seconds: 1.0)
    assert rr.counts["control.decisions"] == 400
    assert rr.counts["control.candidates"] == 715
    assert checks.check_round("nine-class", rr, str(tmp_path)) == []


def test_the_decision_oracle_checks_the_shares_the_run_records(tmp_path):
    # The oracle reads each sampled decision's shares from state_history,
    # which derives them from the shares the run writes to its epoch CSV.
    # Put the costliest grid point in epoch 0's row (epoch 0 is always
    # sampled): the oracle must report that epoch.
    work = workloads.WORKLOADS["nine-class"]
    rr = work.run_round(work.setup(0), str(tmp_path / "run"), None, lambda seconds: 1.0)
    (rec,) = [r for r in rr.sims if r.control is not None]
    model, cc = rec.control
    denom = cc.grid - 1
    points = checks.grid_points(model.control_bounds, cc.grid)
    x = rec.metrics.state_history[0][0]
    costs = [checks._horizon_cost(model, cc.weights, x, np.array(p) / denom, cc.horizon)
             for p in points]
    worst = points[costs.index(max(costs))]
    rec.metrics.shares[0] = tuple(j / denom for j in worst)
    fails = checks.check_round("nine-class", rr, str(tmp_path))
    assert len(fails) == 1 and fails[0].startswith(f"{rec.name} epoch 0: chosen cost ")


def traced_and_untraced(work, sc, tmp_path):
    """The files of an untraced and of a traced round of the inputs sc,
    each keyed by its path in the run directory, and the traced round."""
    runs = []
    for name, tracer in (("untraced", None), ("traced", tracing.Tracer())):
        out = tmp_path / name
        rr = work.run_round(sc, str(out), tracer, lambda seconds: 1.0)
        runs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    return runs, rr


def test_nine_class_traced_run_writes_the_untraced_files(tmp_path):
    # Untraced, the round runs through hcqsim.runner and run_simulation;
    # traced, the benchmark builds its own LinkSimulator.
    work = workloads.WORKLOADS["nine-class"]
    runs, _ = traced_and_untraced(work, work.setup(0), tmp_path)
    assert sorted(runs[0]) == ["closed/epochs.csv", "closed/model.csv", "closed/residual.txt"]
    assert runs[0] == runs[1]


def test_s1_traced_round_writes_the_untraced_files_and_passes_its_checks(tmp_path):
    # s1 runs open, then closed under the config's fixed model, which the
    # traced round wraps in its own StateSpaceModel and MpcController.
    work = workloads.WORKLOADS["s1-histogram"]
    runs, traced = traced_and_untraced(work, work.setup(0), tmp_path)
    assert sorted(runs[0]) == ["closed/epochs.csv", "closed/model.csv", "closed/residual.txt",
                               "hist.svg", "histogram.csv", "open/epochs.csv", "report.csv"]
    assert runs[0] == runs[1]
    assert checks.check_round("s1-histogram", traced, str(tmp_path)) == []


def test_s2_traced_operation_writes_the_untraced_files_and_passes_its_checks(tmp_path):
    # The traced operation wraps each open run and each run_experiment in
    # a span; the seed-0 pair writes both configs' run directories.
    work, pairs = s2_seed0_operation()
    runs, traced = traced_and_untraced(work, pairs, tmp_path)
    assert sorted(runs[0]) == [f"seed0/{kind}/{name}" for kind in ("congested", "idle")
                               for name in ("corpus.csv", "experiment.csv", "open/epochs.csv")]
    assert runs[0] == runs[1]
    assert (traced.attempted, traced.failed) == (1, 0)
    assert checks.check_round("s2-hybrid-db", traced, str(tmp_path)) == []


def test_the_traced_open_run_takes_the_fifo_pass(core_calls):
    # The traced round times the simulator through workloads._simulate, which
    # must reach the FIFO pass as runner.run_open does.
    from hcqsim.netsim import FeedbackMode

    sc = workloads.WORKLOADS["s1-histogram"].setup(0)
    m = workloads._simulate(sc.cfg, sc.trace, sc.classes, tracing.Tracer(), FeedbackMode.OPEN)
    assert m.flows_offered > 40_000 and core_calls == []
