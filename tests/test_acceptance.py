"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` (each test prints a
[PASS]/[FAIL] line and its runtime).
"""

import hashlib
import itertools
import json
import os
import random
import sys
import time

import numpy as np
import pytest

from hcqsim.config import load_config, parse_config
from hcqsim.control import (
    COST_TIE_ABS,
    COST_TIE_REL,
    BoxBounds,
    CostWeights,
    ExcitationController,
    MpcController,
    StateSpaceModel,
    check_stability,
    identify_model,
)
from hcqsim.netsim import FeedbackMode, run_simulation
from hcqsim.runner import run_scenario, write_outputs
from hcqsim.scenarios import run_s1, run_s2
from hcqsim.traffic import (
    AppKind,
    ClassProfile,
    SizeDistribution,
    TrafficClassLabel,
    TrafficProfile,
    ZoneClass,
    generate_trace,
)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget=None):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s"
    if budget is not None:
        line += f" / budget {budget:.0f}s"
    print(line + ")")
    assert ok, f"{name}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def s1_outcome():
    t0 = time.perf_counter()
    outcome = run_s1()
    return outcome, time.perf_counter() - t0


@pytest.fixture(scope="module")
def s2_outcome():
    t0 = time.perf_counter()
    outcome = run_s2()
    return outcome, time.perf_counter() - t0


def test_criterion_1_s1_histogram(s1_outcome):
    outcome, elapsed = s1_outcome
    for line in outcome.lines():
        print(line)
    detail = "; ".join(f"{c.name}={c.value:.3f} (>= {c.threshold})" for c in outcome.checks)
    _report("S1 tail/peak suppression", outcome.passed, detail, elapsed, budget=60)


def test_criterion_2_s2_hybrid_db(s2_outcome):
    outcome, elapsed = s2_outcome
    for line in outcome.lines():
        print(line)
    detail = "; ".join(f"{c.name}={c.value:.4g}" for c in outcome.checks)
    _report("S2 local-vs-hybrid experiment", outcome.passed, detail, elapsed, budget=120)


def test_criterion_3_identification_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        if rho > 0:
            A *= 0.9 / rho
        B = rng.standard_normal((n, m))
        true = StateSpaceModel(A, B, state_bounds=BoxBounds((-1e9,) * n, (1e9,) * n))
        x = rng.standard_normal(n) * 0.1
        pairs = []
        for _ in range(10 * (n + m) + 5):
            u = rng.uniform(-1.0, 1.0, m)
            pairs.append((x.copy(), u.copy()))
            x = true.A @ x + true.B @ u
        model, _ = identify_model(pairs, n, m)
        worst = max(worst, float(np.abs(model.A - true.A).max()),
                    float(np.abs(model.B - true.B).max()))
    elapsed = time.perf_counter() - t0
    _report("identification oracle (20 stable plants)", worst < 1e-8,
            f"worst max-norm error {worst:.2e} < 1e-8", elapsed, budget=5)


def _brute_force_allocate(model, weights, x, horizon, grid):
    m = model.m
    denom = grid - 1
    A = model.A.tolist()
    B = model.B.tolist()
    Q = weights.Q.tolist()
    R = weights.R.tolist()
    x_ref = weights.x_ref.tolist()
    lo, hi = model.control_bounds.lo, model.control_bounds.hi
    candidates = []
    for levels in itertools.product(range(grid), repeat=m):
        if sum(levels) > denom:
            continue
        u = [lv / denom for lv in levels]
        if any(u[i] < lo[i] - 1e-12 or u[i] > hi[i] + 1e-12 for i in range(m)):
            continue
        xs = list(x)
        total = 0.0
        for _ in range(horizon):
            d = [xs[i] - x_ref[i] for i in range(len(xs))]
            for i in range(len(d)):
                for j in range(len(d)):
                    total += d[i] * Q[i][j] * d[j]
            for i in range(m):
                for j in range(m):
                    total += u[i] * R[i][j] * u[j]
            nxt = []
            for i in range(len(xs)):
                acc = 0.0
                for j in range(len(xs)):
                    acc += A[i][j] * xs[j]
                for j in range(m):
                    acc += B[i][j] * u[j]
                nxt.append(acc)
            xs = nxt
        candidates.append((levels, tuple(u), total))
    c_min = min(c[2] for c in candidates)
    tol = COST_TIE_ABS + COST_TIE_REL * abs(c_min)
    ties = [c for c in candidates if c[2] <= c_min + tol]
    return min(ties, key=lambda c: c[0])[1]


def test_criterion_4_controller_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(50):
        n = m = 2
        A = rng.standard_normal((n, n))
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        if rho > 0:
            A *= rng.uniform(0.3, 0.95) / rho
        B = rng.standard_normal((n, m))
        model = StateSpaceModel(A, B, state_bounds=BoxBounds((-1e9,) * n, (1e9,) * n))
        Mq = rng.standard_normal((n, n))
        Mr = rng.standard_normal((m, m))
        weights = CostWeights(Q=Mq.T @ Mq, R=Mr.T @ Mr + 0.1 * np.eye(m),
                              x_ref=rng.standard_normal(n))
        x = rng.standard_normal(n)
        horizon = int(rng.integers(1, 4))
        got = MpcController(model, weights, horizon, 11).decide(x, 0)
        want = _brute_force_allocate(model, weights, x, horizon, grid=11)
        if got.u != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report("controller brute-force equivalence (50 instances)", mismatches == 0,
            f"{50 - mismatches}/50 exact matches", elapsed, budget=30)


A_WEB = TrafficClassLabel(ZoneClass.A, AppKind.WEB)
B_FILE = TrafficClassLabel(ZoneClass.B, AppKind.FILE)
C_OTHER = TrafficClassLabel(ZoneClass.C)


def _random_sim_config(seed: int):
    rng = random.Random(f"accept-cons/{seed}")
    labels = [A_WEB, B_FILE, C_OTHER][: rng.randint(1, 3)]
    profiles = tuple(
        ClassProfile(
            lab,
            rate_per_s=rng.uniform(2.0, 30.0),
            size_dist=SizeDistribution(
                family="lognormal",
                mean_bytes=rng.uniform(5e3, 8e4),
                sigma=rng.uniform(0.3, 1.2),
            ),
            burst_s=rng.uniform(0.5, 4.0),
            idle_s=rng.uniform(0.0, 3.0),
        )
        for lab in labels
    )
    from hcqsim.netsim import LinkSpec

    link = LinkSpec(
        capacity_bps=rng.uniform(2e6, 2e7),
        queue_capacity_bytes=rng.randint(2 * 10**5, 4 * 10**6),
        propagation_delay_s=rng.uniform(0.0, 0.01),
        epoch_s=rng.choice([0.25, 0.5, 1.0]),
    )
    n_epochs = rng.randint(10, 30)
    mode = rng.choice(["open", "excite", "mpc"])
    return labels, profiles, link, n_epochs, mode


def _toy_model_weights(k: int):
    n = 2 * k
    A = 0.5 * np.eye(n)
    B = np.zeros((n, k))
    for i in range(k):
        B[i, i] = -0.3
        B[k + i, i] = 0.5
    return (
        StateSpaceModel(A, B),
        CostWeights(Q=np.eye(n), R=0.05 * np.eye(k),
                    x_ref=np.array([0.0] * k + [0.5] * k)),
    )


def test_criterion_5_conservation_suite():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(100):
        labels, profiles, link, n_epochs, mode = _random_sim_config(seed)
        trace = generate_trace(TrafficProfile(profiles), n_epochs * link.epoch_s, seed)
        if mode == "open":
            m = run_simulation(trace, link, FeedbackMode.OPEN, classes=labels,
                               n_epochs=n_epochs)
        elif mode == "excite":
            m = run_simulation(trace, link, FeedbackMode.CLOSED,
                               controller=ExcitationController(len(labels), seed),
                               classes=labels, n_epochs=n_epochs)
        else:
            model, weights = _toy_model_weights(len(labels))
            m = run_simulation(trace, link, FeedbackMode.CLOSED,
                               controller=MpcController(model, weights, 3, 11),
                               classes=labels, n_epochs=n_epochs)
        for label, c in m.totals.items():
            assert c.arrived == c.delivered + c.dropped + c.queued, \
                f"conservation violated for {label} in config {seed}"
        per_epoch_cap = link.bytes_per_epoch + m.max_flow_size
        assert all(sum(row) <= per_epoch_cap for row in m.delivered), \
            f"capacity respect violated in config {seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    _report("conservation + capacity respect (100 random configs)", checked == 100,
            f"{checked}/100 configs exact", elapsed, budget=120)


def _run_files(result, out_dir):
    write_outputs(result, out_dir)
    blobs = {}
    for root, _, names in os.walk(out_dir):
        for fn in sorted(names):
            p = os.path.join(root, fn)
            blobs[os.path.relpath(p, out_dir)] = open(p, "rb").read()
    return blobs


def test_criterion_6_determinism(tmp_path, s1_outcome, s2_outcome):
    t0 = time.perf_counter()
    mismatched = []

    first = _run_files(s1_outcome[0].runs[""], tmp_path / "s1a")
    second = _run_files(run_s1().runs[""], tmp_path / "s1b")
    if first != second:
        mismatched.append("s1-histogram")

    s2a = s2_outcome[0].runs
    s2b = run_s2().runs
    for kind in ("congested", "idle"):
        name, a, b = f"s2-{kind}", s2a[kind], s2b[kind]
        fa = _run_files(a, tmp_path / f"{name}-a")
        fb = _run_files(b, tmp_path / f"{name}-b")
        if fa != fb:
            mismatched.append(name)

    elapsed = time.perf_counter() - t0
    _report("determinism (same-seed reruns byte-identical)", not mismatched,
            f"mismatched: {mismatched or 'none'}", elapsed)


GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "golden_digests.json")
# Closed and open at k = 3 with the A:Service control class, an identified
# model and 512-byte control messages.
DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "examples_config", "demo.json")


def nine_class_dict(seed: int) -> dict:
    """The benchmark's nine-class workload at a setup seed, as a config dict:
    all nine classes closed at k = 9, grid 5, with an identified model and
    control messages."""
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    return workloads.nine_class_dict(seed)


def nine_class_config():
    """The nine-class workload at setup seed 0."""
    return parse_config(nine_class_dict(0), source="nine-class")


def run_digests(s1_outcome, s2_outcome, out_dir) -> dict:
    """SHA-256 of every file in the canned scenarios', the demo config's and
    the nine-class workload's run directories."""
    s2 = s2_outcome[0].runs
    runs = (("s1-histogram", s1_outcome[0].runs[""]), ("s2-congested", s2["congested"]),
            ("s2-idle", s2["idle"]), ("demo", run_scenario(load_config(DEMO_CONFIG))),
            ("nine-class", run_scenario(nine_class_config())))
    return {
        name: {rel: hashlib.sha256(blob).hexdigest()
               for rel, blob in sorted(_run_files(result, out_dir / name).items())}
        for name, result in runs
    }


def test_golden_digests(tmp_path, s1_outcome, s2_outcome):
    t0 = time.perf_counter()
    with open(GOLDEN_DIGESTS) as fh:
        want = json.load(fh)
    del want["event-core"]  # small-run pins, checked in test_netsim.py
    got = run_digests(s1_outcome, s2_outcome, tmp_path)
    differing = sorted(
        f"{name}/{rel}"
        for name in set(want) | set(got)
        for rel in set(want.get(name, {})) | set(got.get(name, {}))
        if want.get(name, {}).get(rel) != got.get(name, {}).get(rel)
    )
    elapsed = time.perf_counter() - t0
    _report("golden run-directory digests", not differing,
            f"differing files: {differing or 'none'}", elapsed)


def test_criterion_7_stability_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        model = StateSpaceModel(A, np.zeros((4, 1)),
                                state_bounds=BoxBounds((-1e9,) * 4, (1e9,) * 4))
        res = check_stability(model)
        want = float(np.abs(np.linalg.eigvals(A)).max())
        worst = max(worst, abs(res.spectral_radius - want))
    model = StateSpaceModel(0.5 * np.eye(3), np.zeros((3, 1)))
    res = check_stability(model)
    exact_err = abs(res.spectral_radius - 0.5)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and exact_err < 1e-10 and res.stable
    _report("stability vs eigenvalue oracle (50 matrices)", ok,
            f"worst |rho - oracle| {worst:.2e} < 1e-12; 0.5I error {exact_err:.1e} < 1e-10",
            elapsed)
