"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; hcqsim is imported
from its ``src`` directory. The run makes the workload's inputs from the
seed several times (``setup_s`` is the median set-up), then runs as many
whole rounds of the workload on the last inputs made as fit in the rest of
``--seconds`` (at least one). Every set-up and every timed unit of a round
is charged at the reference host speed (see ``hostspeed.py``). The first round's outputs are checked against
facts computed apart from the program; every later round must write a
byte-identical run directory and repeat the same counts.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` every round is run twice, untraced and then traced; the
traced run directory must match the untraced one byte for byte, and the last
line holds the per-layer metrics, including the tracing overhead. Scratch
files go under ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

# Set-up runs at least SETUP_REPS times and for at least SETUP_MIN_S seconds;
# setup_s is the median. The floor gives nine-class's 30 ms set-up some
# seventy samples, so that one slow stretch of the host does not set it.
SETUP_REPS = 5
SETUP_MIN_S = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(str(f.relative_to(path)).encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


def run_one(work, inputs, out: Path, tracer, speed):
    """One round into a fresh run directory."""
    shutil.rmtree(out, ignore_errors=True)
    rr = work.run_round(inputs, str(out), tracer, speed)
    rr.digest, rr.counts["runner.output_bytes"] = digest_dir(out)
    return rr


def reference_s(units) -> float:
    """Seconds of (flows, host seconds, host speed) units at reference speed."""
    return sum(seconds * speed for _, seconds, speed in units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hcqsim" / "__init__.py").is_file():
        print(f"perfbench: no hcqsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import hostspeed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    work_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    out = work_dir / "run"

    speed = hostspeed.HostSpeed().after
    setup_host_s, setup_s, setup_layers = [], [], []

    def set_up():
        mark = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        made = work.setup(args.seed, tracer)
        setup_host_s.append(time.perf_counter() - t0)
        setup_s.append(setup_host_s[-1] * speed(setup_host_s[-1]))
        if tracer:
            setup_layers.append(tracer.totals(mark, tracing.SETUP_SPANS))
        return made

    deadline = time.perf_counter() + args.seconds
    while len(setup_s) < SETUP_REPS or sum(setup_host_s) < SETUP_MIN_S:
        inputs = None
        inputs = set_up()
    failures = []
    first = None
    plain, traced = [], []
    attempted = failed = 0
    while True:
        step0 = time.perf_counter()
        rr = run_one(work, inputs, out, None, speed)
        if first is None:
            t0 = time.perf_counter()
            failures += checks.check_round(args.workload, rr, str(work_dir))
            step0 += time.perf_counter() - t0
            deadline += time.perf_counter() - t0
            first = rr
        elif (rr.digest, rr.counts) != (first.digest, first.counts):
            failures.append("a later round wrote other outputs or counts than the first")
        plain.append(rr.units)
        attempted += rr.attempted
        failed += rr.failed
        if tracer:
            mark = tracer.mark()
            trr = run_one(work, inputs, out, tracer, speed)
            if trr.digest != first.digest:
                failures.append("the traced round's run directory differs from the untraced one")
            if trr.counts != first.counts:
                failures.append(f"traced round counts {trr.counts} differ from {first.counts}")
            traced.append((tracing.round_layers(tracer, mark, trr.counts),
                           reference_s(trr.units)))
            attempted += trr.attempted
            failed += trr.failed
        rr = trr = None
        first.sims = first.experiments = first.report = None
        # Stop when another step like this one would end past the deadline.
        now = time.perf_counter()
        if now + (now - step0) > deadline:
            break

    units = [u for round_units in plain for u in round_units]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(plain),
        "setup_reps": len(setup_s),
        "setup_host_s": setup_host_s,
        "setup_samples_s": setup_s,
        "units_flows_host_s_speed": units,
        "digest": first.digest,
        "counts": first.counts,
        "failures": failures,
    }
    if tracer:
        metrics = {k: statistics.median(t[0][k] for t in traced) for k in traced[0][0]}
        for name in tracing.SETUP_SPANS:
            metrics[name + "_s"] = statistics.median(s[name] for s in setup_layers)
        metrics["traffic.flows"] = work.generated_flows(inputs)
        for k in ("netsim.flows_offered", "netsim.flows_completed", "netsim.epochs",
                  "control.decisions", "control.candidates", "hybriddb.queries",
                  "hybriddb.fetches", "runner.output_bytes"):
            metrics[k] = first.counts[k]
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(t[1] for t in traced)
            / statistics.median(reference_s(p) for p in plain) - 1.0)
        tracer.write(SCRATCH / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "flows_per_s": sum(flows for flows, _, _ in units) / reference_s(units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record["metrics"] = metrics
    with open(SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
