"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/suite.py [--seed 1]

For each workload, one untraced run prints the end-to-end metrics with their
units and the operations attempted and failed; one traced run with the same
seed prints every per-layer metric. Both last BENCHMARK.json's run_seconds.
The two runs are separate processes, and their run directories and exact
counts must match. Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int):
    """One run of run.py in its own process: (its JSON result, its record)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((SCRATCH / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    ok = True
    for w in (w["name"] for w in SPEC["workloads"]):
        plain, plain_rec = run(w, args.seed, 0)
        traced, traced_rec = run(w, args.seed, 1)
        same_dir = plain_rec["digest"] == traced_rec["digest"]
        same_counts = plain_rec["counts"] == traced_rec["counts"]
        ok &= plain["correct"] and traced["correct"] and same_dir and same_counts
        print(f"== {w} (seed {args.seed}, {SPEC['run_seconds']} s)")
        print(f"  untraced: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']} rounds={plain_rec['rounds']}")
        for name, m in plain["metrics"].items():
            print(f"    {name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  traced: correct={traced['correct']} attempted={traced['attempted']} "
              f"failed={traced['failed']} rounds={traced_rec['rounds']}")
        for name, m in traced["metrics"].items():
            print(f"    {name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  run directory identical across the two processes: {same_dir}")
        print(f"  exact counts repeat across the two processes: {same_counts}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
