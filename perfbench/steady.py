"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py [--runs 10]

Runs every workload ``--runs`` times per set with tracing off, for
BENCHMARK.json's run_seconds, one process at a time, each run with its own
seed: 2 x runs distinct seeds drawn from [1, 2**31) by a fixed generator, so
that the proof sees seeds of every size; set 1 takes the first half, set 2
the second. The two sets alternate run by run, and which set goes first
alternates too, so that both see the host over the same stretch of time. For every end-to-end metric on every
workload it prints each set's median and quartiles, the spread (quartile
distance over the median) and the gap between the two sets' medians, signed
so that positive means the second set is worse.

A spread or a gap worse than the metric's bound in BENCHMARK.json fails, and
so does a failed share that differs between the sets. Results go to
.perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction

from suite import ROOT, SPEC, run


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    results = {w: ([], []) for w in names}
    seeds = random.Random("perfbench/steady").sample(range(1, 2**31), 2 * args.runs)
    for i in range(args.runs):
        for w in names:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = seeds[s * args.runs + i]
                t0 = time.monotonic()
                out, _ = run(w, seed, 0)
                out["wall_s"] = time.monotonic() - t0
                results[w][s].append(out)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} {w} seed {seed} ({out['wall_s']:.0f} s): "
                      f"correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} {vals}", flush=True)

    ok = True
    report = {}
    print()
    for w in names:
        sets = results[w]
        shares = [Fraction(sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows))
                  for rows in sets]
        correct = all(r["correct"] for rows in sets for r in rows)
        print(f"{w}: correct={correct} failed share per set {[str(f) for f in shares]}")
        ok &= correct and shares[0] == shares[1]
        report[w] = {"failed_share": [str(f) for f in shares], "correct": correct}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in rows]) for rows in sets]
            gap = sums[1]["median"] / sums[0]["median"] - 1.0
            worse = gap if m["better"] == "lower" else -gap
            verdict = worse <= bound and all(x["spread"] <= bound for x in sums)
            ok &= verdict
            report[w][name] = {"unit": m["unit"], "bound": bound, "sets": sums,
                               "worse_gap": worse}
            line = " | ".join(f"set {i + 1} median {x['median']:.6g} q1 {x['q1']:.6g} "
                              f"q3 {x['q3']:.6g} spread {x['spread']:.2%}"
                              for i, x in enumerate(sums))
            print(f"  {name} [{m['unit']}] bound {bound:.0%}: {line} "
                  f"| gap (worse) {worse:+.2%} {'OK' if verdict else 'OUT OF BOUND'}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(
        json.dumps({"seconds": SPEC["run_seconds"], "runs": args.runs, "results": results,
                    "summary": report}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
