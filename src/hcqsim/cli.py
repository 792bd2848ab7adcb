"""Command line entry points.

hcqsim run      --config FILE [--seed N] [--out DIR] [--mode open|closed|both] [--scale F]
hcqsim identify --trace FILE --n N --m M [--out FILE]
hcqsim scenario NAME [--seed N] [--out DIR]

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error,
3 I/O error. A failing scenario check also exits 2.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .control import check_stability, identify_model, save_model_csv
from .metrics import fmt
from .runner import run_scenario, write_outputs
from .scenarios import SCENARIOS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcqsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("--config", required=True, help="scenario config (JSON)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--mode", choices=["open", "closed", "both"], default=None)
    run_p.add_argument("--scale", type=float, default=None,
                       help="override hybrid_db.scale: the corpus holds about scale x "
                            "26667.25 MB of article bodies, 1 to 100,000 articles")

    id_p = sub.add_parser("identify", help="fit a model to a (x, u) trace CSV")
    id_p.add_argument("--trace", required=True,
                      help="CSV with columns x0..x{n-1},u0..u{m-1}")
    id_p.add_argument("--n", type=int, required=True, help="state dimension")
    id_p.add_argument("--m", type=int, required=True, help="control dimension")
    id_p.add_argument("--out", default=None, help="write the model CSV here")

    sc_p = sub.add_parser("scenario", help="run a canned scenario and print PASS/FAIL")
    sc_p.add_argument("name", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    sc_p.add_argument("--seed", type=int, default=None)
    sc_p.add_argument("--out", default=None, help="also write run outputs here")

    return parser


def read_xu_trace_csv(path, n: int, m: int):
    """Read (x_t, u_t) pairs from a CSV with x0..x{n-1},u0..u{m-1} columns."""
    expected = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
    pairs = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"trace {path} is empty: expected a header {','.join(expected)}")
        if header != expected:
            raise ValueError(f"trace header {header!r} does not match n={n}, m={m}")
        for row in r:
            if len(row) != n + m:
                raise ValueError(f"trace {path} line {r.line_num}: expected {n + m} fields, "
                                 f"got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"trace {path} line {r.line_num}: {exc}") from None
            pairs.append((np.array(vals[:n]), np.array(vals[n:])))
    return pairs


def write_xu_trace_csv(pairs, path) -> None:
    n = len(pairs[0][0])
    m = len(pairs[0][1])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)])
        for x, u in pairs:
            w.writerow(["%.17g" % v for v in list(x) + list(u)])


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = cfg.with_overrides(seed=args.seed, mode=args.mode, output_dir=args.out,
                             scale=args.scale)
    out_dir = cfg.output_dir or f"runs/{cfg.scenario_id}-seed{cfg.seed}"
    result = run_scenario(cfg)
    paths = write_outputs(result, out_dir)
    for metrics in (result.open_metrics, result.closed_metrics):
        if metrics is None:
            continue
        print(
            f"{metrics.mode.value}: epochs={metrics.n_epochs} "
            f"drop_fraction={fmt(metrics.drop_fraction())} "
            f"delivered_bytes={metrics.delivered_bytes()}"
        )
    if result.report is not None:
        rep = result.report
        print(
            f"deltas (closed - open): drop={fmt(rep.drop_fraction_delta)} "
            f"variance={fmt(rep.util_variance_delta)} tail={fmt(rep.tail_mass_delta)}"
        )
    if result.experiment is not None:
        for proto, stats in result.experiment.summary.items():
            print(f"{proto}: mean={fmt(stats['mean'])}s p50={fmt(stats['p50'])}s "
                  f"p95={fmt(stats['p95'])}s")
    print(f"wrote {len(paths)} files under {out_dir}")
    return EXIT_OK


def _cmd_identify(args) -> int:
    pairs = read_xu_trace_csv(args.trace, args.n, args.m)
    model, residual = identify_model(pairs, args.n, args.m)
    stability = check_stability(model)  # reported, never enforced
    print(f"residual_rms={fmt(residual)}")
    print(f"spectral_radius={fmt(stability.spectral_radius)} stable={stability.stable}")
    if args.out:
        save_model_csv(model, args.out)
        print(f"model written to {args.out}")
    else:
        for name, M in (("A", model.A), ("B", model.B)):
            print(f"# {name}")
            for row in M:
                print(",".join(fmt(v) for v in row))
    return EXIT_OK


def _cmd_scenario(args) -> int:
    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; valid names: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return EXIT_CONFIG
    runner = SCENARIOS[args.name]
    outcome = runner(args.seed) if args.seed is not None else runner()
    for line in outcome.lines():
        print(line)
    if args.out is not None:
        for sub, res in outcome.runs.items():
            write_outputs(res, os.path.join(args.out, sub))
        print(f"outputs written under {args.out}")
    print(f"{args.name}: {'PASS' if outcome.passed else 'FAIL'}")
    return EXIT_OK if outcome.passed else EXIT_RUNTIME


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; usage problems are config-class
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "identify":
            return _cmd_identify(args)
        return _cmd_scenario(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
