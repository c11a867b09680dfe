"""Command-line front end.

Subcommands:

* ``run --config <path> --out <dir> [--jobs N]`` — run the configured
  variants and emit metrics.csv / requests.csv / summary.csv.
* ``sweep --config <path> --param <section.key> --values <comma list>
  --out <dir> [--jobs N]`` — rerun the experiment per value, emit sweep.csv.
* ``verify-cert --trials N [--max-shards K] [--max-classes C] [--seed S]``
  — fuzz the consistency checks against the brute-force oracle; exits 1
  on any soundness or dominance violation, 2 on a bad argument.
* ``theory --n-u N --t T --r R [--p-uc P] [--grid [--out <csv>]]`` —
  print the closed-form waiting times; with ``--grid``, also simulate over
  a grid of retrain durations and report relative errors as CSV, on stdout
  or into ``--out``, which needs ``--grid``.
* ``gen-workload --spec <path> --out <csv>`` — generate the workload
  described by a config file's [workload]/[oracle] sections and export it
  as CSV (schema: ``request_id,kind,arrival,shard_or_sample,is_noise``)
  for external tools; no command reads the file back.

Every CSV is written by ``experiment.write_csv``: each cell is its ``str``.

The ``ERASER_SEED`` environment variable overrides every config seed. A
config error, an unreadable config or spec file, an unwritable output path
(found before any simulation or generation), ``--jobs`` below 1, a bad
argument to ``sweep``, ``verify-cert`` or ``theory``, or a trace that lacks
a label a run needs, is reported on one line, ``eraser: <message>``, with
exit 2; the last removes the ``--out`` directory again if the call made it
and it is still empty.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .config import (
    ConfigError,
    build_experiment_config,
    load_config,
    parse_config_text,
    read_config_values,
)
from .experiment import compare_theory, run_experiment, run_sweep, verify_cert, write_csv
from .oracle import TraceError
from .theory import TheoryParams, dimp_upper_bound, expected_wait_dimp_series, expected_wait_sisa
from .workload import UNLEARNING


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eraser",
        description="inference-serving-aware unlearning scheduler simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="sweep one config key over several values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted key, e.g. oracle.num_shards")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_cert = sub.add_parser("verify-cert", help="fuzz certification against brute force")
    p_cert.add_argument("--trials", type=int, required=True)
    p_cert.add_argument("--max-shards", type=int, default=8)
    p_cert.add_argument("--max-classes", type=int, default=4)
    p_cert.add_argument("--seed", type=int, default=0)

    p_theory = sub.add_parser("theory", help="closed-form waiting times")
    p_theory.add_argument("--n-u", type=int, required=True)
    p_theory.add_argument("--t", type=float, required=True)
    p_theory.add_argument("--r", type=float, required=True)
    p_theory.add_argument("--p-uc", type=float, default=0.0)
    p_theory.add_argument("--grid", action="store_true",
                          help="also simulate over a grid of retrain durations")
    p_theory.add_argument("--out", default=None, help="write the grid report CSV here")

    p_gen = sub.add_parser("gen-workload", help="generate a workload CSV")
    p_gen.add_argument("--spec", required=True, help="config file with a [workload] section")
    p_gen.add_argument("--out", required=True)

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    return run_experiment(cfg, args.out, jobs=args.jobs)


def _cmd_sweep(args) -> int:
    values = read_config_values(args.config)
    sweep_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not sweep_values:
        print("eraser: --values is empty", file=sys.stderr)
        return 2
    return run_sweep(values, args.param, sweep_values, args.out, jobs=args.jobs)


def _cmd_verify_cert(args) -> int:
    try:
        report = verify_cert(args.trials, args.max_shards, args.max_classes, args.seed)
    except ValueError as exc:  # bad arguments, the enumeration's tally bound among them
        print(f"eraser: {exc}", file=sys.stderr)
        return 2
    print(f"trials                         {report.trials}")
    print(f"soundness violations           {report.soundness_violations}")
    print(f"dominance violations           {report.dominance_violations}")
    print(f"shared-margin counterexamples  {report.shared_margin_counterexamples}")
    print(f"fine certified                 {report.fine_certified}")
    print(f"coarse certified               {report.coarse_certified}")
    print(f"brute-force consistent         {report.brute_consistent}")
    print(f"fine incompleteness gap        {report.fine_incompleteness_gap}")
    print(f"elapsed seconds                {report.elapsed_seconds:.1f}")
    return 0 if report.ok else 1


def _cmd_theory(args) -> int:
    if args.out is not None and not args.grid:
        print("eraser: theory --out needs --grid", file=sys.stderr)
        return 2
    try:
        params = TheoryParams(args.n_u, args.t, args.r, args.p_uc)
    except ValueError as exc:
        print(f"eraser: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as report:  # before the grid simulates
            return _print_theory(args, params, report)
    return _print_theory(args, params, sys.stdout)


def _print_theory(args, params, report) -> int:
    print(f"expected_wait_sisa     {expected_wait_sisa(params)!r}")
    print(f"dimp_upper_bound       {dimp_upper_bound(params)!r}")
    print(f"dimp_series            {expected_wait_dimp_series(params)!r}")
    if not args.grid:
        return 0
    base = build_experiment_config(parse_config_text(
        f"[workload]\nn_unlearning = {args.n_u}\nhorizon = {args.t}\n"
        f"[sim]\nretrain_duration = {args.r}\n"
    ))
    period = args.t / args.n_u
    r_values = [0.5 * period, period, 2 * period, 4 * period]
    rows = compare_theory(base, r_values, n_inference=20_000)
    write_csv(report, rows[0].keys(), [row.values() for row in rows])
    return 0


def _cmd_gen_workload(args) -> int:
    cfg = load_config(args.spec)
    with open(args.out, "w", encoding="utf-8") as out:  # before the workload is generated
        stream = cfg.build_workload(cfg.base_seed)
        write_csv(out, ("request_id", "kind", "arrival", "shard_or_sample", "is_noise"), [
            (r.request_id, r.kind, r.arrival,
             r.target_shard if r.kind == UNLEARNING else r.sample, int(r.is_noise))
            for r in stream
        ])
    print(f"wrote {len(stream)} requests to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify-cert": _cmd_verify_cert,
    "theory": _cmd_theory,
    "gen-workload": _cmd_gen_workload,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "sweep") and args.jobs < 1:
        print(f"eraser: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    made_out = args.command in ("run", "sweep") and not os.path.exists(args.out)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"eraser: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:  # a label the run needs is missing from the trace
        if made_out:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)  # refused unless still empty
        print(f"eraser: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # configs are read as ConfigError, so a file named here is an output;
        # run and sweep make their output directory before they simulate
        if exc.filename is None:
            raise
        print(f"eraser: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
