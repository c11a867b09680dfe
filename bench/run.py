"""Benchmark of the eraser simulator: one workload per invocation.

    python3 bench/run.py --workload desk|flood|certfuzz --seed N \
        --seconds S --trace 0|1

Makes the workload's inputs from ``--seed``, repeats whole rounds of it
for at least ``--seconds`` seconds (and at least three rounds), checks
the outputs, and prints each metric with its unit. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run
adds one traced round after the untraced ones and writes its spans to
``bench/out/``. Exits 1 when a check fails, 2 when eraser cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
SETUP_REPEATS = 9


def metric_units(trace: int) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` lists for this run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import eraser
    except ImportError as exc:
        print(f"cannot import eraser from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(eraser.__file__).resolve().parent.parent != SRC:
        print(f"eraser was imported from {eraser.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    if not args.trace:
        setup_runs = harness.measure_setup(args.workload, args.seed, SETUP_REPEATS)
    bench = harness.setup(args.workload, args.seed)

    rounds = []
    problems = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        outputs, segments = bench.round()
        rounds.append(segments)
        if len(rounds) == 1:
            ops, failed_ops, problems, table = bench.check(outputs)
            first_digest = bench.digest(outputs)
        elif bench.digest(outputs) != first_digest:
            problems.append(f"round {len(rounds)} differs from round 1")
        del outputs

    traced = 0
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            outputs, segments = bench.round()
        traced = 1
        if bench.digest(outputs) != first_digest:
            problems.append("the traced round differs from round 1")
        del outputs
        values = tracing.layer_metrics(bench, table, rounds, tracer, segments)
        tracer.write(ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        values = {
            "setup_s": statistics.median([t.norm for t in setup_runs]),
            **bench.end_to_end(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = metric_units(args.trace)
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} are measured "
                        "or listed in BENCHMARK.json, not both")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    total_rounds = len(rounds) + traced
    correct = not problems
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"workload {args.workload} seed {args.seed}: {total_rounds} rounds, "
          f"{ops} operations and {failed_ops} failed per round")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        raw = {"setup_s": statistics.median([t.raw for t in setup_runs]),
               **bench.end_to_end(rounds, "raw")}
        print("  unnormalised: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print("  work_s by round: " + " ".join(
            f"{bench.end_to_end([seg])['work_s']:.4g}" for seg in rounds))
    print(json.dumps({
        "correct": correct,
        "attempted": ops * total_rounds,
        "failed": failed_ops * total_rounds,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
