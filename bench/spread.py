"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload desk --seeds 1-10 [--seconds 15]

Runs ``run.py`` untraced once per seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles and the spread:
the distance between the first and the third quartile as a share of the
median, the figure each bound in ``BENCHMARK.json`` is set against, and
the same for the unnormalised times. Also checks that every run was
correct and that failed operations were the same share of attempted ones
in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        raw = [line.split(":", 1)[1].split() for line in lines if "unnormalised:" in line]
        result["raw"] = dict(kv.split("=") for kv in raw[0]) if raw else {}
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"  {name}: median {median:.6g} {metric['unit']}, quartiles {q1:.6g}..{q3:.6g}, "
              f"spread {quartile_spread(values):.2%}")
    for name in results[0]["raw"]:
        values = [float(r["raw"][name]) for r in results]
        print(f"  unnormalised {name}: median {statistics.median(values):.6g}, "
              f"spread {quartile_spread(values):.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
