"""Digest of the simulator's behaviour on the benchmark's workloads.

    python3 bench/digest.py [--src PATH/TO/src] [--out FILE]

Runs every (workload, variant) of desk and flood once, and certfuzz
once, untimed and on seed 42, and prints one line per pair: AWT, NoR,
judgements and audit violations, then sha256 digests of the ``Metrics``
fields and of the whole ``per_request_log``. ``--src`` selects the eraser tree to run, so
the same script compares any two commits:

    python3 bench/digest.py --src ../parent/src --out parent.txt
    python3 bench/digest.py --out change.txt
    diff parent.txt change.txt

A change meant only to be faster should leave the file byte-identical.
A change that corrects behaviour (SISA's release rule, say) changes it on
purpose; the digest is for comparing, not a gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SEED = 42


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import harness

    lines = []
    for name in ("desk", "flood"):
        bench = harness.setup(name, SEED)
        outputs, _ = bench.round()
        for case, (metrics, violations) in zip(bench.cases, outputs):
            lines.append(
                f"{name} {case.variant} seed={case.seed} awt={metrics.awt!r} "
                f"nor={metrics.nor} judgements={metrics.judgements} "
                f"audit_violations={violations} "
                f"metrics={harness.metrics_digest(metrics)} "
                f"log={harness.log_digest(metrics.per_request_log)}"
            )
    fuzz = harness.setup("certfuzz", SEED)
    report, _ = fuzz.round()
    lines.append(
        f"certfuzz trials={report.trials} fine_certified={report.fine_certified} "
        f"brute_consistent={report.brute_consistent} "
        f"shared_margin_counterexamples={report.shared_margin_counterexamples} "
        f"report={fuzz.digest(report)}"
    )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
