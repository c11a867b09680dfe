"""Self-test of the benchmark's own code.

    python3 bench/selftest.py

Checks the reference oracle against ``eraser.oracle.predict`` on random
(sample, shard, version) triples (noise samples and accuracy 0 and 1
included), reference plurality voting against ``eraser.ensemble``, both
reference enumerations against ``brute_force_consistent``, the
re-drawing of ``verify_cert``'s instances, and the normalisation
arithmetic. Exits 1 on the first failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eraser  # noqa: E402
from eraser.certify import brute_force_consistent  # noqa: E402
from eraser.ensemble import predict_label  # noqa: E402
from eraser.experiment import verify_cert  # noqa: E402
from eraser.oracle import OracleConfig, predict, sample_for  # noqa: E402

import harness  # noqa: E402
import reference  # noqa: E402
import spread  # noqa: E402


def expect(ok, what) -> None:
    if not ok:
        raise AssertionError(what)


def check_oracle(rng) -> None:
    for accuracy in (0.0, 1.0, 0.6, 0.9, float(rng.uniform())):
        for _ in range(20):
            seed = int(rng.integers(0, 2**63))
            c = int(rng.integers(2, 13))
            k = int(rng.integers(1, 70))
            cfg = OracleConfig(c, k, accuracy, seed)
            n = 15
            samples = rng.integers(0, 2**40, n)
            noise = rng.uniform(size=n) < 0.5
            versions = rng.integers(0, 1000, (n, k))
            ours = reference.shard_labels(seed, c, accuracy, samples, noise, versions)
            for i in range(n):
                sample = sample_for(cfg, int(samples[i]), bool(noise[i]))
                for shard in range(k):
                    want = predict(cfg, sample, shard, int(versions[i, shard]))
                    expect(ours[i, shard] == want, (accuracy, seed, c, k, i, shard))
            # accuracy 1 answers every clean sample correctly, accuracy 0 never
            clean = ~noise
            truth = np.array([sample_for(cfg, int(s)).true_label for s in samples])
            hits = ours[clean] == truth[clean][:, None]
            if accuracy == 1.0:
                expect(hits.all(), "accuracy 1")
            if accuracy == 0.0:
                expect(not hits.any(), "accuracy 0")


def check_plurality(rng) -> None:
    for _ in range(300):
        c = int(rng.integers(2, 8))
        labels = rng.integers(0, c, (5, int(rng.integers(1, 12))))
        ours = reference.plurality(labels, c)
        for row, winner in zip(labels, ours):
            expect(winner == predict_label(row, c), (row, winner))


def check_enumeration(rng) -> None:
    for _ in range(300):
        k = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        preds = rng.integers(0, c, k)
        impacted = np.sort(rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False))
        want = brute_force_consistent(preds, impacted, c)
        args = (preds.tolist(), impacted.tolist(), c)
        expect(reference.consistent_by_multiset(*args) == want, ("multiset", args))
        expect(reference.consistent_by_assignment(*args) == want, ("assignment", args))


def check_fuzz_instances() -> None:
    report = verify_cert(300, 8, 4, seed=5)
    consistent = sum(
        reference.consistent_by_multiset(p.tolist(), i.tolist(), c)
        for p, i, c in harness.fuzz_instances(300, 8, 4, 5)
    )
    expect(consistent == report.brute_consistent, "verify_cert instances")


def check_normalise() -> None:
    r0 = harness.R0
    expect(harness.normalise(2.0, [r0, r0]) == 2.0, "unit loop")
    expect(abs(harness.normalise(1.0, [2 * r0] * 3) - 0.5) < 1e-15, "slow loop")
    # the divisor is the mean of the loop timings, a tenth trimmed at each end
    times = [100 * r0] + [r0] * 4 + [2 * r0] * 4 + [0.0]
    expect(abs(harness.normalise(3.0, times) - 2.0) < 1e-12, "trimmed mean")
    # quartiles 1.5 and 4.5 around a median of 3
    expect(abs(spread.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0) < 1e-15, "spread")


def main() -> int:
    rng = np.random.default_rng(2311)
    checks = (check_oracle, check_plurality, check_enumeration)
    try:
        for check in checks:
            check(rng)
        check_fuzz_instances()
        check_normalise()
    except AssertionError as exc:
        print(f"selftest FAILED: {exc!r}")
        return 1
    print(f"selftest passed (eraser {eraser.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
