#!/usr/bin/env python3
"""Closed-form waiting times against the simulator.

With unlearning requests on a fixed grid (one every T/n_u) and uniform
inference arrivals, the expected halt-and-wait latency has a closed form
in both regimes (retraining shorter or longer than the arrival gap). The
immediate-unlearning policy is bounded by p_uc times that, where p_uc is
the per-judgement uncertification probability measured from the run.

The p_uc scaling treats every judgement alike. When retraining windows
cover the whole timeline (r > T/n_u) that is a fair model and the bound
holds with room to spare. When retraining is sparse (r <= T/n_u), failed
judgements concentrate in the short covered phase where waits are
largest, so the naive scaling of the measured average understates the
wait; the bound should only be trusted in the overlapping regime.
"""

from eraser import OracleConfig, SimParams, VariantConfig, WorkloadSpec, generate, run
from eraser.workload import GRID
from eraser.theory import (
    TheoryParams,
    dimp_upper_bound,
    expected_wait_dimp_series,
    expected_wait_sisa,
)

n_u, horizon, K, C = 10, 100.0, 10, 10
n_inference = 50_000
seed = 3

print(f"{'r':>5} {'SISA formula':>13} {'SISA sim':>10} {'err':>7} "
      f"{'p_uc':>8} {'DIMP bound':>11} {'DIMP series':>12} {'DIMP sim':>10}")
for r in (2.5, 5.0, 10.0, 20.0, 25.0):
    oracle = OracleConfig(C, K, accuracy=0.7, seed=seed)
    workload = generate(WorkloadSpec(n_u, n_inference, horizon, seed, distribution_u=GRID), K)
    params = SimParams(r, horizon)

    sisa = run(workload, VariantConfig("SISA", parallel_capacity=K), oracle,
               params, collect_log=False)
    dimp = run(workload, VariantConfig("DIMP", parallel_capacity=K), oracle,
               params, collect_log=False)

    theory = TheoryParams(n_u, horizon, r)
    formula = expected_wait_sisa(theory)
    p_uc = dimp.p_uc
    with_p = TheoryParams(n_u, horizon, r, p_uc)
    print(f"{r:5.1f} {formula:13.4f} {sisa.awt:10.4f} "
          f"{abs(sisa.awt - formula) / formula:7.2%} {p_uc:8.4f} "
          f"{dimp_upper_bound(with_p):11.4f} {expected_wait_dimp_series(with_p):12.4f} "
          f"{dimp.awt:10.4f}")

print("\nThe simulated SISA wait tracks the formula within a fraction of a")
print("percent. The immediate-unlearning wait sits under its p_uc-scaled")
print("bound once retraining windows overlap (r > T/n_u, the last rows);")
print("in the sparse regime the measured-average scaling is optimistic.")
