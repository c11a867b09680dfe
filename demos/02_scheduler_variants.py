#!/usr/bin/env python3
"""The eight serving policies on one desk-scale workload.

5000 requests (10% unlearning) over a horizon of n_u retraining times,
20 shards, 10 classes. The same stream feeds every variant; the table
shows the latency/computation/privacy trade-offs: immediate unlearning
answers fastest but retrains per request, threshold-triggered batching
cuts retraining at the cost of postponement (or answered-uncertified
responses for the *TTU pair).
"""

from eraser import (
    OracleConfig,
    SimParams,
    VARIANT_NAMES,
    VariantConfig,
    WorkloadSpec,
    generate,
    replay_privacy_check,
    run,
)

K, C, n_u, n_i, r = 20, 10, 500, 4500, 1.0
horizon = n_u * r
seed = 42

oracle = OracleConfig(C, K, accuracy=0.9, seed=seed)
workload = generate(WorkloadSpec(n_u, n_i, horizon, seed=seed), K)
params = SimParams(r, horizon)

order = ["SISA"] + [n for n in VARIANT_NAMES if n != "SISA"]
print(f"{'variant':8} {'AWT':>8} {'vs SISA':>9} {'NoR':>5} {'uncert.':>8} "
      f"{'postponed':>10} {'replay violations':>18}")
baseline = None
for name in order:
    m = run(workload, VariantConfig(name, parallel_capacity=K), oracle, params)
    if name == "SISA":
        baseline = m.awt
    speed = f"x{baseline / m.awt:.0f}" if m.awt > 0 else "inf"
    bad = replay_privacy_check(m.per_request_log, oracle)
    print(f"{name:8} {m.awt:8.4f} {speed:>9} {m.nor:5d} {m.uncertified_responses:8d} "
          f"{m.postponed_count:10d} {bad:18d}")

print("\nNote the paired rows: single/double-context twins retrain identically;")
print("the double-context member only answers sooner.")
