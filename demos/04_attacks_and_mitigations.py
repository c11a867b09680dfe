#!/usr/bin/env python3
"""Adversarial request patterns and their defenses.

Attack 1 floods the service with unclassifiable noise samples: their
near-tied votes fail certification and trigger unlearning updates far
more often. Discarding low-agreement answers keeps the noise out of the
trigger accounting.

Attack 2 coordinates unlearning requests round-robin across shards so no
batching is ever possible and every update retrains the maximum number
of models. Re-randomizing the request-to-shard mapping (the shard
shuffle defense) restores uniform behavior.
"""

import numpy as np

from eraser import (
    MitigationConfig,
    OracleConfig,
    SimParams,
    VariantConfig,
    WorkloadSpec,
    generate,
    run,
)

K, C, n_u, n_i, r = 20, 10, 500, 4500, 1.0
horizon = n_u * r
seeds = range(42, 47)


def dutp(seed, noise=0.0, assignment="uniform_random", mitigation=None, shuffle=False):
    oracle = OracleConfig(C, K, accuracy=0.9, seed=seed)
    workload = generate(
        WorkloadSpec(n_u, n_i, horizon, seed=seed, shard_assignment=assignment,
                     noise_fraction=noise),
        K,
    )
    variant = VariantConfig("DUTP", parallel_capacity=K, mitigation=mitigation,
                             shuffle_shards=shuffle)
    return run(workload, variant, oracle, SimParams(r, horizon), collect_log=False)


def mean(fn):
    return float(np.mean([fn(s) for s in seeds]))


print("-- hard-to-classify inference flood (50% noise samples) --")
rate = lambda m: m.uncertification_triggers / m.num_inferences
base = mean(lambda s: rate(dutp(s)))
flood = mean(lambda s: rate(dutp(s, noise=0.5)))
guard = MitigationConfig(confidence_threshold=0.5)
saved = mean(lambda s: rate(dutp(s, noise=0.5, mitigation=guard)))
print(f"update-trigger rate: clean {base:.4f} | attacked {flood:.4f} "
      f"(x{flood / base:.1f}) | with confidence discard {saved:.4f}")

print("\n-- scattered unlearning (round robin over shards) --")
nor_uniform = mean(lambda s: dutp(s).nor)
nor_scattered = mean(lambda s: dutp(s, assignment="scattered_round_robin").nor)
nor_shuffled = mean(lambda s: dutp(s, assignment="scattered_round_robin", shuffle=True).nor)
print(f"retrainings: uniform {nor_uniform:.0f} | scattered {nor_scattered:.0f} "
      f"(ceiling {n_u}) | scattered + shard shuffle {nor_shuffled:.0f}")
