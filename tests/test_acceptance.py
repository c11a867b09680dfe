"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Heavy artifacts (the fuzz corpus, the default desk-experiment runs, the
parameter sweeps) are computed once per session and shared across
criteria. Every tolerance is pinned here; nothing is calibrated at run
time.
"""

import numpy as np
import pytest

from eraser.experiment import run_experiment, verify_cert
from eraser.config import build_experiment_config, parse_config_text
from eraser.oracle import OracleConfig
from eraser.scheduler import MitigationConfig, VariantConfig
from eraser.simulator import SimParams, replay_privacy_check, run
from eraser.theory import TheoryParams, expected_wait_sisa
from eraser.workload import GRID, WorkloadSpec, generate

SEEDS = list(range(42, 47))
POSTPONE_VARIANTS = ("DIMP", "SUTP", "DUTP", "STTP", "DTTP")
CERTIFIED_VARIANTS = ("DIMP", "SUTP", "DUTP", "STTU", "DTTU", "STTP", "DTTP")
ALL_VARIANTS = ("SISA",) + CERTIFIED_VARIANTS


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


_cache = {}


def desk_run(name, *, K=20, acc=0.9, seed=42, theta=0.05, noise=0.0,
             assignment="uniform_random", mitigation=None, shuffle=False,
             collect_log=False):
    """Default desk configuration: C=10, 5000 requests, 10% unlearning,
    r=1, T = n_u * r, capacity = K."""
    key = (name, K, acc, seed, theta, noise, assignment, mitigation, shuffle, collect_log)
    if key in _cache:
        return _cache[key]
    n_u, n_i, r = 500, 4500, 1.0
    horizon = n_u * r
    oracle = OracleConfig(10, K, acc, seed=seed)
    workload = generate(
        WorkloadSpec(n_u, n_i, horizon, seed=seed, shard_assignment=assignment,
                     noise_fraction=noise),
        K,
    )
    variant = VariantConfig(name, threshold=theta, parallel_capacity=K,
                             mitigation=mitigation, shuffle_shards=shuffle)
    metrics = run(workload, variant, oracle, SimParams(r, horizon),
                  collect_log=collect_log)
    _cache[key] = metrics
    return metrics


@pytest.fixture(scope="module")
def fuzz_report():
    return verify_cert(trials=100_000, max_shards=8, max_classes=4, seed=20240601)


def test_criterion_1_certification_soundness(fuzz_report):
    r = fuzz_report
    ok = (
        r.trials == 100_000
        and r.soundness_violations == 0
        and r.shared_margin_counterexamples >= 1
        and r.elapsed_seconds < 120.0
    )
    report(
        "1 certification soundness", ok,
        f"(0 of {r.trials} fine certificates refuted; shared-margin reading "
        f"refuted {r.shared_margin_counterexamples}x; {r.elapsed_seconds:.0f}s)",
    )


def test_criterion_2_fine_dominates_coarse(fuzz_report):
    r = fuzz_report
    strictly_finer = r.fine_certified - r.coarse_certified
    ok = r.dominance_violations == 0 and strictly_finer >= 1
    report(
        "2 fine dominates coarse", ok,
        f"(0 coarse-only certificates; fine certifies {strictly_finer} "
        f"instances coarse rejects)",
    )


def test_criterion_3_sisa_waiting_time_formula():
    n_u, horizon = 10, 100.0
    oracle = OracleConfig(10, 20, 0.9, seed=3)
    workload = generate(WorkloadSpec(n_u, 100_000, horizon, seed=3, distribution_u=GRID), 20)
    details = []
    ok = True
    for r, expected in ((5.0, 1.25), (20.0, 15.0)):
        m = run(workload, VariantConfig("SISA", parallel_capacity=20), oracle,
                SimParams(r, horizon), collect_log=False)
        rel = abs(m.awt - expected) / expected
        ok = ok and rel < 0.02
        details.append(f"r={r}: {m.awt:.4f} vs {expected} ({rel:.2%})")
    report("3 waiting-time formula agreement", ok, "(" + "; ".join(details) + ")")


def test_criterion_4_immediate_unlearning_speedup_bound():
    n_u, horizon, K, n_i = 200, 200.0, 10, 20_000
    worst = 0.0
    ok = True
    for r in (1.5, 2.5, 3.5):
        for acc in (0.7, 0.8, 0.9):
            oracle = OracleConfig(10, K, acc, seed=17)
            workload = generate(WorkloadSpec(n_u, n_i, horizon, seed=17, distribution_u=GRID), K)
            m = run(workload, VariantConfig("DIMP", parallel_capacity=K), oracle,
                    SimParams(r, horizon), collect_log=False)
            p_uc = m.p_uc
            bound = p_uc * expected_wait_sisa(TheoryParams(n_u, horizon, r))
            ok = ok and p_uc > 0.0 and m.awt <= bound * 1.05
            if bound > 0:
                worst = max(worst, m.awt / bound)
    report(
        "4 immediate-unlearning wait bound", ok,
        f"(AWT <= p_uc x SISA formula x 1.05 on all 9 cells; worst ratio {worst:.3f})",
    )


def test_criterion_5_privacy_invariant():
    violations = {}
    for name in ("SISA",) + POSTPONE_VARIANTS:
        for seed in SEEDS:
            m = desk_run(name, seed=seed, collect_log=True)
            oracle = OracleConfig(10, 20, 0.9, seed=seed)
            violations[(name, seed)] = replay_privacy_check(m.per_request_log, oracle)
    for name in ("STTU", "DTTU"):
        m = desk_run(name, seed=42, collect_log=True)
        oracle = OracleConfig(10, 20, 0.9, seed=42)
        certified_only = [rec for rec in m.per_request_log if rec.verdict == "certified"]
        violations[(name, "certified-subset")] = replay_privacy_check(certified_only, oracle)
    clean = all(v == 0 for v in violations.values())

    # answer-first emulation: certification disabled, unlearning piles up
    adv_oracle = OracleConfig(10, 10, 0.6, seed=11)
    adv = generate(
        WorkloadSpec(100, 900, 100.0, seed=11,
                     shard_assignment="scattered_round_robin", noise_fraction=0.5),
        10,
    )
    emu = run(adv, VariantConfig("DUTP", parallel_capacity=10, cert_mode="disabled"),
              adv_oracle, SimParams(1.0, 100.0))
    leaked = replay_privacy_check(emu.per_request_log, adv_oracle)
    ok = clean and leaked > 0
    report(
        "5 privacy invariant", ok,
        f"(0 replay violations across SISA and the postpone variants x {len(SEEDS)} seeds; "
        f"answer-first emulation leaks {leaked} of {emu.num_inferences})",
    )


def test_criterion_6_variant_table_reproduction():
    nor = {n: [desk_run(n, seed=s).nor for s in SEEDS] for n in ALL_VARIANTS}
    awt = {n: float(np.mean([desk_run(n, seed=s).awt for s in SEEDS])) for n in ALL_VARIANTS}
    mean_nor = {n: float(np.mean(v)) for n, v in nor.items()}

    a = awt["DIMP"] <= 0.05 * awt["SISA"]
    b = (
        mean_nor["SISA"] == mean_nor["DIMP"] == 500.0
        and mean_nor["DIMP"] >= mean_nor["SUTP"]
        and mean_nor["SUTP"] >= mean_nor["STTU"]
        and mean_nor["STTU"] >= mean_nor["STTP"]
    )
    twins = all(
        nor[single] == nor[double]
        for single, double in (("SUTP", "DUTP"), ("STTU", "DTTU"), ("STTP", "DTTP"))
    )
    ok = a and b and twins
    report(
        "6 variant-table trends", ok,
        f"(DIMP/SISA AWT {awt['DIMP']:.4f}/{awt['SISA']:.4f}; NoR "
        + " >= ".join(f"{n}:{mean_nor[n]:.1f}" for n in ("SISA", "SUTP", "STTU", "STTP"))
        + "; twins pairwise equal per seed)",
    )


def _bad_pairs(values, direction):
    if direction == "non_increasing":
        return sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-12)
    return sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-12)


def test_criterion_7_sweep_trends():
    shards = [5, 10, 15, 20, 25, 30]
    details = []
    ok = True
    for name in CERTIFIED_VARIANTS:
        curve = [
            float(np.mean([desk_run(name, K=K, seed=s).awt for s in SEEDS]))
            for K in shards
        ]
        bad = _bad_pairs(curve, "non_increasing")
        ok = ok and bad <= 1
        details.append(f"{name} K-curve bad pairs {bad}")

    thetas = [0.01, 0.05, 0.1, 0.15, 0.2]
    for name in ("STTU", "DTTU", "STTP", "DTTP"):
        curve = [
            float(np.mean([desk_run(name, theta=t, seed=s).nor for s in SEEDS]))
            for t in thetas
        ]
        bad = _bad_pairs(curve, "non_increasing")
        ok = ok and bad <= 1
        details.append(f"{name} theta-NoR bad pairs {bad}")
    for name in ("STTP", "DTTP"):
        curve = [
            float(np.mean([desk_run(name, theta=t, seed=s).awt for s in SEEDS]))
            for t in thetas
        ]
        bad = _bad_pairs(curve, "non_decreasing")
        ok = ok and bad <= 1
        details.append(f"{name} theta-AWT bad pairs {bad}")
    report("7 sweep trends", ok, "(" + "; ".join(details) + ")")


def test_criterion_8_attacks_and_mitigations():
    def trigger_rate(ms):
        return float(np.mean([m.uncertification_triggers / m.num_inferences for m in ms]))

    base = trigger_rate([desk_run("DUTP", seed=s) for s in SEEDS])
    attacked = trigger_rate([desk_run("DUTP", seed=s, noise=0.5) for s in SEEDS])
    discard = MitigationConfig(confidence_threshold=0.5)
    mitigated = trigger_rate(
        [desk_run("DUTP", seed=s, noise=0.5, mitigation=discard) for s in SEEDS]
    )
    noise_ok = attacked >= 2.0 * base and abs(mitigated - base) <= 0.10 * base

    nor_uniform = float(np.mean([desk_run("DUTP", seed=s).nor for s in SEEDS]))
    nor_scattered = float(np.mean(
        [desk_run("DUTP", seed=s, assignment="scattered_round_robin").nor for s in SEEDS]
    ))
    nor_shuffled = float(np.mean(
        [desk_run("DUTP", seed=s, assignment="scattered_round_robin", shuffle=True).nor
         for s in SEEDS]
    ))
    ceiling = 500.0
    gap = nor_scattered - nor_uniform
    scatter_ok = (
        gap > 0
        and nor_scattered >= nor_uniform + 0.5 * (ceiling - nor_uniform)
        and abs(nor_shuffled - nor_uniform) <= 0.2 * gap
    )
    ok = noise_ok and scatter_ok
    report(
        "8 attack reproduction", ok,
        f"(trigger rate {base:.4f} -> {attacked:.4f} (x{attacked / base:.1f}), "
        f"mitigated {mitigated:.4f}; NoR {nor_uniform:.0f} -> {nor_scattered:.0f} "
        f"scattered, {nor_shuffled:.0f} shuffled)",
    )


def test_criterion_9_deterministic_artifacts(tmp_path):
    text = (
        "[experiment]\nreplications = 2\nbase_seed = 11\n"
        "[workload]\nn_unlearning = 60\nn_inference = 600\n"
        "[oracle]\nnum_shards = 10\n"
    )
    cfg = build_experiment_config(parse_config_text(text))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    same = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    report("9 determinism", same, "(metrics.csv byte-identical across reruns)")
