"""Experiment orchestration: runs, sweeps, fuzzing, theory comparison.

All CSV artifacts are written once, after every run has finished, with
rows sorted by (variant, seed) so repeated invocations with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import filterfalse
from operator import attrgetter

import numpy as np

from . import simulator
from .certify import certify_rows, consistent_rows
from .config import ExperimentConfig, apply_override, build_experiment_config
from .scheduler import VARIANT_NAMES
from .simulator import run as run_sim
from .theory import (
    TheoryParams,
    dimp_upper_bound,
    expected_wait_dimp_series,
    expected_wait_sisa,
)
from .workload import GRID, WorkloadSpec, generate

METRICS_COLUMNS = (
    "variant", "seed", "awt", "nor", "uncertified_responses", "p_uc",
    "p50", "p95", "p99",
)
_metrics = attrgetter(*METRICS_COLUMNS[2:])


def write_csv(out, header, rows) -> None:
    """Write ``header`` and the sequence ``rows`` as CSV to the open text
    file ``out``. Every cell is its ``str``, a float's shortest ``repr``; a
    non-finite float is refused before anything is written."""
    text = "".join(",".join(map(str, cells)) + "\n" for cells in (header, *rows))
    if "inf" in text or "nan" in text:  # a cheap screen: the strs of the non-finite floats
        floats = (v for row in rows for v in row if isinstance(v, float))
        for bad in filterfalse(math.isfinite, floats):
            raise ValueError(f"non-finite value {bad} has no place in a CSV artifact")
    out.write(text)


def _run_job(args):
    key, variant, (workload, oracle_cfg, params), collect_log = args
    return key, run_sim(workload, variant, oracle_cfg, params, collect_log)


def _run_all(cfg: ExperimentConfig, jobs: int, collect_log: bool):
    """``(variant, seed) -> Metrics`` for each variant named in ``cfg``, once
    however often it is listed. Each seed's workload, oracle config and
    simulation parameters are built once and shared by its variants."""
    work = []
    for seed in cfg.seeds():
        inputs = cfg.build_workload(seed), cfg.oracle_config(seed), cfg.sim_params(seed)
        work += [((name, seed), cfg.variant(name), inputs, collect_log)
                 for name in _canonical_names(cfg)]
    if jobs > 1:
        import concurrent.futures  # here alone: it imports logging, a cost serial runs skip

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return dict(pool.map(_run_job, work))
    return dict(map(_run_job, work))


def _canonical_names(cfg):
    return [n for n in VARIANT_NAMES if n in cfg.variants]


def run_experiment(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> int:
    """Run every variant x replication; emit metrics/requests/summary CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    results = _run_all(cfg, jobs, collect_log=True)
    names = _canonical_names(cfg)

    metrics_rows = []
    request_rows = []
    for name in names:
        for seed in cfg.seeds():
            m = results[(name, seed)]
            metrics_rows.append((name, seed, *_metrics(m)))
            request_rows += [
                (name, seed, rec.request_id, rec.arrival, rec.response, rec.wait,
                 rec.verdict, rec.label)
                for rec in m.per_request_log
            ]

    mean = {
        n: (
            float(np.mean([results[(n, s)].awt for s in cfg.seeds()])),
            float(np.mean([results[(n, s)].nor for s in cfg.seeds()])),
        )
        for n in names
    }
    sisa_awt, sisa_nor = mean.get("SISA", (float("nan"), float("nan")))
    summary_rows = []
    for n in names:
        awt, nor = mean[n]
        speedup = sisa_awt / awt if "SISA" in mean and awt > 0 else 0.0
        ratio = nor / sisa_nor if "SISA" in mean and sisa_nor > 0 else 0.0
        summary_rows.append((n, awt, speedup, nor, ratio))

    for name, header, rows in (
        ("metrics.csv", METRICS_COLUMNS, metrics_rows),
        ("requests.csv", ("variant", "seed", "request_id", "arrival", "response", "wait",
                          "verdict", "label"), request_rows),
        ("summary.csv", ("variant", "awt", "awt_speedup_vs_sisa", "nor", "nor_ratio_vs_sisa"),
         summary_rows),
    ):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as out:
            write_csv(out, header, rows)
    return 0


def run_sweep(values: dict, param: str, sweep_values, out_dir, jobs: int = 1) -> int:
    """Re-run the experiment for each value of one config key, all checked first."""
    configs = [build_experiment_config(apply_override(values, param, str(v))) for v in sweep_values]
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for value, cfg in zip(sweep_values, configs):
        results = _run_all(cfg, jobs, collect_log=False)
        rows += [
            (param, value, name, seed, *_metrics(results[(name, seed)]))
            for name in _canonical_names(cfg) for seed in cfg.seeds()
        ]
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as out:
        write_csv(out, ("param", "value") + METRICS_COLUMNS, rows)
    return 0


# --- certification fuzzing ---------------------------------------------------


@dataclass
class FuzzReport:
    trials: int
    soundness_violations: int
    dominance_violations: int
    shared_margin_counterexamples: int
    fine_certified: int
    coarse_certified: int
    brute_consistent: int
    fine_incompleteness_gap: int
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return self.soundness_violations == 0 and self.dominance_violations == 0


_FUZZ_CELLS = 1 << 17
_RAW_WORDS = 1024  # 64-bit outputs per read of the bit generator


def _words(bit_generator):
    """The 32-bit words numpy's bounded draws read, in order: each PCG64
    output's low half, then its high half (little-endian pairs)."""
    while True:
        yield from bit_generator.random_raw(_RAW_WORDS).astype("<u8").view("<u4").tolist()


def _bounded(next_word, r):
    """``Generator.integers(0, r + 1)`` for ``r < 2**32``: Lemire's multiply-shift."""
    if r == 0:  # numpy reads no word for a range of one value
        return 0
    x = next_word() * (r + 1)
    if (x & 0xFFFF_FFFF) <= r:  # numpy's cheap test before its modulo
        while (x & 0xFFFF_FFFF) < 2**32 % (r + 1):  # numpy's (2**32 - 1 - r) % (r + 1)
            x = next_word() * (r + 1)
    return x >> 32


def _choose(next_word, k, m):
    """The set ``Generator.choice(k, m, replace=False)`` returns."""
    if k > 10_000 and m > k // 50:  # numpy's tail shuffle of arange(k)
        idx = list(range(k))
        for i in range(k - 1, max(k - m, 1) - 1, -1):
            j = _bounded(next_word, i)
            idx[i], idx[j] = idx[j], idx[i]
        return set(idx[k - m:])
    chosen = set()
    for j in range(k - m, k):  # Floyd's algorithm, then m - 1 draws of a shuffle
        v = _bounded(next_word, j)
        chosen.add(j if v in chosen else v)
    for i in range(m - 1, 0, -1):
        _bounded(next_word, i)
    return chosen


def verify_cert(trials: int, max_shards: int = 8, max_classes: int = 4,
                seed: int = 0, enumeration_cap: int = 12) -> FuzzReport:
    """Fuzz the consistency checks against the brute-force oracle.

    Soundness: a fine certificate must imply the enumeration finds no
    winner flip. Dominance: a coarse certificate must imply a fine one.
    The shared-margin variant is expected to produce brute-force-refuted
    certificates; their count documents why it must not be used.

    Trials are parsed in one pass from the 32-bit words that numpy's
    ``integers`` and ``choice`` calls on ``np.random.default_rng(seed)``
    would read, so both maxima must be below ``2**32``. They are judged in
    blocks of ``_FUZZ_CELLS // max_shards`` (at least one), so memory is
    bounded. Storing a trial's predictions with its impacted shards first
    leaves its votes unchanged, so a (K, C, m) group shares the impacted
    set ``arange(m)`` and takes one call of each row-wise check.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not (1 <= max_shards < 2**32 and 2 <= max_classes < 2**32):
        raise ValueError("need max_shards >= 1 and max_classes >= 2, both below 2**32")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    next_word = _words(np.random.default_rng(seed).bit_generator).__next__
    start = time.monotonic()
    # soundness, dominance, shared-margin, fine, coarse, brute, gap
    totals = np.zeros(7, dtype=np.int64)
    block = max(1, _FUZZ_CELLS // max_shards)
    for first in range(0, trials, block):
        groups = {}
        for _ in range(min(block, trials - first)):
            k = 1 + _bounded(next_word, max_shards - 1)
            c = 2 + _bounded(next_word, max_classes - 2)
            preds = [_bounded(next_word, c - 1) for _ in range(k)]
            m = _bounded(next_word, k)
            chosen = _choose(next_word, k, m)
            row = [preds[j] for j in sorted(chosen)]
            row += [p for j, p in enumerate(preds) if j not in chosen]
            groups.setdefault((k, c, m), []).append(row)
        # in order of first appearance, so the first over-cap draw raises
        for (k, c, m), rows in groups.items():
            rows = np.array(rows, dtype=np.int64)
            fine, coarse, shared = certify_rows(rows, np.arange(k) < m, c)
            brute = consistent_rows(rows, np.arange(m), c, cap=enumeration_cap)
            totals += np.count_nonzero([fine & ~brute, coarse & ~fine, shared & ~brute,
                                        fine, coarse, brute, brute & ~fine], axis=1)
    return FuzzReport(trials, *totals.tolist(), time.monotonic() - start)


# --- theory vs simulation ----------------------------------------------------


def compare_theory(cfg: ExperimentConfig, r_values, n_inference: int = 50_000,
                   seed: int = 0) -> list[dict]:
    """Formula-vs-simulation rows over a grid of retrain durations."""
    rows = []
    horizon = cfg.horizon
    spec = WorkloadSpec(cfg.n_unlearning, n_inference, horizon, seed, distribution_u=GRID)
    workload = generate(spec, cfg.num_shards)
    oracle_cfg = cfg.oracle_config(seed)
    for r in r_values:
        params = simulator.SimParams(retrain_duration=r, horizon=horizon)
        theory = TheoryParams(cfg.n_unlearning, horizon, r)

        sisa = run_sim(workload, cfg.variant("SISA"), oracle_cfg, params, collect_log=False)
        dimp = run_sim(workload, cfg.variant("DIMP"), oracle_cfg, params, collect_log=False)
        p_uc = dimp.p_uc
        with_p = TheoryParams(cfg.n_unlearning, horizon, r, p_uc)
        sisa_formula = expected_wait_sisa(theory)
        rows.append({
            "r": r,
            "sisa_formula": sisa_formula,
            "sisa_simulated": sisa.awt,
            "sisa_rel_error": abs(sisa.awt - sisa_formula) / sisa_formula
            if sisa_formula else 0.0,
            "p_uc": p_uc,
            "dimp_bound": dimp_upper_bound(with_p),
            "dimp_series": expected_wait_dimp_series(with_p),
            "dimp_simulated": dimp.awt,
        })
    return rows
