"""Experiment orchestration: runs, sweeps, fuzzing, theory comparison.

All CSV artifacts are written once, after every run has finished, with
rows sorted by (variant, seed) so repeated invocations with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import filterfalse
from operator import attrgetter

import numpy as np

from . import simulator
from .certify import _MAX_TALLIES, certify_rows, consistent_rows
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


@contextmanager
def _job_runner(jobs: int):
    """``run(work, per_seed)``: the results of ``_run_job`` over the list
    ``work``, serially or on one pool of ``jobs`` workers for every call.
    A seed's ``per_seed`` jobs go to the pool in ``jobs`` chunks, and a
    chunk pickles the inputs its jobs share once."""
    if jobs == 1:
        yield lambda work, per_seed: map(_run_job, work)
        return
    import concurrent.futures  # here alone: it imports logging, a cost serial runs skip

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield lambda work, per_seed: pool.map(_run_job, work, chunksize=-(-per_seed // jobs))


def _run_all(cfg: ExperimentConfig, jobs: int, collect_log: bool, run=None):
    """``(variant, seed) -> Metrics`` for each variant named in ``cfg``, once
    however often it is listed, on ``run`` (from ``_job_runner(jobs)``, to
    share one pool between calls) or on a runner of its own. Each seed's
    workload, oracle config and simulation parameters are built once and
    shared by its variants."""
    names = _canonical_names(cfg)
    work = []
    for seed in cfg.seeds():
        inputs = cfg.build_workload(seed), cfg.oracle_config(seed), cfg.sim_params(seed)
        work += [((name, seed), cfg.variant(name), inputs, collect_log) for name in names]
    if run is None:
        with _job_runner(jobs) as run:
            return dict(run(work, len(names)))
    return dict(run(work, len(names)))


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
    sisa_awt, sisa_nor = mean.get("SISA", (0.0, 0.0))
    summary_rows = []
    for n in names:
        awt, nor = mean[n]
        awt_saving = 1.0 - awt / sisa_awt if sisa_awt > 0 else 0.0
        nor_saving = 1.0 - nor / sisa_nor if sisa_nor > 0 else 0.0
        summary_rows.append((n, awt, awt_saving, nor, nor_saving))

    for name, header, rows in (
        ("metrics.csv", METRICS_COLUMNS, metrics_rows),
        ("requests.csv", ("variant", "seed", "request_id", "arrival", "response", "wait",
                          "verdict", "label"), request_rows),
        ("summary.csv", ("variant", "awt", "awt_saving_vs_sisa", "nor", "nor_saving_vs_sisa"),
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
    with _job_runner(jobs) as run:
        for value, cfg in zip(sweep_values, configs):
            results = _run_all(cfg, jobs, collect_log=False, run=run)
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


_MAX_SHARDS = 64  # the parse holds a trial's chosen set in one uint64
_WINDOW = 1 << 13  # words the parse reads at a time, at most


def _rejected(x, n):
    """numpy's rejection test on the products ``x = word * n``: it redraws a
    word whose product's low half is below ``2**32 % n``."""
    return (x & 0xFFFF_FFFF) < (1 << 32) % n


class _Stream:
    """The 32-bit words numpy's bounded draws read, in order (each PCG64
    output's low half, then its high half), in a buffer with a cursor. A
    word numpy rejects can be dropped from the buffer, as numpy drops it,
    so the words after it move up one place."""

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self._buf = np.empty(0, dtype=np.uint32)
        self._at = 0

    def ahead(self, n):
        """The next ``n`` words as uint64, left unread."""
        short = n - (self._buf.size - self._at)
        if short > 0:
            raw = self._bit_generator.random_raw(max(-(-short // 2), _RAW_WORDS))
            self._buf = np.concatenate((self._buf[self._at:], raw.astype("<u8").view("<u4")))
            self._at = 0
        return self._buf[self._at:self._at + n].astype(np.uint64)

    def skip(self, n):
        self._at += n

    def drop(self, i):
        """Delete the word ``i`` places past the cursor."""
        self._buf = np.delete(self._buf, self._at + i)


def _trial_lengths(w, max_shards, max_classes):
    """``(k, m, rejected, lengths)`` at every position of the window ``w``
    from which a longest trial fits: the K and m a trial starting there
    draws, whether either draw is rejected, and the trial's length in words
    (as bytes, to walk)."""
    a, b = max_shards > 1, max_classes > 2
    fits = w.size - (a + b + 3 * max_shards) + 1
    if a:
        x = w[:fits] * max_shards
        k = 1 + (x >> 32)
        rejected = _rejected(x, max_shards)
    else:
        k = np.ones(fits, dtype=np.uint64)
        rejected = np.zeros(fits, dtype=bool)
    x = w[np.arange(a + b, fits + a + b, dtype=np.uint64) + k] * (k + 1)
    m = x >> 32
    rejected |= _rejected(x, k + 1)
    # the m draw, K predictions, Floyd's m steps (none read for j = 0, when
    # m = K) and the m - 1 draws of the shuffle
    lengths = a + b + 1 + k + np.maximum(2 * m, 1) - 1 - (m == k)
    return k, m, rejected, lengths.astype(np.uint8).tobytes()


def _walk(lengths, at, most):
    """``(starts, end)``: up to ``most`` trial starts from ``at`` on, each
    the one before plus its length, and the position the walk stopped at."""
    starts, fits = [], len(lengths)
    while at < fits:
        starts.append(at)
        at += lengths[at]
    if len(starts) > most:
        at = starts[most]
        del starts[most:]
    return np.array(starts, dtype=np.uint64), at


def _array_trials(w, starts, k, m, max_shards, max_classes):
    """The trials starting at ``starts`` of the window ``w``, whose K and m
    are known: ``(c, rows, rejected)``, with each row of ``rows`` holding a
    trial's predictions with its chosen shards first, zero past its K."""
    cols = np.arange(max_shards, dtype=np.uint64)
    at = starts + (max_shards > 1)
    rejected = np.zeros(starts.size, dtype=bool)
    if max_classes > 2:
        x = w[at] * (max_classes - 1)
        c = 2 + (x >> 32)
        rejected |= _rejected(x, max_classes - 1)
        at += 1
    else:
        c = np.full(starts.size, 2, dtype=np.uint64)
    x = w[at[:, None] + cols] * c[:, None]
    inside = cols < k[:, None]
    preds = (x >> 32) * inside
    rejected |= (_rejected(x, c[:, None]) & inside).any(axis=1)
    # Floyd: step t draws below j + 1 = K - m + t + 1, from the word after the
    # m draw on; j = 0 (t = 0 when m = K) reads none and draws 0
    whole = m == k
    live = cols < m[:, None]
    span = np.where(live, (k - m)[:, None] + cols + 1, 1)
    x = w[(at + k + 1 - whole)[:, None] + cols] * span
    draws = x >> 32
    rejected |= _rejected(x, span).any(axis=1)
    chosen = np.zeros(starts.size, dtype=np.uint64)
    for t in range(int(m.max(initial=0))):
        v, j = draws[:, t], span[:, t] - 1
        add = np.where((chosen >> v) & 1, j, v)
        chosen |= live[:, t].astype(np.uint64) << add
    # the shuffle's m - 1 draws, below m - t at its step t
    span = np.where(cols[:-1] + 1 < m[:, None], m[:, None] - cols[:-1], 1)
    x = w[(at + k + 1 - whole + m)[:, None] + cols[:-1]] * span
    rejected |= _rejected(x, span).any(axis=1)
    # each prediction's column: the chosen shards first, in index order
    bits = ((chosen[:, None] >> cols) & 1).view(np.int64)
    before = np.cumsum(bits, axis=1) - bits
    dest = np.where(bits, before, m.view(np.int64)[:, None] + cols.view(np.int64) - before)
    rows = np.empty_like(preds)
    np.put_along_axis(rows, dest, preds, axis=1)
    return c, rows, rejected


def _first_rejected(w, s, max_shards, max_classes):
    """The offset in ``w`` of the first word numpy rejects in the trial at
    ``s``, which has one. The trial's draw ranges are listed in numpy's read
    order, each from the words before it, and its words tested at once."""
    spans = []

    def draw(n):  # the value of the trial's next word over a range of n
        spans.append(n)
        return int(w[s + len(spans) - 1]) * n >> 32

    k = 1 + draw(max_shards) if max_shards > 1 else 1
    c = 2 + draw(max_classes - 1) if max_classes > 2 else 2
    for _ in range(k):
        draw(c)
    m = draw(k + 1)
    # Floyd's steps j = K - m .. K - 1 draw below j + 1 (none for j = 0),
    # then the shuffle's m - 1 draws below m .. 2
    for n in (*range(max(k - m, 1) + 1, k + 1), *range(m, 1, -1)):
        draw(n)
    n = np.array(spans, dtype=np.uint64)
    return s + int(_rejected(w[s:s + n.size] * n, n).argmax())


def _draw_block(stream, count, max_shards, max_classes):
    """``count`` trials from ``stream``: their (K, C, m), shape (count, 3),
    and their predictions with the impacted shards first, shape
    (count, max_shards), zero past each row's K.

    A window of words is parsed with array operations: the lengths of
    trials starting at every position are walked once for the trial
    starts, then every draw of the walked trials is read at once. At the
    first walked trial with a rejected draw, the first word numpy rejects
    in it is dropped from ``stream``, as numpy drops it, and the window is
    parsed again from that trial's first word.
    """
    shapes = np.empty((count, 3), dtype=np.uint32)
    rows = np.zeros((count, max_shards), dtype=np.min_scalar_type(max_classes - 1))
    done = 0
    longest = (max_shards > 1) + (max_classes > 2) + 3 * max_shards  # words
    while done < count:
        w = stream.ahead(min(_WINDOW, (count - done + 1) * longest))
        k, m, rejected, lengths = _trial_lengths(w, max_shards, max_classes)
        at = 0
        while done < count and at < len(lengths):
            starts, at = _walk(lengths, at, count - done)
            tk, tm = k[starts], m[starts]
            c, trial_rows, bad = _array_trials(w, starts, tk, tm, max_shards, max_classes)
            bad |= rejected[starts]
            took = int(bad.argmax()) if bad.any() else starts.size
            shapes[done:done + took] = np.stack((tk, c, tm), axis=1)[:took]
            rows[done:done + took] = trial_rows[:took]
            done += took
            if took < starts.size:
                at = int(starts[took])
                stream.drop(_first_rejected(w, at, max_shards, max_classes))
                break
        stream.skip(at)
    return shapes, rows


def _groups(shapes, rows):
    """``((k, c, m), rows)`` for each (K, C, m) of a block, in order of first
    appearance, so the first draw over the tally bound raises."""
    order = np.lexsort(shapes.T[::-1])  # stable: each group's first row leads it
    ordered = shapes[order]
    edges = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    bounds = np.concatenate(([0], edges, [len(order)]))
    for g in np.argsort(order[bounds[:-1]]):
        lo, hi = bounds[g], bounds[g + 1]
        k, c, m = ordered[lo].tolist()
        yield (k, c, m), rows[order[lo:hi], :k].astype(np.int64)


def verify_cert(trials: int, max_shards: int = 8, max_classes: int = 4,
                seed: int = 0) -> FuzzReport:
    """Fuzz the consistency checks against the brute-force oracle.

    Soundness: a fine certificate must imply the enumeration finds no
    winner flip. Dominance: a coarse certificate must imply a fine one.
    The shared-margin variant is expected to produce brute-force-refuted
    certificates; their count documents why it must not be used.

    Trials are the instances numpy's ``integers`` and ``choice`` calls on
    ``np.random.default_rng(seed)`` would draw, read from the same 32-bit
    words. A ``max_shards`` over ``_MAX_SHARDS`` is refused before anything
    is drawn, and so is a ``max_classes`` over ``_MAX_TALLIES`` (2**20): a
    trial with more classes and one impacted shard has more tallies than the
    enumeration's bound. They are drawn (by :func:`_draw_block`) and judged
    in blocks of ``_FUZZ_CELLS // max(max_shards, max_classes)`` trials, as
    a block's tables are trials x shards or trials x classes, so memory is
    bounded. Storing a trial's predictions with
    its impacted shards first leaves its votes unchanged, so a (K, C, m)
    group shares the impacted set ``arange(m)`` and takes one call of each
    row-wise check. The first trial over the enumeration's tally bound raises.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not (1 <= max_shards <= _MAX_SHARDS and 2 <= max_classes < 2**32):
        raise ValueError("need max_shards >= 1 and max_classes >= 2, both below 2**32, "
                         f"and max_shards at most {_MAX_SHARDS}")
    if max_classes > _MAX_TALLIES:
        raise ValueError(f"max_classes must be at most 2**20, got {max_classes}: one impacted "
                         "shard over more classes makes more tallies than the enumeration bound")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    stream = _Stream(np.random.default_rng(seed).bit_generator)
    start = time.monotonic()
    # soundness, dominance, shared-margin, fine, coarse, brute, gap
    totals = np.zeros(7, dtype=np.int64)
    block = max(1, _FUZZ_CELLS // max(max_shards, max_classes))
    for first in range(0, trials, block):
        shapes, rows = _draw_block(stream, min(block, trials - first), max_shards, max_classes)
        for (k, c, m), group in _groups(shapes, rows):
            fine, coarse, shared = certify_rows(group, np.arange(k) < m, c)
            brute = consistent_rows(group, np.arange(m), c)
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
