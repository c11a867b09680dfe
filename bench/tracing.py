"""Spans and counters around eraser's layers, installed from outside.

The tracer replaces public functions in the package's modules with
wrappers for the length of one round and restores them afterwards. It
also patches the names that modules imported by value (``fine_certified``
and ``count_votes`` in ``scheduler``, ``mix64_chain`` in ``oracle`` and so
on), since replacing the defining module's attribute does not reach
those. Spans (name, start, end, parent) stay in memory and are written
out once the run ends. A name missing from the tree under test is
skipped, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import time

from eraser.scheduler import VARIANT_NAMES

_ENSEMBLE_USERS = ("eraser.scheduler", "eraser.simulator", "eraser.oracle", "eraser.certify")

SPANS = [
    ("eraser.simulator", "run", "simulator.run"),
    ("eraser.simulator", "replay_privacy_check", "simulator.replay_privacy_check"),
    ("eraser.experiment", "verify_cert", "experiment.verify_cert"),
    ("eraser.oracle", "predict_vector", "oracle.predict_vector"),
    ("eraser.scheduler", "fine_certified", "certify.fine_certified"),
    ("eraser.scheduler", "certify_coarse", "certify.certify_coarse"),
    ("eraser.experiment", "certify_coarse", "certify.certify_coarse"),
    ("eraser.experiment", "certify_fine", "certify.certify_fine"),
    ("eraser.experiment", "certify_fine_shared_margin", "certify.certify_fine_shared_margin"),
    ("eraser.experiment", "brute_force_consistent", "certify.brute_force_consistent"),
] + [(m, "count_votes", "ensemble.count_votes") for m in _ENSEMBLE_USERS] + [
    (m, "aggregate", "ensemble.aggregate") for m in _ENSEMBLE_USERS
]

SCHEDULER_METHODS = (
    "on_inference_arrival", "on_unlearning_arrival", "on_retraining_complete", "finalize",
)

# Counted, not spanned: a span costs more than one call of these.
COUNTERS = [
    ("eraser.hashing", "mix64_chain", "hashing.mix64_chain"),
    ("eraser.oracle", "mix64_chain", "hashing.mix64_chain"),
    ("eraser.hashing", "mix64_array", "hashing.mix64_array"),
    ("eraser.oracle", "mix64_array", "hashing.mix64_array"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.backlog_peak = 0
        self._stack = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return wrapper

    def _method_span(self, name, fn):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(sched, *args, **kwargs):
            try:
                return inner(sched, *args, **kwargs)
            finally:
                self.backlog_peak = max(self.backlog_peak, len(getattr(sched, "backlog", ())))

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []

        def patch(owner, attr, make, name):
            original = getattr(owner, attr, None)
            if original is None:
                return
            saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

        try:
            for module, attr, name in SPANS:
                patch(importlib.import_module(module), attr, self._span, name)
            for module, attr, name in COUNTERS:
                patch(importlib.import_module(module), attr, self._counter, name)
            scheduler = importlib.import_module("eraser.scheduler").Scheduler
            for method in SCHEDULER_METHODS:
                patch(scheduler, method, self._method_span, f"scheduler.{method}")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """name -> [calls, inclusive ns, self ns].

        Self time is a span's duration minus the part its child spans
        cover. Spans nest strictly (one thread), so that part is the sum
        of the children's durations.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered[i]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def layer_metrics(bench, table, rounds, tracer, traced_segments):
    """Per-layer metrics: counts and self times of the traced round,
    whole-call times (per-variant run time, audit time per record,
    generation time) of the untraced rounds and the set-up."""
    timings = [t for seg in traced_segments.values()
               for t in (seg.values() if isinstance(seg, dict) else [seg])]
    # normalise span times like the traced round's segments
    scale = sum(t.norm for t in timings) / sum(t.raw for t in timings)
    overhead = (bench.end_to_end([traced_segments])["work_s"]
                / bench.end_to_end(rounds)["work_s"])
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, [0, 0, 0])[0]

    def secs(name, kind):  # kind 1 = inclusive, 2 = self
        return summary.get(name, [0, 0, 0])[kind] * 1e-9 * scale

    def per_call_us(name):
        return secs(name, 1) / calls(name) * 1e6 if calls(name) else 0.0

    sched = [f"scheduler.{m}" for m in ("on_inference_arrival", "on_unlearning_arrival",
                                         "on_retraining_complete")]
    events = sum(calls(n) for n in sched)
    certifying = [row for v, row in table.items() if v != "SISA"]
    judgements = sum(row["judgements"] for row in certifying)
    inferences = sum(row["inferences"] for row in certifying)
    records = sum(row["authoritative"] for row in table.values())
    is_sim = hasattr(bench, "cases")
    audit_s = (
        statistics.median([sum(t.norm for t in seg["audit"].values()) for seg in rounds])
        if is_sim else 0.0
    )
    trials = getattr(bench, "trials", 0)
    fuzz_checks = ("certify.certify_fine", "certify.certify_coarse",
                   "certify.certify_fine_shared_margin")
    pv_calls = calls("oracle.predict_vector")
    return {
        "oracle.predict_vector.calls": pv_calls,
        "oracle.predict_vector.self_s": secs("oracle.predict_vector", 2),
        "oracle.ns_per_shard_pred": (
            secs("oracle.predict_vector", 1) / (pv_calls * getattr(bench, "num_shards", 1)) * 1e9
            if pv_calls else 0.0
        ),
        "hashing.mix64_calls": tracer.counts.get("hashing.mix64_chain", 0),
        "hashing.mix64_array_calls": tracer.counts.get("hashing.mix64_array", 0),
        "ensemble.count_votes.calls": calls("ensemble.count_votes"),
        "ensemble.self_s": secs("ensemble.count_votes", 2) + secs("ensemble.aggregate", 2),
        "certify.fine_certified.calls": calls("certify.fine_certified"),
        "certify.us_per_judgement": per_call_us("certify.fine_certified"),
        "certify.us_per_fuzz_trial": (
            sum(secs(n, 1) for n in fuzz_checks) / trials * 1e6 if trials else 0.0
        ),
        "certify.brute_force.calls": calls("certify.brute_force_consistent"),
        "certify.brute_force.us_per_call": per_call_us("certify.brute_force_consistent"),
        "scheduler.self_s": sum(secs(n, 2) for n in sched + ["scheduler.finalize"]),
        **{f"{n}.us_per_call": per_call_us(n) for n in sched},
        "scheduler.finalize.calls": calls("scheduler.finalize"),
        "scheduler.judgements": judgements,
        "scheduler.judgements_per_inference": judgements / inferences if inferences else 0.0,
        "scheduler.backlog_peak": tracer.backlog_peak,
        "scheduler.retrainings": sum(row["nor"] for row in table.values()),
        "simulator.events": events,
        "simulator.loop.us_per_event": secs("simulator.run", 2) / events * 1e6 if events else 0.0,
        **{
            f"simulator.run_s.{v}": (
                statistics.median([seg["run"][v].norm for seg in rounds]) if is_sim else 0.0
            )
            for v in VARIANT_NAMES
        },
        "simulator.audit.records": records,
        "simulator.audit.us_per_record": audit_s / records * 1e6 if records else 0.0,
        "workload.generate_s": sum(t.norm for t in bench.generate),
        "experiment.verify_cert.self_s": secs("experiment.verify_cert", 2),
        "bench.trace_overhead": overhead,
    }
