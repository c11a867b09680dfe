"""Deterministic discrete-event engine.

Feeds a sorted request stream into a scheduler plus prediction oracle
and collects latency/retraining metrics. The requests are sorted once by
(arrival, kind, position) unless already in that order, as ``generate``
emits them; the scheduler owns its retraining jobs, and the loop
compares the time it reports for its next completion with the next
arrival. At equal timestamps retraining completions are processed first,
then unlearning arrivals, then inference arrivals, which keeps
hand-traces unambiguous and maximizes certified responses. Every handler
returns only the answers it gives, each already the
:class:`~eraser.scheduler.RequestRecord` the run reports (re-exported
here); the loop appends them in answer order and checks them in one pass
after quiescence: one answer per inference, none before its arrival.

An inference arrival offers the scheduler every request that follows it,
unlearning ones included, across retraining completions, as a lazy
iterator. The scheduler sizes its own walk over them: a fork of the
scheduler runs its own transitions through as many as its last batches'
verdicts were used for, so one batch judges the run's inferences, each
under the state it is expected to meet.
Before the first event, the scheduler's table of prediction prefixes is
built in one array pass from the workload's inference samples and flags.

After the last workload event the engine asks the scheduler once to start
its final update, which executes the leftover pending unlearning requests
(at the horizon, or at the last event if later), and processes its
completions. The last of them leaves the scheduler idle, and its control
pass answers every postponed inference; a run that is not quiescent then
is a :class:`SimulationError`. Waits accrued past the horizon count in
full toward the average waiting time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .certify import judge
from .oracle import SamplePrefixes
from .scheduler import RequestRecord, Scheduler, VariantConfig
from .workload import INFERENCE, UNLEARNING


@dataclass(frozen=True)
class SimParams:
    retrain_duration: float
    horizon: float
    inference_service_time: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.retrain_duration) and self.retrain_duration > 0):
            raise ValueError("retrain_duration must be positive and finite")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if not (math.isfinite(self.inference_service_time) and self.inference_service_time >= 0):
            raise ValueError("inference_service_time must be finite and >= 0")


@dataclass
class Metrics:
    awt: float
    nor: int
    uncertified_responses: int
    postponed_count: int
    refused_count: int
    p50: float
    p95: float
    p99: float
    p_uc: float
    judgements: int
    judgements_uncertified: int
    uncertification_triggers: int
    final_triggers: int
    num_inferences: int
    num_unlearnings: int
    per_request_log: list[RequestRecord] = field(repr=False, default_factory=list)


class SimulationError(RuntimeError):
    """Internal consistency failure of the engine (a bug, not bad input)."""


def _validate_workload(workload, horizon) -> bool:
    """Check that arrivals are sorted and inside [0, horizon]; return whether
    the stream is in engine order too, unlearning ahead of inference at a tie."""
    last, previous, ordered = -1.0, None, True
    for r in workload:
        if r.arrival < last:
            raise ValueError(
                f"workload not sorted by arrival at request {r.request_id}"
            )
        if not 0.0 <= r.arrival <= horizon:
            raise ValueError(
                f"request {r.request_id} arrives at {r.arrival}, outside [0, {horizon}]"
            )
        if r.arrival == last and r.kind == UNLEARNING and previous.kind != UNLEARNING:
            ordered = False
        last, previous = r.arrival, r
    return ordered


def run(workload, variant: VariantConfig, oracle_cfg, params: SimParams,
        collect_log: bool = True) -> Metrics:
    """Simulate one variant over one workload to quiescence."""
    ordered = _validate_workload(workload, params.horizon)
    sched = Scheduler(variant, oracle_cfg, params.retrain_duration, params.inference_service_time)
    inferences = [r for r in workload if r.kind == INFERENCE]
    samples, noise = [r.sample for r in inferences], [r.is_noise for r in inferences]
    sched.prefixes = SamplePrefixes(oracle_cfg, samples, noise)

    requests = workload if ordered else sorted(
        workload, key=lambda r: (r.arrival, r.kind != UNLEARNING))
    nxt = 0  # index of the next request to arrive
    records: list[RequestRecord] = []  # in answer order
    now = 0.0

    def upcoming():
        return map(requests.__getitem__, range(nxt + 1, len(requests)))

    def drain_events():
        nonlocal now, nxt
        n, next_completion = len(requests), sched.next_completion
        while True:
            due = next_completion()
            if due is not None and (nxt == n or due <= requests[nxt].arrival):
                now = due
                records.extend(sched.on_retraining_complete(now))
                continue
            if nxt == n:
                return
            r = requests[nxt]
            now = r.arrival
            if r.kind == UNLEARNING:
                records.extend(sched.on_unlearning_arrival(r, now))
            else:
                records.extend(sched.on_inference_arrival(r, now, upcoming))
            nxt += 1

    drain_events()
    sched.finalize(max(now, params.horizon))
    drain_events()
    if not sched.quiet():
        raise SimulationError("the final update did not bring the run to quiescence")

    terminal = {rec.request_id for rec in records}
    waits = [rec.wait for rec in records]
    if len(terminal) < len(records) or min(waits, default=0.0) < -1e-9:
        seen: set[int] = set()
        for rec in records:  # name the first broken answer, in answer order
            if rec.request_id in seen:
                raise SimulationError(f"request {rec.request_id} answered more than once")
            seen.add(rec.request_id)
            if rec.wait < -1e-9:
                raise SimulationError(f"request {rec.request_id} answered before its arrival")
    verdicts = [rec.verdict for rec in records]
    uncertified_responses = verdicts.count("uncertified")
    refused = sum(verdicts.count(v) for v in set(verdicts) if v.startswith("refused"))
    n_inferences = len(inferences)
    if len(terminal) != n_inferences:
        raise SimulationError(
            f"{n_inferences} inference arrivals but {len(terminal)} terminal actions"
        )

    if waits:
        arr = np.asarray(waits)
        awt = float(arr.mean())
        p50, p95, p99 = (float(x) for x in np.percentile(arr, [50, 95, 99]))
    else:
        awt = p50 = p95 = p99 = 0.0
    p_uc = (
        sched.judgements_uncertified / sched.judgements if sched.judgements else 0.0
    )
    records = sorted(records, key=attrgetter("request_id")) if collect_log else []
    return Metrics(
        awt=awt,
        nor=sched.retrainings_completed,
        uncertified_responses=uncertified_responses,
        postponed_count=sched.postponed,
        refused_count=refused,
        p50=p50,
        p95=p95,
        p99=p99,
        p_uc=p_uc,
        judgements=sched.judgements,
        judgements_uncertified=sched.judgements_uncertified,
        uncertification_triggers=sched.uncertification_triggers,
        final_triggers=sched.final_triggers,
        num_inferences=n_inferences,
        num_unlearnings=len(workload) - n_inferences,
        per_request_log=records,
    )


_REPLAY_CHUNK = 1024  # records replayed per array pass; bounds its memory


def replay_privacy_check(per_request_log, oracle_cfg) -> int:
    """Re-derive each answered label under executed-unlearning state.

    For every response served as authoritative (certified, or plain from a
    certification-free policy), recompute the ensemble label with all
    then-pending unlearning already applied (shard versions advanced past
    their outstanding retrainings) and count disagreements. Uncertified
    and refused responses are excluded: they were never claimed
    consistent. The records are replayed in batches: one table of
    :class:`~eraser.oracle.SamplePrefixes`, one array pass of predictions
    and one row-wise plurality vote per batch. Records answered under one
    serving state share its versions, so each batch converts every
    distinct tuple of hypothetical versions (equal by value) to an array
    row once and gathers each record's row by index.
    """
    records = [rec for rec in per_request_log if rec.verdict in ("certified", "plain")]
    violations = 0
    for start in range(0, len(records), _REPLAY_CHUNK):
        batch = records[start:start + _REPLAY_CHUNK]
        prefixes = SamplePrefixes(
            oracle_cfg, [rec.sample for rec in batch], [rec.is_noise for rec in batch]
        )
        states: dict = {}  # hypothetical versions -> row of the distinct states
        state_of = np.fromiter(
            (states.setdefault(rec.hypothetical_versions, len(states)) for rec in batch),
            dtype=np.intp, count=len(batch),
        )
        versions = np.array(list(states), dtype=np.int64)[state_of]
        preds = prefixes.predict(np.arange(len(batch)), versions)
        _, winner, _ = judge(preds, np.zeros(preds.shape[1], dtype=bool), oracle_cfg.num_classes)
        labels = np.fromiter((rec.label for rec in batch), dtype=np.int64, count=len(batch))
        violations += int(np.count_nonzero(winner != labels))
    return violations
