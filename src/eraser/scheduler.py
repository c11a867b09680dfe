"""Request-handling policies over the sharded ensemble.

Eight variants are supported, spanned by three design options:

* Option I  — single context (inference halts while shards retrain) or
  double context (old model copies keep serving during retraining).
* Option II — when unlearning executes: immediately on arrival, when an
  inference fails the consistency check, or when the failure ratio since
  the last update crosses a threshold.
* Option III — failed inferences either wait for the update (postpone) or
  are answered anyway while the failure ratio stays under the threshold.

=====  ==============  =========  ==================  ==================
name   I               II         III                 notes
=====  ==============  =========  ==================  ==================
DIMP   double          immediate  postpone
SUTP   single          uncert     postpone
DUTP   double          uncert     postpone
STTU   single          threshold  respond_uncert
DTTU   double          threshold  respond_uncert
STTP   single          threshold  postpone
DTTP   double          threshold  postpone
SISA   single          immediate  postpone            no certification
=====  ==============  =========  ==================  ==================

The scheduler is a deterministic state machine driven by the simulator's
events; it holds no clock of its own and draws no randomness beyond the
seeded hashes shared with the oracle. It alone owns its retraining jobs:
a heap of the jobs in flight, ordered by completion time and then job id,
and a FIFO queue of jobs waiting for a slot. The simulator reads
:meth:`Scheduler.next_completion` and calls
:meth:`Scheduler.on_retraining_complete` at that time. Every handler
returns only the answers it gives, each the :class:`RequestRecord` of its
request, answered at the handler's ``now`` plus the inference service time.

Bookkeeping is split into two planes so that variants differing only in
Option I make identical retraining decisions and differ in response
timing alone:

* the *response plane* answers requests as early as soundness allows —
  double-context variants evaluate arrivals mid-update and re-check
  postponed requests at every retraining completion;
* the *control plane* (threshold counters and update triggers) acts only
  while no update runs and at update completions, where it walks the
  whole backlog in arrival order under the post-update state. Those
  control verdicts depend only on arrival order and retraining state,
  which single- and double-context twins share. A completion judges the
  entries it acts on once, in one batch, for both planes.

A request leaves the backlog only once the control plane sees it
certified, refused, or answered-uncertified; until then completed updates
keep re-counting it toward the threshold window, which is what makes the
postpone-threshold variants slower to re-trigger than their
answer-uncertified siblings.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .certify import judge
from .hashing import hash_threshold, mix64
from .oracle import OracleConfig, SamplePrefixes
from .workload import INFERENCE, UNLEARNING, Request

SINGLE_CONTEXT = "single_context"
DOUBLE_CONTEXT = "double_context"
IMMEDIATE = "immediate"
UNCERT_TRIGGERED = "uncert_triggered"
THRESHOLD_TRIGGERED = "threshold_triggered"
RESPOND_UNCERTIFIED = "respond_uncertified"
POSTPONE = "postpone"

RETRAIN_ALL_PENDING = "retrain_all_pending"
RETRAIN_MINIMAL = "retrain_minimal"

VARIANT_TABLE = {
    "DIMP": (DOUBLE_CONTEXT, IMMEDIATE, POSTPONE),
    "SUTP": (SINGLE_CONTEXT, UNCERT_TRIGGERED, POSTPONE),
    "DUTP": (DOUBLE_CONTEXT, UNCERT_TRIGGERED, POSTPONE),
    "STTU": (SINGLE_CONTEXT, THRESHOLD_TRIGGERED, RESPOND_UNCERTIFIED),
    "DTTU": (DOUBLE_CONTEXT, THRESHOLD_TRIGGERED, RESPOND_UNCERTIFIED),
    "STTP": (SINGLE_CONTEXT, THRESHOLD_TRIGGERED, POSTPONE),
    "DTTP": (DOUBLE_CONTEXT, THRESHOLD_TRIGGERED, POSTPONE),
    "SISA": (SINGLE_CONTEXT, IMMEDIATE, POSTPONE),
}
VARIANT_NAMES = tuple(VARIANT_TABLE)

_SALT_DETECT = 0xD1
_SALT_SHUFFLE = 0xD2


@dataclass(frozen=True)
class MitigationConfig:
    """Defenses against hard-to-classify inference floods.

    The detector fires before inference with the given true/false positive
    rates (seeded, per request). The confidence threshold discards answers
    whose ensemble agreement is too low, re-checks included. Filtered
    requests are answered with a refusal and never feed the
    uncertification counters.
    """

    detector_enabled: bool = False
    detector_tpr: float = 1.0
    detector_fpr: float = 0.0
    confidence_threshold: float | None = None

    def __post_init__(self):
        for name in ("detector_tpr", "detector_fpr"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.confidence_threshold is not None and not (
            0.0 <= self.confidence_threshold <= 1.0
        ):
            raise ValueError("confidence_threshold must be in [0, 1]")


@dataclass(frozen=True)
class VariantConfig:
    """One of the eight named policies with its tunables; the name fixes
    the three design options (``VARIANT_TABLE``) and whether it certifies."""

    name: str
    threshold: float = 0.05
    parallel_capacity: int = 1
    retrain_policy: str = RETRAIN_ALL_PENDING
    cert_mode: str = "fine"
    mitigation: MitigationConfig | None = None
    shuffle_shards: bool = False
    context_switch_latency: float = 0.0

    def __post_init__(self):
        if self.name not in VARIANT_TABLE:
            raise ValueError(f"unknown variant {self.name!r}; choose from {VARIANT_NAMES}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.parallel_capacity < 1:
            raise ValueError("parallel_capacity must be a positive integer")
        if self.retrain_policy not in (RETRAIN_ALL_PENDING, RETRAIN_MINIMAL):
            raise ValueError(f"unknown retrain_policy {self.retrain_policy!r}")
        if self.cert_mode not in ("fine", "coarse", "disabled"):
            raise ValueError(f"unknown cert_mode {self.cert_mode!r}")
        if not (math.isfinite(self.context_switch_latency) and self.context_switch_latency >= 0):
            raise ValueError("context_switch_latency must be finite and >= 0")


# --- answers returned to the simulator ------------------------------------


@dataclass(slots=True)
class RequestRecord:
    """Terminal outcome of one inference request."""

    request_id: int
    arrival: float
    response: float
    wait: float
    verdict: str  # certified | uncertified | plain | refused_*
    label: int  # -1 for a refusal
    sample: int
    is_noise: bool
    versions: tuple  # () for a refusal
    hypothetical_versions: tuple  # () for a refusal


@dataclass
class _Eval:
    verdict: str  # the RequestRecord's verdict
    label: int  # -1 for a refusal
    preds: np.ndarray | None  # the judged row; None for a detector refusal


# outcomes of the control step
_ANSWER = "answer"
_WAIT = "wait"
_TRIGGER = "trigger"


class _Entry:
    __slots__ = ("request", "responded", "release_after", "hypothetical", "control_counted")

    def __init__(self, request):
        self.request = request
        self.responded = False
        # certification-free baseline only: answer once this many
        # retraining jobs have completed (= jobs outstanding at arrival),
        # claiming the hypothetical versions as of arrival
        self.release_after = 0
        self.hypothetical = None
        # threshold variants: this request already fed the window counters;
        # later drains reprocess it for response only, never re-counting it
        self.control_counted = False


class Scheduler:
    """Deterministic policy state machine for one simulation run."""

    def __init__(self, cfg: VariantConfig, oracle_cfg: OracleConfig, retrain_duration: float,
                 inference_service_time: float = 0.0):
        if not (math.isfinite(retrain_duration) and retrain_duration > 0):
            raise ValueError("retrain_duration must be positive and finite")
        if not (math.isfinite(inference_service_time) and inference_service_time >= 0):
            raise ValueError("inference_service_time must be finite and >= 0")
        self.cfg = cfg
        self.option_i, self.option_ii, self.option_iii = VARIANT_TABLE[cfg.name]
        self.certified = cfg.name != "SISA"
        self.certifying = self.certified and cfg.cert_mode != "disabled"
        self.oracle_cfg = oracle_cfg
        self.retrain_duration = retrain_duration
        self.service_time = inference_service_time
        k = oracle_cfg.num_shards
        self.num_shards = k
        self.num_classes = oracle_cfg.num_classes
        self.versions = np.zeros(k, dtype=np.int64)
        self.pending = np.zeros(k, dtype=np.int64)  # unlearning requests per shard
        self.covered = np.zeros(k, dtype=np.int64)  # pendings already claimed by scheduled jobs
        self.jobs_scheduled = np.zeros(k, dtype=np.int64)  # in-flight plus queued jobs per shard
        self.inflight: list = []  # heap of (completion, job id, shard, covered)
        self.queue = deque()  # (job id, shard, covered) waiting for a slot, FIFO
        self.backlog: list[_Entry] = []
        self.window_inferences = 0
        self.window_uncertified = 0
        self.judgements = 0
        self.judgements_uncertified = 0
        self.postponed = 0  # inferences that could not be answered on arrival
        self.jobs_created = 0  # also the id of the latest job
        self.retrainings_completed = 0
        self.uncertification_triggers = 0
        self.final_triggers = 0
        self._versions_tuple = tuple(self.versions.tolist())
        self._hypo_cache: tuple | None = None
        self._kept: dict = {}  # request id -> (request, state key, verdict)
        self._state_changed()
        self.prefixes = SamplePrefixes(oracle_cfg)  # filled ahead by the simulator, or lazily

    # -- state inspection --------------------------------------------------

    def busy(self) -> bool:
        return bool(self.inflight) or bool(self.queue)

    def next_completion(self) -> float | None:
        """When the next retraining job in flight completes, or ``None``."""
        return self.inflight[0][0] if self.inflight else None

    def quiet(self) -> bool:
        return not self.busy() and not self.backlog and not self.pending.any()

    def _hypothetical_versions(self) -> tuple:
        """Versions each shard will reach once all pending work executes."""
        if self._hypo_cache is None:
            hypo = self.versions + self.jobs_scheduled + (self.pending > self.covered)
            self._hypo_cache = tuple(hypo.tolist())
        return self._hypo_cache

    def _state_changed(self) -> None:
        self._hypo_cache = None
        # shards whose serving model lags behind their pending unlearning
        self._impacted = self.pending > 0
        self._key = self._state_key(self.versions, self._impacted)

    def _state_key(self, versions, impacted) -> bytes:
        # all a verdict depends on besides its request
        return versions.tobytes() + impacted.tobytes() if self.certifying else versions.tobytes()

    def _target(self, request: Request) -> int:
        """The shard an unlearning request lands on, remapped if shards are shuffled."""
        if self.cfg.shuffle_shards:
            return mix64(self.oracle_cfg.seed, _SALT_SHUFFLE, request.request_id) % self.num_shards
        return request.target_shard

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, entries, upcoming=None) -> list[_Eval]:
        """The entries' verdicts under the current state.

        A verdict kept for the same request under the current state key is
        reused. The rest are judged in one batch, together with the
        inferences ``upcoming`` offers, each under the state :meth:`_ahead`
        expects it to meet, and every verdict judged is kept under its key.
        Counting the judgements is left to the caller's per-entry loop
        (:meth:`_tally`), which may stop before the last entry.
        """
        evals = [self._kept_verdict(entry.request) for entry in entries]
        todo = [i for i, ev in enumerate(evals) if ev is None]
        if not todo:
            return evals
        requests, key = [entries[i].request for i in todo], self._key
        versions, impacted, keys = self.versions, self._impacted, [key] * len(todo)
        if upcoming is not None:
            ahead, states = self._ahead(upcoming)
            if ahead:
                requests += ahead
                states = [(versions, impacted, key)] * len(todo) + states
                versions, impacted, keys = zip(*states)
                versions, impacted = np.array(versions), np.array(impacted)
        fresh = self._judge(requests, versions, impacted)
        for request, k, ev in zip(requests, keys, fresh):
            self._kept[request.request_id] = (request, k, ev)
        for i, ev in zip(todo, fresh):
            evals[i] = ev
        return evals

    def _kept_verdict(self, request: Request) -> _Eval | None:
        """The verdict kept for this request object under the current state key."""
        hit = self._kept.get(request.request_id)
        if hit is not None and hit[0] is request and hit[1] == self._key:
            return hit[2]
        return None

    def _judge(self, requests, versions, impacted) -> list[_Eval]:
        """Judge the requests in one batch. ``versions`` and the impacted mask
        ``impacted`` are ``(K,)``, shared by every request, or ``(B, K)``."""
        # the certification-free baseline answers with the serving ensemble:
        # no mitigation, no certification, no judgement counted
        mit = self.cfg.mitigation if self.certified else None
        detect, seed = mit is not None and mit.detector_enabled, self.oracle_cfg.seed
        # the detector's hash bounds for a clean and for a noise request
        bounds = [hash_threshold(p) for p in (mit.detector_fpr, mit.detector_tpr)] if detect else []
        evals: list = [None] * len(requests)
        todo = []
        for i, request in enumerate(requests):
            if bounds and mix64(seed, _SALT_DETECT, request.request_id) < bounds[request.is_noise]:
                evals[i] = _Eval("refused_detected", -1, None)
            else:
                todo.append(i)
        if not todo:
            return evals
        if versions.ndim == 2 and len(todo) < len(requests):
            versions, impacted = versions[todo], impacted[todo]
        keys = [(requests[i].sample, requests[i].is_noise) for i in todo]
        preds = self.prefixes.predict(self.prefixes.rows(keys), versions)
        coarse = self.cfg.cert_mode == "coarse"
        certified, winner, top = judge(preds, impacted & self.certifying, self.num_classes, coarse)
        threshold = mit.confidence_threshold if mit is not None else None
        rows = zip(todo, preds, certified.tolist(), winner.tolist(), top.tolist())
        for i, row, ok, label, votes in rows:
            if threshold is not None and votes / self.num_shards < threshold:
                evals[i] = _Eval("refused_low_confidence", -1, row)
            elif not self.certifying:
                evals[i] = _Eval("plain", label, row)
            else:
                evals[i] = _Eval("certified" if ok else "uncertified", label, row)
        return evals

    def _ahead(self, upcoming):
        """``(inferences, states)`` of the requests ``upcoming`` offers.

        The walk replays the scheduler's own completions in order: the jobs
        in flight and, for an immediate variant, the jobs its unlearning
        arrivals start while capacity allows. ``states[i]``, the
        ``(versions, impacted mask, key)`` inference ``i`` is expected to be
        judged under, holds the serving versions at its arrival in double
        context and ``versions + jobs_scheduled``, where its halt ends, in
        single context. The walk stops at a completion that would start a
        queued job and at a target shard out of range. A trigger it cannot
        see only wastes verdicts: each is used only under its own key.
        """
        versions, pending = self.versions.copy(), self.pending.copy()
        scheduled, jobs, job_id = self.jobs_scheduled.copy(), self.inflight.copy(), self.jobs_created
        single = self.option_i == SINGLE_CONTEXT
        ahead, states, state = [], [], None
        for request in upcoming():
            if jobs and jobs[0][0] <= request.arrival:
                if self.queue:
                    break
                while jobs and jobs[0][0] <= request.arrival:
                    _, _, shard, covered = heapq.heappop(jobs)
                    versions[shard] += 1
                    scheduled[shard] -= 1
                    pending[shard] -= covered
                state = None
            if request.kind == INFERENCE:
                if state is None:
                    v, mask = versions + scheduled if single else versions.copy(), pending > 0
                    state = (v, mask, self._state_key(v, mask))
                ahead.append(request)
                states.append(state)
                continue
            shard = self._target(request)
            if not 0 <= shard < self.num_shards:
                break
            pending[shard] += 1
            if self.option_ii == IMMEDIATE:
                if len(jobs) >= self.cfg.parallel_capacity:
                    break
                job_id += 1
                heapq.heappush(jobs, (request.arrival + self.retrain_duration, job_id, shard, 1))
                scheduled[shard] += 1
            state = None
        return ahead, states

    def _tally(self, ev: _Eval) -> None:
        """Count one judgement the control or response plane acted on."""
        if ev.verdict in ("certified", "uncertified"):
            self.judgements += 1
            if ev.verdict == "uncertified":
                self.judgements_uncertified += 1

    def _answer(self, entry: _Entry, ev: _Eval, now: float) -> list[RequestRecord]:
        """Answer, or refuse, a judged request at ``now`` from the current
        state, once, and drop its kept verdict."""
        request = entry.request
        self._kept.pop(request.request_id, None)
        if entry.responded:
            return []
        entry.responded = True
        response = now + self.service_time
        if ev.label < 0:  # a refusal
            versions = hypothetical = ()
        else:
            versions = self._versions_tuple
            hypothetical = entry.hypothetical or self._hypothetical_versions()
        return [RequestRecord(request.request_id, request.arrival, response,
                              response - request.arrival, ev.verdict, ev.label, request.sample,
                              request.is_noise, versions, hypothetical)]

    def _respond(self, entries, evals, now: float) -> list[RequestRecord]:
        """Response plane: count the verdict of each entry not yet answered
        and answer it, or refuse it, unless it is uncertified."""
        actions = []
        for entry, ev in zip(entries, evals):
            if not entry.responded:
                self._tally(ev)
                if ev.verdict != "uncertified":
                    actions += self._answer(entry, ev, now)
        return actions

    def _control(self, entry: _Entry, ev: _Eval) -> str:
        """Control-plane decision for one judged request: answer, wait or trigger.

        Feeds the threshold window, once per request; refused requests
        never count toward it.
        """
        if ev.label < 0:  # a refusal
            return _ANSWER
        threshold = self.option_ii == THRESHOLD_TRIGGERED
        if threshold and entry.control_counted:
            # reprocessing of an already-counted request: answer if the
            # fresh state certifies it, otherwise keep waiting
            return _WAIT if ev.verdict == "uncertified" else _ANSWER
        if threshold:
            self.window_inferences += 1
        if ev.verdict != "uncertified":
            return _ANSWER
        if self.option_ii == IMMEDIATE:
            return _WAIT
        if self.option_ii == UNCERT_TRIGGERED:
            return _TRIGGER
        self.window_uncertified += 1
        entry.control_counted = True
        if self.window_uncertified > self.cfg.threshold * self.window_inferences:
            return _TRIGGER
        if self.option_iii == RESPOND_UNCERTIFIED:
            return _ANSWER
        return _WAIT

    # -- retraining job plumbing ----------------------------------------------

    def _start_or_enqueue(self, shard: int, covered: int, now: float, delay: float = 0.0) -> None:
        """Create a retraining of ``shard`` that clears its ``covered`` oldest
        pending requests; it starts after ``delay`` unless every slot is taken."""
        self.jobs_created += 1
        self.covered[shard] += covered
        self.jobs_scheduled[shard] += 1
        self._hypo_cache = None
        job = (self.jobs_created, shard, covered)
        if len(self.inflight) < self.cfg.parallel_capacity:
            self._start(job, now + delay)
        else:
            self.queue.append(job)

    def _start(self, job: tuple, now: float) -> None:
        heapq.heappush(self.inflight, (now + self.retrain_duration, *job))

    # -- arrival handling -------------------------------------------------------

    def on_unlearning_arrival(self, request: Request, now: float) -> list[RequestRecord]:
        if request.kind != UNLEARNING:
            raise ValueError(f"expected an unlearning request, got {request.kind}")
        shard = self._target(request)
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"target shard {shard} outside [0, {self.num_shards})")
        self.pending[shard] += 1
        self._state_changed()
        if self.option_ii == IMMEDIATE:
            # one retraining per request, even when the shard already has jobs
            self._start_or_enqueue(shard, 1, now)
        return []

    def on_inference_arrival(self, request: Request, now: float,
                             upcoming=tuple) -> list[RequestRecord]:
        """Handle one inference arrival. ``upcoming``, a hint, returns the requests
        expected next, unlearning ones included. On a miss, the inferences among
        them are judged in one batch with this one, each under the state it is
        expected to meet, and kept with that state's key; a kept verdict is used
        only under its own key, so the hint never changes a decision."""
        if request.kind != INFERENCE:
            raise ValueError(f"expected an inference request, got {request.kind}")
        entry, busy = _Entry(request), self.busy()
        if busy and self.option_i == SINGLE_CONTEXT:
            # halt. A certifying variant answers once a re-judgement passes;
            # SISA certifies nothing, so only release_after tells it when its
            # answer is sound: it is unlearning-request-first, waits for every
            # retraining that predates this request, not later ones, and
            # claims to have forgotten exactly what arrived before it
            entry.release_after = self.jobs_created
            if not self.certified:
                entry.hypothetical = self._hypothetical_versions()
            self.backlog.append(entry)
            return []
        ev = self._kept_verdict(request)
        if ev is None:
            (ev,) = self._evaluate([entry], upcoming)
        if busy and self.option_ii != IMMEDIATE:
            # mid-update: answer what we soundly can; counting waits for
            # the control pass at update completion
            self.backlog.append(entry)
            actions = self._respond([entry], [ev], now)
            self.postponed += not actions
            return actions
        self._tally(ev)
        step = self._control(entry, ev)
        if step == _ANSWER:
            return self._answer(entry, ev, now)
        self.backlog.append(entry)
        self.postponed += 1
        if step == _TRIGGER:
            self.trigger_update(now, ev)
        return []

    # -- retraining completion -----------------------------------------------

    def on_retraining_complete(self, now: float) -> list[RequestRecord]:
        """Complete the job in flight that is due at ``now``, the lowest job id
        first at a tie, and start the oldest queued job in its slot."""
        if self.next_completion() != now:
            raise RuntimeError(f"no retraining job completes at {now}")
        _, _, shard, covered = heapq.heappop(self.inflight)
        self.versions[shard] += 1
        self._versions_tuple = tuple(self.versions.tolist())
        self.pending[shard] -= covered
        self.covered[shard] -= covered
        self.jobs_scheduled[shard] -= 1
        self._state_changed()
        self.retrainings_completed += 1
        if self.queue:
            self._start(self.queue.popleft(), now)
        if not self.certified:
            # jobs finish in creation order, so an entry is safe to answer once
            # the completion count reaches the jobs outstanding at its arrival
            done = self.retrainings_completed
            entries = [e for e in self.backlog if e.release_after <= done]
            self.backlog = [e for e in self.backlog if e.release_after > done]
            return self._respond(entries, self._evaluate(entries), now)
        idle = not self.busy()
        if not idle and self.option_i == SINGLE_CONTEXT:
            return []
        # one judgement of the entries this completion acts on: the response
        # plane's re-check, then the control pass once the update is over
        entries = self.backlog if idle else [e for e in self.backlog if not e.responded]
        evals = self._evaluate(entries)
        actions = self._respond(entries, evals, now) if self.option_i == DOUBLE_CONTEXT else []
        if idle:
            self.window_inferences = 0
            self.window_uncertified = 0
            actions += self._drain(entries, evals, now)
        return actions

    def _drain(self, entries, evals, now: float) -> list[RequestRecord]:
        """Control pass over the backlog, judged as ``evals``, at a completion
        that leaves the scheduler idle, the final update's last one included."""
        actions: list = []
        remaining: list[_Entry] = []
        for i, (entry, ev) in enumerate(zip(entries, evals)):
            self._tally(ev)
            step = self._control(entry, ev)
            if step == _ANSWER:
                actions += self._answer(entry, ev, now)
                continue
            remaining.append(entry)
            if step == _TRIGGER:
                # the rest of the backlog rides along to the next update
                self.backlog = remaining + entries[i + 1 :]
                self.trigger_update(now, ev)
                if self.option_i == DOUBLE_CONTEXT:
                    # the trigger keeps the state key, so each waiting entry is
                    # still uncertified: this re-check answers none, only re-counts
                    actions += self._respond(entries, evals, now)
                return actions
        self.backlog = remaining
        return actions

    # -- update triggering -----------------------------------------------------

    def trigger_update(self, now: float, trigger_ev=None) -> None:
        """Batch-retrain every shard with pending unlearning requests.

        ``trigger_ev`` is the judgement that failed; without one this is the
        final update that executes the leftovers at shutdown.
        """
        if self.busy():
            raise RuntimeError("update triggered while retraining is in progress")
        candidates = np.flatnonzero(self._impacted).tolist()
        if not candidates:
            return
        chosen = candidates
        if trigger_ev is None:
            self.final_triggers += 1
        else:
            self.uncertification_triggers += 1
            if self.cfg.retrain_policy == RETRAIN_MINIMAL:
                chosen = self._minimal_shard_set(candidates, trigger_ev)
        delay = (
            self.cfg.context_switch_latency
            if self.option_i == SINGLE_CONTEXT
            else 0.0
        )
        for k in chosen:
            self._start_or_enqueue(k, int(self.pending[k]), now, delay)

    def _minimal_shard_set(self, candidates, trigger_ev) -> list:
        # most-loaded shards first; retrain just enough that the triggering
        # sample would certify, topped up to the parallel capacity
        order = sorted(candidates, key=lambda k: (-self.pending[k], k))
        need = len(order)
        rest = self.pending > 0
        for j, k in enumerate(order, start=1):
            rest[k] = False
            if judge(trigger_ev.preds[None, :], rest, self.num_classes)[0][0]:
                need = j
                break
        take = min(max(need, self.cfg.parallel_capacity), len(order))
        return sorted(order[:take])

    # -- shutdown ---------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Start the final update at the end of the workload; answer nothing.

        The serving period ends with every pending request actually
        unlearned, so schedulers that batch lazily still pay for their
        leftovers. An idle scheduler with nothing pending has an empty
        backlog: a control pass leaves only uncertified entries there, and
        an uncertified verdict needs a pending request. So once the final
        update's last job completes, its control pass answers every
        postponed inference.
        """
        if not self.busy() and self.pending.any():
            self.trigger_update(now)
