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
certified, refused, or answered-uncertified. It feeds the threshold
window once, on its first control step (``_Entry.control_counted``);
later control passes only decide whether to answer it. The completions
that re-judge a waiting request re-count it in ``judgements`` alone, the
tally behind ``p_uc``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

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

# requests the lookahead walks: the floor after a wasted verdict, and the cap
# that bounds a batch's stacked (B, K) arrays
_RUN_FLOOR = 64
_RUN_CAP = 1024


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


@dataclass(slots=True)
class _Eval:
    verdict: str  # the RequestRecord's verdict
    label: int  # -1 for a refusal


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
        self._kept: dict = {}  # the latest walk's: request id -> (request, state key, verdict)
        self._run = _RUN_FLOOR  # requests the lookahead walks, set by _walk
        self._state_changed()
        self.prefixes = SamplePrefixes(oracle_cfg)  # filled lazily unless the simulator sets one

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

    def _evaluate(self, entries) -> list[_Eval]:
        """The entries' verdicts under the current state: a verdict kept for
        the same request under the current state key is reused, the rest are
        judged in one batch and kept nowhere. Counting the judgements is left
        to the caller's per-entry loop (:meth:`_tally`), which may stop before
        the last entry.
        """
        evals = [self._kept_verdict(entry.request) for entry in entries]
        todo = [i for i, ev in enumerate(evals) if ev is None]
        if todo:
            fresh = self._judge([entries[i].request for i in todo], self.versions, self._impacted)
            for i, ev in zip(todo, fresh):
                evals[i] = ev
        return evals

    def _walk(self, request: Request, upcoming) -> _Eval:
        """The verdict of an arrival with none kept under the current state
        key, judged in one batch with the inferences :meth:`_ahead` walks to,
        each under the state it is expected to meet (each state stacked once,
        gathered by row). Their verdicts replace the kept ones; the arrival's
        is not kept. The walk is ``_RUN_FLOOR`` long again when the last one
        reached this request, a trigger it could not see having wasted its
        verdict, and otherwise twice the last, up to ``_RUN_CAP``."""
        self._run = _RUN_FLOOR if request.request_id in self._kept else min(2 * self._run, _RUN_CAP)
        ahead, states, state_of = self._ahead(upcoming)
        keys = [states[i][2] for i in state_of]
        versions, impacted = self.versions, self._impacted
        if ahead:
            at = np.array([len(states), *state_of], dtype=np.intp)  # the arrival's state goes last
            states.append((versions, impacted, self._key))
            versions, impacted, _ = zip(*states)
            versions, impacted = np.array(versions).take(at, 0), np.array(impacted).take(at, 0)
        ev, *fresh = self._judge([request, *ahead], versions, impacted)
        self._kept = {r.request_id: (r, key, e) for r, key, e in zip(ahead, keys, fresh)}
        return ev

    def _kept_verdict(self, request: Request) -> _Eval | None:
        """The verdict kept for this request object under the current state key."""
        hit = self._kept.get(request.request_id)
        if hit is not None and hit[0] is request and hit[1] == self._key:
            return hit[2]
        return None

    def _judge(self, requests, versions, impacted) -> list[_Eval]:
        """Judge the requests in one batch. ``versions`` and the impacted mask
        ``impacted`` are ``(K,)``, shared by every request, or ``(B, K)``. The
        verdicts take one pass over the outcome arrays; only an enabled
        detector or a confidence threshold adds one."""
        # the certification-free baseline answers with the serving ensemble:
        # no mitigation, no certification, no judgement counted
        mit = self.cfg.mitigation if self.certified else None
        judged = requests
        if mit is not None and mit.detector_enabled:
            # the detector's hash bounds for a clean and for a noise request
            bounds = [hash_threshold(p) for p in (mit.detector_fpr, mit.detector_tpr)]
            seed = self.oracle_cfg.seed
            todo = [i for i, r in enumerate(requests)
                    if mix64(seed, _SALT_DETECT, r.request_id) >= bounds[r.is_noise]]
            if not todo:
                return [_Eval("refused_detected", -1) for _ in requests]
            if versions.ndim == 2:
                versions, impacted = versions[todo], impacted[todo]
            judged = [requests[i] for i in todo]
        preds = self.prefixes.predict(self._rows(judged), versions)
        coarse = self.cfg.cert_mode == "coarse"
        certified, winner, top = judge(preds, impacted & self.certifying, self.num_classes, coarse)
        names = ("uncertified", "certified") if self.certifying else ("plain", "plain")
        verdicts = map(names.__getitem__, certified.tolist())
        labels = winner.tolist()
        threshold = mit.confidence_threshold if mit is not None else None
        if threshold is not None:
            low = (top / self.num_shards < threshold).tolist()
            verdicts = ["refused_low_confidence" if no else v for v, no in zip(verdicts, low)]
            labels = [-1 if no else label for label, no in zip(labels, low)]
        fresh = list(map(_Eval, verdicts, labels))
        if judged is requests:
            return fresh
        evals = [_Eval("refused_detected", -1) for _ in requests]
        for i, ev in zip(todo, fresh):
            evals[i] = ev
        return evals

    def _rows(self, requests) -> np.ndarray:
        """The requests' rows in the prediction prefix table."""
        return self.prefixes.rows([2 * r.sample + r.is_noise for r in requests])

    def _ahead(self, upcoming):
        """``(inferences, states, state_of)`` of the first ``_run`` requests
        ``upcoming`` offers (:meth:`_walk` sets that length).

        A fork of the scheduler runs the event loop's transitions on its own
        copies of the fields they change in place: :meth:`_complete` for every
        job due by an arrival, queued jobs included, and :meth:`_unlearn` for
        an unlearning arrival. ``states[state_of[i]]``, the ``(versions,
        impacted mask, key)`` inference ``i`` is expected to be judged under,
        holds the serving versions at its arrival in double context and
        ``versions + jobs_scheduled``, where its halt ends, in single context;
        ``states`` lists each state between two transitions once. The walk
        stops at a target shard out of range. A trigger it cannot see only
        wastes verdicts, each used only under its own key.
        """
        fork = object.__new__(type(self))  # copy.copy(self), at a quarter of its cost
        fork.__dict__.update(self.__dict__)
        for name in ("versions", "pending", "covered", "jobs_scheduled", "inflight", "queue"):
            setattr(fork, name, getattr(self, name).copy())
        single = self.option_i == SINGLE_CONTEXT
        ahead, states, state_of, moved = [], [], [], True
        for request in islice(upcoming(), self._run):
            while fork.inflight and fork.inflight[0][0] <= request.arrival:
                fork._complete(fork.inflight[0][0])
                moved = True
            if request.kind == INFERENCE:
                if moved:
                    v = fork.versions + fork.jobs_scheduled if single else fork.versions.copy()
                    mask = fork.pending > 0
                    states.append((v, mask, self._state_key(v, mask)))
                    moved = False
                ahead.append(request)
                state_of.append(len(states) - 1)
                continue
            shard = self._target(request)
            if not 0 <= shard < self.num_shards:
                break
            fork._unlearn(shard, request.arrival)
            moved = True
        return ahead, states, state_of

    def _tally(self, ev: _Eval) -> None:
        """Count one judgement the control or response plane acted on."""
        if ev.verdict in ("certified", "uncertified"):
            self.judgements += 1
            if ev.verdict == "uncertified":
                self.judgements_uncertified += 1

    def _answer(self, entry: _Entry, ev: _Eval, now: float) -> list[RequestRecord]:
        """Answer, or refuse, a judged request at ``now`` from the current
        state, once."""
        request = entry.request
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

    def _complete(self, now: float) -> None:
        """Complete the job in flight due at ``now``, the lowest job id first
        at a tie, and start the oldest queued job in its slot."""
        _, _, shard, covered = heapq.heappop(self.inflight)
        self.versions[shard] += 1
        self.pending[shard] -= covered
        self.covered[shard] -= covered
        self.jobs_scheduled[shard] -= 1
        self.retrainings_completed += 1
        if self.queue:
            self._start(self.queue.popleft(), now)

    def _unlearn(self, shard: int, now: float) -> None:
        """Take an unlearning request for ``shard``; an immediate variant retrains it at once."""
        self.pending[shard] += 1
        if self.option_ii == IMMEDIATE:
            # one retraining per request, even when the shard already has jobs
            self._start_or_enqueue(shard, 1, now)

    # -- arrival handling -------------------------------------------------------

    def on_unlearning_arrival(self, request: Request, now: float) -> list[RequestRecord]:
        if request.kind != UNLEARNING:
            raise ValueError(f"expected an unlearning request, got {request.kind}")
        shard = self._target(request)
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"target shard {shard} outside [0, {self.num_shards})")
        self._unlearn(shard, now)
        self._state_changed()
        return []

    def on_inference_arrival(self, request: Request, now: float,
                             upcoming=tuple) -> list[RequestRecord]:
        """Handle one inference arrival. ``upcoming``, a hint, returns an iterable
        of the requests expected next, unlearning ones included, which may run to
        the end of the workload. An arrival with no verdict kept under the
        current state key walks them (:meth:`_walk`): the inferences among the
        first ``_run`` are judged in one batch with this one, each under the
        state it is expected to meet, and kept with that state's key until the
        next walk; a kept verdict is used only under its own key, so the hint
        never changes a decision."""
        if request.kind != INFERENCE:
            raise ValueError(f"expected an inference request, got {request.kind}")
        entry, busy = _Entry(request), self.busy()
        if busy and self.option_i == SINGLE_CONTEXT:
            # halt. A certifying variant answers once a re-judgement passes;
            # SISA certifies nothing, so only release_after tells it when its
            # answer is sound: it is unlearning-request-first, waits for every
            # retraining that predates this request, not later ones, and
            # claims to have forgotten exactly what arrived before it
            if not self.certified:
                entry.release_after = self.jobs_created
                entry.hypothetical = self._hypothetical_versions()
            self.backlog.append(entry)
            return []
        ev = self._kept_verdict(request)
        if ev is None:
            ev = self._walk(request, upcoming)
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
            self.trigger_update(now, request)
        return []

    # -- retraining completion -----------------------------------------------

    def on_retraining_complete(self, now: float) -> list[RequestRecord]:
        """Run the completion due at ``now`` (:meth:`_complete`), then act on the backlog."""
        if self.next_completion() != now:
            raise RuntimeError(f"no retraining job completes at {now}")
        self._complete(now)
        self._versions_tuple = tuple(self.versions.tolist())
        self._state_changed()
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
                self.trigger_update(now, entry.request)
                if self.option_i == DOUBLE_CONTEXT:
                    # the trigger keeps the state key, so each waiting entry is
                    # still uncertified: this re-check answers none, only re-counts
                    actions += self._respond(entries, evals, now)
                return actions
        self.backlog = remaining
        return actions

    # -- update triggering -----------------------------------------------------

    def trigger_update(self, now: float, trigger: Request | None = None) -> None:
        """Batch-retrain every shard with pending unlearning requests.

        ``trigger`` is the inference whose judgement under the current state
        failed; without one this is the final update that executes the
        leftovers at shutdown.
        """
        if self.busy():
            raise RuntimeError("update triggered while retraining is in progress")
        candidates = np.flatnonzero(self._impacted).tolist()
        if not candidates:
            return
        chosen = candidates
        if trigger is None:
            self.final_triggers += 1
        else:
            self.uncertification_triggers += 1
            if self.cfg.retrain_policy == RETRAIN_MINIMAL:
                chosen = self._minimal_shard_set(candidates, trigger)
        delay = (
            self.cfg.context_switch_latency
            if self.option_i == SINGLE_CONTEXT
            else 0.0
        )
        for k in chosen:
            self._start_or_enqueue(k, int(self.pending[k]), now, delay)

    def _minimal_shard_set(self, candidates, trigger: Request) -> list:
        # most-loaded shards first; retrain just enough that the triggering
        # sample would certify, topped up to the parallel capacity. Its row is
        # predicted again under the serving versions, the state it was judged in
        order = sorted(candidates, key=lambda k: (-self.pending[k], k))
        need = len(order)
        rest = self.pending > 0
        preds = self.prefixes.predict(self._rows([trigger]), self.versions)
        for j, k in enumerate(order, start=1):
            rest[k] = False
            if judge(preds, rest, self.num_classes)[0][0]:
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
