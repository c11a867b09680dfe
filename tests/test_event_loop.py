"""The event loop against a reference loop with one heap and no lookahead.

``run`` keeps the workload's requests in one sorted list, asks the
scheduler, which owns its retraining jobs, when the next one completes,
and offers it each run of inference arrivals to judge in one batch. The
reference below keeps every event on one heap of its own, ordered by
(time, kind priority, sequence): after each call it pushes the completion
of every job that call started, read from ``sched.inflight`` in job id
order, and checks that each completion it pops is the job the scheduler
completes. It feeds the same ``Scheduler`` one event at a time with no
hint. It counts an inference as postponed when its arrival gets no answer
and did not halt. Of each answer it takes only the request id, verdict and
label: it rebuilds the rest from the request and the event's time, and
the versions and hypothetical versions from the scheduler's state with
no cache; a SISA answer to a
halted inference claims the hypothetical versions taken before its
arrival. Both must return equal ``Metrics``, every ``RequestRecord``
included.
"""

import dataclasses
import heapq
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eraser.ensemble import predict_label
from eraser.hashing import mix64
from eraser.oracle import OracleConfig, PredictionTrace, predict, sample_for
from eraser.scheduler import (
    SINGLE_CONTEXT,
    VARIANT_NAMES,
    VARIANT_TABLE,
    MitigationConfig,
    Scheduler,
    VariantConfig,
)
from eraser.simulator import Metrics, RequestRecord, SimParams, replay_privacy_check, run
from eraser.workload import INFERENCE, UNLEARNING, Request, WorkloadSpec, generate


def _hypothetical(sched):
    # each shard's version once its scheduled jobs and uncovered pending run
    rows = zip(sched.versions.tolist(), sched.jobs_scheduled.tolist(),
               sched.pending.tolist(), sched.covered.tolist())
    return tuple(v + jobs + (pending > covered) for v, jobs, pending, covered in rows)


def reference_run(workload, variant, oracle_cfg, params):
    """Every event on one heap, fed one at a time; completions first at a tie."""
    sched = Scheduler(variant, oracle_cfg, params.retrain_duration)
    heap = [(r.arrival, 1 if r.kind == UNLEARNING else 2, seq, r) for seq, r in enumerate(workload)]
    heapq.heapify(heap)
    seq, now, records, postponed = len(workload), 0.0, [], 0
    single = VARIANT_TABLE[variant.name][0] == SINGLE_CONTEXT
    started = set()  # ids of the jobs whose completion is on the heap
    halted = {}  # SISA: request id -> hypothetical versions at arrival
    arrived = {r.request_id: r for r in workload}

    def apply(answers):
        nonlocal seq
        # the fact shutdown rests on: an idle scheduler with nothing pending
        # has an empty backlog
        assert sched.busy() or sched.pending.any() or not sched.backlog
        for t, job_id, _, _ in sorted(sched.inflight, key=lambda job: job[1]):
            if job_id not in started:
                started.add(job_id)
                heapq.heappush(heap, (t, 0, seq, job_id))
                seq += 1
        for act in answers:
            assert isinstance(act, RequestRecord)
            req, response = arrived[act.request_id], now + params.inference_service_time
            refused = act.verdict.startswith("refused")
            hypo = halted.pop(req.request_id, None) or _hypothetical(sched)
            records.append(RequestRecord(
                req.request_id, req.arrival, response, response - req.arrival,
                act.verdict, -1 if refused else act.label, req.sample, req.is_noise,
                () if refused else tuple(sched.versions.tolist()),
                () if refused else hypo,
            ))

    def drain():
        nonlocal now, postponed
        while heap:
            now, prio, _, payload = heapq.heappop(heap)
            if prio == 0:
                apply(sched.on_retraining_complete(now))
                assert payload not in {job_id for _, job_id, _, _ in sched.inflight}
            elif prio == 1:
                apply(sched.on_unlearning_arrival(payload, now))
            else:
                halts, hypo = single and sched.busy(), _hypothetical(sched)
                answers = sched.on_inference_arrival(payload, now)
                if not answers and halts and variant.name == "SISA":
                    halted[payload.request_id] = hypo
                elif not answers and not halts:
                    postponed += 1
                apply(answers)

    drain()
    now = max(now, params.horizon)
    sched.finalize(now)
    apply([])
    drain()
    assert sched.quiet()

    waits = np.asarray([rec.wait for rec in records])  # in response order, as run() sums them
    awt, p50, p95, p99 = (
        (float(waits.mean()), *(float(x) for x in np.percentile(waits, [50, 95, 99])))
        if records else (0.0, 0.0, 0.0, 0.0)
    )
    n_inferences = sum(r.kind == INFERENCE for r in workload)
    return Metrics(
        awt=awt, nor=sched.retrainings_completed,
        uncertified_responses=sum(rec.verdict == "uncertified" for rec in records),
        postponed_count=postponed,
        refused_count=sum(rec.verdict.startswith("refused") for rec in records),
        p50=p50, p95=p95, p99=p99,
        p_uc=sched.judgements_uncertified / sched.judgements if sched.judgements else 0.0,
        judgements=sched.judgements, judgements_uncertified=sched.judgements_uncertified,
        uncertification_triggers=sched.uncertification_triggers,
        final_triggers=sched.final_triggers,
        num_inferences=n_inferences, num_unlearnings=len(workload) - n_inferences,
        per_request_log=sorted(records, key=lambda rec: rec.request_id),
    )


def assert_same_as_reference(workload, variant, oracle_cfg, params):
    got = run(workload, variant, oracle_cfg, params)
    want = reference_run(workload, variant, oracle_cfg, params)
    assert len(got.per_request_log) == got.num_inferences
    for field in Metrics.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), field
    return got


K, C = 8, 3
WORKLOAD = generate(WorkloadSpec(30, 300, 30.0, seed=5, noise_fraction=0.3), K)


def _trace_oracle():
    # every (sample, shard, version) the workload can reach, labels from a hash
    top = 31  # a shard reaches at most one version per unlearning request
    entries = {
        (s, k, v): mix64(11, s, k, v) % C
        for s in range(300) for k in range(K) for v in range(top)
    }
    return OracleConfig(C, K, 0.7, seed=3, trace=PredictionTrace(C, K, entries))


# name -> (variant overrides, oracle overrides, inference_service_time)
OPTION_PATHS = {
    "default": ({}, {}, 0.0),
    "detector": ({"mitigation": MitigationConfig(True, 0.8, 0.1)}, {}, 0.0),
    "confidence_threshold": ({"mitigation": MitigationConfig(confidence_threshold=0.5)}, {}, 0.0),
    "cert_coarse": ({"cert_mode": "coarse"}, {}, 0.0),
    "cert_disabled": ({"cert_mode": "disabled"}, {}, 0.0),
    "retrain_minimal": ({"retrain_policy": "retrain_minimal"}, {}, 0.0),
    "context_switch_latency": ({"context_switch_latency": 0.5}, {}, 0.0),
    "shuffle_shards": ({"shuffle_shards": True}, {}, 0.0),
    "flip_probability": ({}, {"flip_probability": 0.2}, 0.0),
    "trace_backend": ({}, None, 0.0),
    "inference_service_time": ({}, {}, 0.3),
}


@pytest.mark.parametrize("path", sorted(OPTION_PATHS))
def test_every_variant_matches_the_reference_loop(path):
    overrides, oracle_overrides, service = OPTION_PATHS[path]
    oracle_cfg = (
        _trace_oracle() if oracle_overrides is None
        else OracleConfig(C, K, 0.7, seed=3, **oracle_overrides)
    )
    params = SimParams(1.0, 30.0, inference_service_time=service)
    for name in VARIANT_NAMES:
        variant = VariantConfig(name, parallel_capacity=3, threshold=0.1, **overrides)
        assert_same_as_reference(WORKLOAD, variant, oracle_cfg, params)


def u(rid, shard, t):
    return Request(UNLEARNING, t, rid, target_shard=shard)


def q(rid, sample, t):
    return Request(INFERENCE, t, rid, sample=sample)


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_ties_with_completions_and_unlearning_arrivals(name):
    # DIMP's and SISA's retraining of shard 1 completes at exactly 1.0, when
    # request 3 arrives; request 5 arrives with an unlearning for shard 2 at
    # 2.0 and is listed first. Completions go first at a tie, then
    # unlearning arrivals, so a run of arrivals never spans either.
    workload = [u(0, 1, 0.0), q(1, 4, 0.5), q(2, 5, 0.75), q(3, 6, 1.0), q(4, 7, 1.0),
                q(5, 8, 2.0), u(6, 2, 2.0), q(7, 9, 2.0), q(8, 10, 2.5)]
    oracle_cfg = OracleConfig(2, 3, 1.0, seed=1)
    params = SimParams(1.0, 3.0)
    variant = VariantConfig(name, parallel_capacity=3)
    assert_same_as_reference(workload, variant, oracle_cfg, params)
    log = {rec.request_id: rec for rec in run(workload, variant, oracle_cfg, params).per_request_log}
    if name in ("DIMP", "SISA"):
        assert log[3].response == 1.0 and log[3].versions[1] == 1
    assert log[5].hypothetical_versions[2] == 1  # shard 2's unlearning came first


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_reused_samples_and_sparse_request_ids_match_the_reference_loop(name):
    # five sample ids, each arriving both as noise and clean, under request
    # ids that skip and run backwards: run() fills its prediction prefixes
    # ahead from the whole workload, the reference as each sample arrives
    workload = [
        u(10_000 - 37 * i, i % K, 0.15 * i) if i % 9 == 4
        else Request(INFERENCE, 0.15 * i, 10_000 - 37 * i, sample=i % 5, is_noise=i // 5 % 2 == 1)
        for i in range(200)
    ]
    oracle_cfg = OracleConfig(C, K, 0.7, seed=3)
    variant = VariantConfig(name, parallel_capacity=3, threshold=0.1)
    params = SimParams(1.0, 30.0)
    assert_same_as_reference(workload, variant, oracle_cfg, params)
    # and every answer is the plurality of the per-shard predictions
    for rec in run(workload, variant, oracle_cfg, params).per_request_log:
        sample = sample_for(oracle_cfg, rec.sample, rec.is_noise)
        preds = [predict(oracle_cfg, sample, k, v) for k, v in enumerate(rec.versions)]
        assert rec.label == predict_label(preds, C)


_VARIANT_KNOBS = st.fixed_dictionaries({
    "cert_mode": st.sampled_from(["fine", "coarse", "disabled"]),
    "retrain_policy": st.sampled_from(["retrain_all_pending", "retrain_minimal"]),
    "threshold": st.sampled_from([0.0, 0.1, 0.5]),
    "shuffle_shards": st.booleans(),
    "context_switch_latency": st.sampled_from([0.0, 0.5, 2.0]),
    "mitigation": st.sampled_from([
        None, MitigationConfig(True, 0.8, 0.2), MitigationConfig(confidence_threshold=0.6),
    ]),
})


@st.composite
def _configs(draw):
    k = draw(st.integers(1, 12))
    horizon = draw(st.sampled_from([4.0, 10.0, 20.0]))
    # whole-number times and durations make arrivals tie with completions
    n = draw(st.integers(0, 60))
    events = draw(st.lists(
        st.tuples(st.integers(0, int(horizon)), st.booleans(), st.integers(0, 30)),
        min_size=n, max_size=n,
    ))
    events.sort(key=lambda e: e[0])  # stable: equal times keep the drawn kind order
    workload = [
        u(rid, sample % k, float(t)) if unlearn else q(rid, sample, float(t))
        for rid, (t, unlearn, sample) in enumerate(events)
    ]
    variant = VariantConfig(
        draw(st.sampled_from(VARIANT_NAMES)),
        parallel_capacity=draw(st.integers(1, k)), **draw(_VARIANT_KNOBS),
    )
    oracle_cfg = OracleConfig(
        draw(st.integers(2, 4)), k, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        seed=draw(st.integers(0, 50)),
        flip_probability=draw(st.sampled_from([None, 0.3])),
    )
    params = SimParams(
        draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])), horizon,
        inference_service_time=draw(st.sampled_from([0.0, 0.25])),
    )
    return workload, variant, oracle_cfg, params


# single- and double-context twins: the same triggers, so the same retrainings
_TWINS = {"SUTP": "DUTP", "STTU": "DTTU", "STTP": "DTTP"}
_TWINS.update({double: single for single, double in _TWINS.items()})


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_random_small_configs_match_the_reference_loop(config):
    """Random configs match the reference loop, audit clean wherever the
    answers claim to be authoritative, and retrain as often as their twin.

    The twins may differ when ``context_switch_latency`` is above 0: only the
    single-context twin delays its updates by it, so later arrivals meet a
    different retraining state.
    """
    workload, variant, oracle_cfg, params = config
    got = assert_same_as_reference(*config)
    if variant.name == "SISA" or variant.cert_mode != "disabled":
        assert replay_privacy_check(got.per_request_log, oracle_cfg) == 0
    threshold = variant.mitigation and variant.mitigation.confidence_threshold
    if threshold is not None:
        for rec in got.per_request_log:
            if rec.verdict in ("certified", "uncertified"):
                sample = sample_for(oracle_cfg, rec.sample, rec.is_noise)
                votes = Counter(predict(oracle_cfg, sample, k, v) for k, v in enumerate(rec.versions))
                assert max(votes.values()) / oracle_cfg.num_shards >= threshold
    if variant.name in _TWINS and variant.context_switch_latency == 0:
        twin = dataclasses.replace(variant, name=_TWINS[variant.name])
        assert run(workload, twin, oracle_cfg, params, collect_log=False).nor == got.nor
