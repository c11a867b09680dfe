import dataclasses
import math

import numpy as np
import pytest

from eraser import simulator
from eraser.ensemble import predict_label
from eraser.oracle import OracleConfig, PredictionTrace, predict, sample_for
from eraser.simulator import (
    RequestRecord,
    SimParams,
    replay_privacy_check,
    run,
)
from eraser import scheduler
from eraser.scheduler import MitigationConfig, Scheduler, VariantConfig
from eraser.workload import Request, WorkloadSpec, generate


def oc(K=3, C=2, accuracy=1.0, seed=1, **kw):
    return OracleConfig(C, K, accuracy, seed=seed, **kw)


def u(rid, shard, t):
    return Request("unlearning", t, rid, target_shard=shard)


def q(rid, sample, t, noise=False):
    return Request("inference", t, rid, sample=sample, is_noise=noise)


def test_empty_workload():
    m = run([], VariantConfig("SISA", parallel_capacity=3), oc(), SimParams(5.0, 10.0))
    assert m.awt == 0.0 and m.nor == 0 and m.num_inferences == 0


def test_sisa_halts_until_prior_retraining_finishes():
    wl = [u(0, 1, 0.0), q(1, 0, 2.0)]
    m = run(wl, VariantConfig("SISA", parallel_capacity=3), oc(), SimParams(5.0, 10.0))
    assert m.awt == pytest.approx(3.0)
    assert m.nor == 1
    rec = m.per_request_log[0]
    assert rec.response == pytest.approx(5.0) and rec.verdict == "plain"


def test_dimp_certified_inference_does_not_wait():
    wl = [u(0, 1, 0.0), q(1, 0, 2.0)]
    m = run(wl, VariantConfig("DIMP", parallel_capacity=3), oc(), SimParams(5.0, 10.0))
    assert m.awt == 0.0 and m.nor == 1
    assert m.per_request_log[0].verdict == "certified"


def test_unsorted_workload_rejected():
    wl = [q(0, 0, 5.0), u(1, 0, 1.0)]
    with pytest.raises(ValueError, match="sorted"):
        run(wl, VariantConfig("SISA", parallel_capacity=3), oc(), SimParams(5.0, 10.0))



def test_the_order_check_reports_whether_run_must_sort():
    stream = generate(WorkloadSpec(30, 300, 50.0, seed=3), 3)
    assert simulator._validate_workload(stream, 50.0)
    # request 2 is listed before an unlearning request at the same arrival
    wl = [u(0, 1, 0.0), q(1, 0, 2.0), q(2, 1, 3.0), u(3, 2, 3.0), q(4, 2, 3.0), q(5, 3, 4.0)]
    assert not simulator._validate_workload(wl, 10.0)
    engine = [wl[0], wl[1], wl[3], wl[2], wl[4], wl[5]]
    assert simulator._validate_workload(engine, 10.0)
    for name in ("DIMP", "SUTP", "DTTU", "SISA"):
        args = (VariantConfig(name, parallel_capacity=3), oc(), SimParams(5.0, 10.0))
        m = run(wl, *args)
        assert m == run(engine, *args)
        # request 2 met shard 2's unlearning: the stream was sorted first
        assert m.per_request_log[1].hypothetical_versions[2] == 1

def test_out_of_horizon_arrival_rejected():
    wl = [q(0, 0, 50.0)]
    with pytest.raises(ValueError, match="outside"):
        run(wl, VariantConfig("SISA", parallel_capacity=3), oc(), SimParams(5.0, 10.0))


def _trace_oracle():
    # sample 0 at version 0 votes [0,0,0,1,0]; retrained shards keep shapes
    # that leave the winner at 0
    entries = {}
    votes = [0, 0, 0, 1, 0]
    for k in range(5):
        entries[(0, k, 0)] = votes[k]
    entries[(0, 0, 1)] = 0
    entries[(0, 1, 1)] = 1
    trace = PredictionTrace(2, 5, entries)
    return OracleConfig(2, 5, 0.9, seed=0, trace=trace)


def test_postponed_inference_released_at_first_sufficient_completion():
    # two impacted winner-voting shards make sample 0 uncertified; after the
    # first retraining completes the remaining margin certifies it, so the
    # response lands at that completion, not at the end of the whole update
    cfg = _trace_oracle()
    wl = [u(0, 0, 0.0), u(1, 1, 0.5), q(2, 0, 1.0)]
    m = run(wl, VariantConfig("DUTP", parallel_capacity=1), cfg, SimParams(5.0, 20.0))
    rec = m.per_request_log[0]
    assert rec.verdict == "certified"
    assert rec.response == pytest.approx(6.0)  # first completion: 1 + 5
    assert m.nor == 2  # second shard still retrains, finishing at 11
    assert m.postponed_count == 1
    assert replay_privacy_check(m.per_request_log, cfg) == 0


def test_single_context_twin_waits_for_the_full_update():
    cfg = _trace_oracle()
    wl = [u(0, 0, 0.0), u(1, 1, 0.5), q(2, 0, 1.0)]
    m = run(wl, VariantConfig("SUTP", parallel_capacity=1), cfg, SimParams(5.0, 20.0))
    rec = m.per_request_log[0]
    assert rec.response == pytest.approx(11.0)  # both jobs done: 1 + 5 + 5
    assert m.nor == 2


def test_mid_update_arrival_halts_in_single_context():
    cfg = _trace_oracle()
    wl = [u(0, 0, 0.0), u(1, 1, 0.5), q(2, 0, 1.0), q(3, 0, 2.0)]
    m = run(wl, VariantConfig("SUTP", parallel_capacity=2), cfg, SimParams(5.0, 20.0))
    by_id = {rec.request_id: rec for rec in m.per_request_log}
    # both jobs run in parallel [1, 6]; the trigger request and the halted
    # mid-update arrival drain at the context switch
    assert by_id[2].response == pytest.approx(6.0)
    assert by_id[3].response == pytest.approx(6.0)


def test_leftover_pending_unlearning_runs_at_shutdown():
    wl = [u(0, 2, 1.0)]
    m = run(wl, VariantConfig("SUTP", parallel_capacity=3), oc(), SimParams(5.0, 10.0))
    assert m.nor == 1
    assert m.final_triggers == 1 and m.uncertification_triggers == 0


def test_conservation_and_awt_recomputation():
    spec = WorkloadSpec(40, 400, 40.0, seed=12, noise_fraction=0.05)
    wl = generate(spec, 10)
    cfg = oc(K=10, C=4, accuracy=0.8, seed=12)
    for name in ("DIMP", "SUTP", "DTTU", "STTP", "SISA"):
        m = run(wl, VariantConfig(name, parallel_capacity=10), cfg, SimParams(1.0, 40.0))
        assert len(m.per_request_log) == m.num_inferences == 400
        assert m.num_unlearnings == 40
        recomputed = float(np.mean([rec.wait for rec in m.per_request_log]))
        assert recomputed == pytest.approx(m.awt, abs=0.0)
        assert all(rec.response >= rec.arrival for rec in m.per_request_log)


def test_runs_are_bit_identical():
    spec = WorkloadSpec(30, 300, 30.0, seed=8)
    wl = generate(spec, 10)
    cfg = oc(K=10, C=10, accuracy=0.85, seed=8)
    a = run(wl, VariantConfig("DTTP", parallel_capacity=10), cfg, SimParams(1.0, 30.0))
    b = run(wl, VariantConfig("DTTP", parallel_capacity=10), cfg, SimParams(1.0, 30.0))
    assert a == b


def test_service_time_extends_every_response():
    wl = [q(0, 0, 1.0)]
    m = run(wl, VariantConfig("DIMP", parallel_capacity=3), oc(),
            SimParams(5.0, 10.0, inference_service_time=0.25))
    assert m.per_request_log[0].response == pytest.approx(1.25)
    assert m.awt == pytest.approx(0.25)


def test_replay_clean_for_postpone_variants():
    spec = WorkloadSpec(60, 500, 60.0, seed=21)
    wl = generate(spec, 12)
    cfg = oc(K=12, C=6, accuracy=0.75, seed=21)
    for name in ("DIMP", "SUTP", "DUTP", "STTP", "DTTP"):
        m = run(wl, VariantConfig(name, parallel_capacity=12), cfg, SimParams(1.0, 60.0))
        assert replay_privacy_check(m.per_request_log, cfg) == 0


# SISA releases a halted inference once the retraining jobs that predate it
# finish, while unlearning that arrived during the halt may still be pending.
# Its plain answer claims the versions as of arrival, which the replay checks
# (audited against the versions at release, 6, 3 and 3 answers here disagreed).
@pytest.mark.parametrize("capacity", [1, 2, 8])
def test_sisa_plain_answers_replay_clean(capacity):
    wl = generate(WorkloadSpec(40, 30, 50.0, seed=899), 8)
    cfg = oc(K=8, C=3, accuracy=0.3, seed=899)
    m = run(wl, VariantConfig("SISA", parallel_capacity=capacity), cfg, SimParams(1.0, 50.0))
    assert replay_privacy_check(m.per_request_log, cfg) == 0


def test_sisa_ignores_the_certification_mode():
    # SISA never certifies, so its cert_mode changes nothing it does
    wl = generate(WorkloadSpec(40, 300, 40.0, seed=17, noise_fraction=0.3), 8)
    cfg = oc(K=8, C=3, accuracy=0.6, seed=17)
    runs = [
        run(wl, VariantConfig("SISA", parallel_capacity=2, cert_mode=mode), cfg, SimParams(1.0, 40.0))
        for mode in ("fine", "coarse", "disabled")
    ]
    assert runs[0].awt > 0  # some answers waited out a halt
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_replay_counts_only_authoritative_answers():
    spec = WorkloadSpec(60, 500, 60.0, seed=22)
    wl = generate(spec, 12)
    cfg = oc(K=12, C=6, accuracy=0.75, seed=22)
    m = run(wl, VariantConfig("STTU", parallel_capacity=12), cfg, SimParams(1.0, 60.0))
    assert m.uncertified_responses > 0
    certified = [rec for rec in m.per_request_log if rec.verdict == "certified"]
    assert replay_privacy_check(m.per_request_log, cfg) == 0
    assert replay_privacy_check(certified, cfg) == 0


def _replay_one_by_one(log, cfg):
    # per-record reference: per-shard predictions and one plurality vote each
    def label(rec):
        sample = sample_for(cfg, rec.sample, rec.is_noise)
        preds = [predict(cfg, sample, k, v) for k, v in enumerate(rec.hypothetical_versions)]
        return predict_label(preds, cfg.num_classes)

    return sum(
        label(rec) != rec.label
        for rec in log
        if rec.verdict in ("certified", "plain")
    )


def test_replay_of_an_empty_log():
    assert replay_privacy_check([], oc()) == 0


@pytest.mark.parametrize("chunk", [7, 1024])
@pytest.mark.parametrize(
    "name,overrides",
    [
        ("STTU", {"mitigation": MitigationConfig(True, 0.7, 0.1)}),
        ("DTTU", {"cert_mode": "disabled"}),
        ("SISA", {}),
    ],
)
def test_batched_replay_matches_the_record_by_record_replay(monkeypatch, chunk, name, overrides):
    monkeypatch.setattr(simulator, "_REPLAY_CHUNK", chunk)
    cfg = oc(K=10, C=5, accuracy=0.6, seed=13)
    spec = WorkloadSpec(60, 400, 60.0, seed=13,
                        shard_assignment="scattered_round_robin", noise_fraction=0.5)
    wl = generate(spec, 10)
    v = VariantConfig(name, parallel_capacity=3, **overrides)
    log = run(wl, v, cfg, SimParams(1.0, 60.0)).per_request_log
    verdicts = {rec.verdict for rec in log}
    if name == "STTU":
        assert {"certified", "uncertified", "refused_detected"} <= verdicts
    if name == "DTTU":
        assert replay_privacy_check(log, cfg) > 0  # nothing holds stale answers back
    assert replay_privacy_check(log, cfg) == _replay_one_by_one(log, cfg)
    subset = [rec for rec in log if rec.verdict == "certified"]
    assert replay_privacy_check(subset, cfg) == _replay_one_by_one(subset, cfg)


@pytest.mark.parametrize("chunk", [7, 1024])
def test_replay_indexes_states_by_value(monkeypatch, chunk):
    """Records sharing one tuple object, equal but distinct tuples and a
    planted wrong label: the state index must give every record its own row."""
    monkeypatch.setattr(simulator, "_REPLAY_CHUNK", chunk)
    cfg = oc(K=6, C=4, accuracy=0.6, seed=9)
    shared = tuple([1, 0, 2, 0, 5, 3])
    states = [shared, shared, tuple([0, 0, 0, 0, 0, 0]), tuple(list(shared)),
              tuple([1, 0, 2, 0, 5, 4]), tuple([7, 1, 0, 2, 0, 0])]
    assert states[3] == shared and states[3] is not shared
    verdicts = ["certified", "plain", "certified", "uncertified", "refused_detected"]
    log = []
    for i in range(40):
        hypothetical = states[i % len(states)] if i % 4 else shared
        sample = sample_for(cfg, 100 + i % 13, is_noise=i % 3 == 0)
        preds = [predict(cfg, sample, k, v) for k, v in enumerate(hypothetical)]
        label = predict_label(preds, cfg.num_classes)
        if verdicts[i % len(verdicts)] == "uncertified":
            label = (label + 1) % cfg.num_classes  # excluded from the audit
        log.append(RequestRecord(i, float(i), float(i), 0.0, verdicts[i % len(verdicts)], label,
                                 sample.value, sample.is_noise, hypothetical, hypothetical))
    assert replay_privacy_check(log, cfg) == _replay_one_by_one(log, cfg) == 0
    planted = log[17]
    assert planted.verdict in ("certified", "plain")
    log[17] = dataclasses.replace(planted, label=(planted.label + 1) % cfg.num_classes)
    assert replay_privacy_check(log, cfg) == _replay_one_by_one(log, cfg) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: VariantConfig("SUTP", context_switch_latency=x),
        lambda x: SimParams(retrain_duration=x, horizon=10.0),
        lambda x: SimParams(retrain_duration=1.0, horizon=x),
        lambda x: SimParams(1.0, 10.0, inference_service_time=x),
        lambda x: Scheduler(VariantConfig("SUTP"), oc(), retrain_duration=x),
        lambda x: Scheduler(VariantConfig("SUTP"), oc(), 1.0, inference_service_time=x),
    ],
    ids=["context_switch_latency", "retrain_duration", "horizon",
         "inference_service_time", "scheduler_retrain_duration",
         "scheduler_inference_service_time"],
)
def test_non_finite_parameters_are_rejected(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_disabled_certification_emulation_leaks():
    # answer-everything-now service: pending unlearning piles up while stale
    # answers go out, and the replay finds flipped labels
    cfg = oc(K=10, C=10, accuracy=0.6, seed=11)
    spec = WorkloadSpec(100, 500, 100.0, seed=11,
                        shard_assignment="scattered_round_robin", noise_fraction=0.5)
    wl = generate(spec, 10)
    v = VariantConfig("DUTP", parallel_capacity=10, cert_mode="disabled")
    m = run(wl, v, cfg, SimParams(1.0, 100.0))
    assert m.awt == 0.0  # nothing ever waits
    assert replay_privacy_check(m.per_request_log, cfg) > 0


def test_metrics_p_uc():
    spec = WorkloadSpec(40, 300, 40.0, seed=4)
    wl = generate(spec, 8)
    cfg = oc(K=8, C=4, accuracy=0.7, seed=4)
    m = run(wl, VariantConfig("DIMP", parallel_capacity=8), cfg, SimParams(1.0, 40.0))
    assert m.judgements > 0
    assert m.p_uc == pytest.approx(m.judgements_uncertified / m.judgements)
    empty = run([], VariantConfig("DIMP", parallel_capacity=8), cfg, SimParams(1.0, 40.0))
    assert empty.p_uc == 0.0


def test_at_most_capacity_jobs_in_flight():
    s = Scheduler(VariantConfig("DIMP", parallel_capacity=2), oc(K=10, C=2, seed=6), 3.0)
    for rid in range(100):
        s.on_unlearning_arrival(u(rid, rid % 10, 0.0), 0.0)
        assert len(s.inflight) <= 2
    last = 0.0
    while s.next_completion() is not None:
        last = s.next_completion()
        s.on_retraining_complete(last)
        assert len(s.inflight) <= 2
    assert s.retrainings_completed == 100
    assert last == pytest.approx(150.0)  # 100 jobs, 2 slots, 3s each


def test_uncertified_responses_stay_within_the_budget():
    # answered-uncertified responses obey the window rule, which caps the
    # run total at theta times the inferences ever counted
    spec = WorkloadSpec(500, 4500, 500.0, seed=42)
    wl = generate(spec, 20)
    cfg = oc(K=20, C=10, accuracy=0.9, seed=42)
    for theta in (0.02, 0.05, 0.1):
        for name in ("STTU", "DTTU"):
            m = run(wl, VariantConfig(name, threshold=theta, parallel_capacity=20),
                    cfg, SimParams(1.0, 500.0), collect_log=False)
            assert m.uncertified_responses <= theta * m.num_inferences
    for name in ("STTP", "DTTP", "SUTP", "DUTP", "DIMP", "SISA"):
        m = run(wl, VariantConfig(name, parallel_capacity=20), cfg,
                SimParams(1.0, 500.0), collect_log=False)
        assert m.uncertified_responses == 0


def test_records_keep_their_fields_and_compare_by_value():
    # the benchmark digests a request log field by field, in this order
    assert [f.name for f in dataclasses.fields(RequestRecord)] == [
        "request_id", "arrival", "response", "wait", "verdict", "label",
        "sample", "is_noise", "versions", "hypothetical_versions",
    ]
    fields = (7, 1.0, 2.5, 1.5, "certified", 3, 11, False, (1, 0), (1, 1))
    assert RequestRecord(*fields) == RequestRecord(*fields)
    assert RequestRecord(*fields) != RequestRecord(*fields[:5], 4, *fields[6:])
    # the scheduler builds the records the simulator reports
    assert RequestRecord is scheduler.RequestRecord
    assert RequestRecord(*fields) == RequestRecord(*fields[:8], tuple([1, 0]), tuple([1, 1]))
    assert RequestRecord(*fields) != RequestRecord(*fields[:8], (1, 0), (1, 0))


class _AnswersTwice(Scheduler):
    def on_inference_run(self, requests, start, stop, upcoming=None):
        answers, taken = super().on_inference_run(requests, start, stop, upcoming)
        return 2 * answers, taken


class _AnswersEarly(Scheduler):
    def __init__(self, *args):
        super().__init__(*args)
        self.service_time = -1.0  # every answer lands a second before its arrival


@pytest.mark.parametrize("patched, message", [
    (_AnswersTwice, "request 1 answered more than once"),
    (_AnswersEarly, "request 1 answered before its arrival"),
])
def test_run_refuses_a_scheduler_that_breaks_an_answer_rule(monkeypatch, patched, message):
    monkeypatch.setattr(simulator, "Scheduler", patched)
    wl = [u(0, 1, 0.0), q(1, 0, 2.0), q(2, 1, 3.0)]
    with pytest.raises(simulator.SimulationError, match=message):
        run(wl, VariantConfig("DIMP", parallel_capacity=3), oc(), SimParams(5.0, 10.0))


class _NoFinalUpdate(Scheduler):
    def finalize(self, now):
        pass


def test_run_refuses_a_scheduler_that_skips_its_final_update(monkeypatch):
    # a threshold variant leaves the unlearning request pending for the final update
    monkeypatch.setattr(simulator, "Scheduler", _NoFinalUpdate)
    wl = [u(0, 1, 0.0), q(1, 0, 2.0)]
    with pytest.raises(simulator.SimulationError, match="quiescence"):
        run(wl, VariantConfig("STTP", parallel_capacity=3), oc(), SimParams(5.0, 10.0))
