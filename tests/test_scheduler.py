"""Policy state-machine tests. Event-loop behavior (halting, draining,
re-checks) is covered end to end in test_simulator; these drive the
Scheduler directly for the single-step contracts."""

import pickle

import pytest

from eraser.oracle import OracleConfig, PredictionTrace
from eraser.scheduler import (
    _Entry,
    MitigationConfig,
    RequestRecord,
    Scheduler,
    VARIANT_TABLE,
    VariantConfig,
)
from eraser.workload import Request


def make_sched(name="DIMP", K=20, C=10, accuracy=0.9, seed=3, r=5.0, **overrides):
    overrides.setdefault("parallel_capacity", K)
    cfg = VariantConfig(name, **overrides)
    return Scheduler(cfg, OracleConfig(C, K, accuracy, seed=seed), r)


def unlearn(rid, shard, t=0.0):
    return Request("unlearning", t, rid, target_shard=shard)


def infer(rid, sample, t=0.0, noise=False):
    return Request("inference", t, rid, sample=sample, is_noise=noise)


def test_variant_table_is_the_supported_set():
    assert set(VARIANT_TABLE) == {
        "DIMP", "SUTP", "DUTP", "STTU", "DTTU", "STTP", "DTTP", "SISA",
    }
    with pytest.raises(ValueError):
        VariantConfig("bad")


def test_immediate_unlearning_starts_retraining_now():
    s = make_sched("DIMP", r=5.0)
    assert s.on_unlearning_arrival(unlearn(0, 3, 10.0), 10.0) == []
    assert s.inflight == [(15.0, 1, 3, 1)]  # completion, job id, shard, covered


def test_accumulating_variants_only_record_pending():
    s = make_sched("SUTP")
    acts = s.on_unlearning_arrival(unlearn(0, 3, 10.0), 10.0)
    assert acts == []
    assert s.pending[3] == 1
    assert s._impacted.nonzero()[0].tolist() == [3]


def test_one_job_per_unlearning_request_even_for_same_shard():
    s = make_sched("DIMP", r=5.0)
    for rid in range(4):
        s.on_unlearning_arrival(unlearn(rid, 3, float(rid)), float(rid))
    assert s.jobs_created == 4
    assert s.pending[3] == 4


def test_batch_update_covers_all_pending_of_a_shard():
    s = make_sched("SUTP", r=5.0)
    for rid in range(4):
        s.on_unlearning_arrival(unlearn(rid, 2, 0.0), 0.0)
    s.trigger_update(1.0)
    assert s.inflight == [(6.0, 1, 2, 4)]  # completion, job id, shard, covered
    s.on_retraining_complete(6.0)
    assert not s.pending[2]
    assert s.retrainings_completed == 1


def test_capacity_queues_jobs_fifo():
    s = make_sched("SUTP", r=5.0, parallel_capacity=2)
    for rid, shard in enumerate([0, 1, 2]):
        s.on_unlearning_arrival(unlearn(rid, shard, 0.0), 0.0)
    s.trigger_update(0.0)
    assert [(shard, t) for t, _, shard, _ in sorted(s.inflight)] == [(0, 5.0), (1, 5.0)]
    assert list(s.queue) == [(3, 2, 1)]  # job id, shard, covered
    assert s.on_retraining_complete(5.0) == []
    assert sorted(s.inflight) == [(5.0, 2, 1, 1), (10.0, 3, 2, 1)] and not s.queue


def test_trigger_with_nothing_pending_is_a_noop():
    s = make_sched("SUTP")
    s.trigger_update(0.0)
    assert not s.busy() and s.jobs_created == 0 and s.final_triggers == 0


def test_certified_inference_with_no_impacted_shards_responds_at_once():
    s = make_sched("DIMP")
    acts = s.on_inference_arrival(infer(0, 5, 1.0), 1.0)
    (resp,) = acts
    assert isinstance(resp, RequestRecord)
    assert resp.verdict == "certified"


def test_threshold_ratio_arithmetic_matches_the_window_rule():
    # 100 inferences and 5 uncertified so far; an uncertified arrival makes
    # the including ratio 6/101 > 0.05 and must trigger + postpone
    s = make_sched("STTU", K=4, C=2, accuracy=0.5, seed=0, threshold=0.05,
                   parallel_capacity=4)
    s.window_inferences = 100
    s.window_uncertified = 5
    # two impacted shards voting for the winner force uncertification
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    s.on_unlearning_arrival(unlearn(1, 1, 0.0), 0.0)
    sample = _find_uncertain_sample(s)
    assert s.on_inference_arrival(infer(99, sample, 1.0), 1.0) == []
    assert s.postponed == 1 and s.uncertification_triggers == 1 and s.inflight
    assert s.window_inferences == 101 and s.window_uncertified == 6


def test_threshold_within_budget_answers_uncertified():
    s = make_sched("STTU", K=4, C=2, accuracy=0.5, seed=0, threshold=0.5,
                   parallel_capacity=4)
    s.window_inferences = 100
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    s.on_unlearning_arrival(unlearn(1, 1, 0.0), 0.0)
    sample = _find_uncertain_sample(s)
    acts = s.on_inference_arrival(infer(99, sample, 1.0), 1.0)
    assert [type(a).__name__ for a in acts] == ["RequestRecord"]
    assert acts[0].verdict == "uncertified"


def test_postpone_variant_without_trigger_just_postpones():
    s = make_sched("STTP", K=4, C=2, accuracy=0.5, seed=0, threshold=0.5,
                   parallel_capacity=4)
    s.window_inferences = 100
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    s.on_unlearning_arrival(unlearn(1, 1, 0.0), 0.0)
    sample = _find_uncertain_sample(s)
    assert s.on_inference_arrival(infer(99, sample, 1.0), 1.0) == []
    assert s.postponed == 1
    assert not s.busy()


def _find_uncertain_sample(s):
    # one batch over 500 candidate samples; _evaluate counts no judgement
    entries = [_Entry(infer(10_000 + value, value, 0.0)) for value in range(500)]
    for value, ev in enumerate(s._evaluate(entries)):
        if ev.verdict == "uncertified":
            return value
    raise AssertionError("no uncertifiable sample found for this oracle seed")


def test_unknown_completion_is_an_internal_error():
    s = make_sched("DIMP", r=5.0)
    with pytest.raises(RuntimeError):
        s.on_retraining_complete(0.0)  # nothing in flight
    s.on_unlearning_arrival(unlearn(0, 3, 0.0), 0.0)
    for early_or_late in (4.0, 6.0):  # the job is due at 5.0
        with pytest.raises(RuntimeError):
            s.on_retraining_complete(early_or_late)
    assert s.busy() and s.retrainings_completed == 0


def test_next_completion_is_none_when_idle():
    s = make_sched("DIMP", r=5.0)
    assert s.next_completion() is None
    s.on_unlearning_arrival(unlearn(0, 3, 1.0), 1.0)
    assert s.next_completion() == 6.0
    s.on_retraining_complete(6.0)
    assert s.next_completion() is None and not s.busy()


def test_equal_completions_go_in_job_id_order_across_a_queue_hand_off():
    # two slots: jobs 1 and 2 start after the context switch and both complete
    # at 7; job 3 waits for a slot and starts at 7, without the switch
    s = make_sched("SUTP", r=5.0, parallel_capacity=2, context_switch_latency=2.0)
    for rid, shard in enumerate([1, 3, 5]):
        s.on_unlearning_arrival(unlearn(rid, shard, 0.0), 0.0)
    s.trigger_update(0.0)
    order = []
    while s.busy():
        t = s.next_completion()
        ids = {job_id for _, job_id, _, _ in s.inflight}
        s.on_retraining_complete(t)
        (done,) = ids - {job_id for _, job_id, _, _ in s.inflight}
        order.append((t, done, s.versions.nonzero()[0].tolist()))
    assert order == [(7.0, 1, [1]), (7.0, 2, [1, 3]), (12.0, 3, [1, 3, 5])]


def test_postponed_counts_a_request_once():
    # sample 0 wins 2 votes to 1 and fails the check while shard 0 or 1 is
    # impacted. It waits through two updates and is re-judged at each
    # completion, yet it was postponed once, on arrival
    votes = [0, 0, 1]
    trace = PredictionTrace(2, 3, {(0, k, v): votes[k] for k in range(3) for v in range(3)})
    oracle_cfg = OracleConfig(2, 3, 0.9, seed=0, trace=trace)
    s = Scheduler(VariantConfig("DUTP", parallel_capacity=3), oracle_cfg, 5.0)
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    assert s.on_inference_arrival(infer(1, 0, 1.0), 1.0) == []  # triggers shard 0's update
    s.on_unlearning_arrival(unlearn(2, 1, 2.0), 2.0)
    assert s.on_retraining_complete(6.0) == []  # shard 1 is impacted: a second update
    (answer,) = s.on_retraining_complete(11.0)
    assert answer.request_id == 1 and answer.verdict == "certified"
    assert s.postponed == 1 and s.judgements_uncertified >= 3


def test_detector_degenerate_rates():
    mit = MitigationConfig(detector_enabled=True, detector_tpr=1.0, detector_fpr=0.0)
    s = make_sched("DUTP", mitigation=mit)
    (refusal,) = s.on_inference_arrival(infer(0, 1, 0.0, True), 0.0)
    assert isinstance(refusal, RequestRecord) and refusal.verdict == "refused_detected"
    (resp,) = s.on_inference_arrival(infer(1, 2, 0.0), 0.0)
    assert isinstance(resp, RequestRecord) and resp.verdict == "certified"
    assert s.judgements == 1  # a refused request is never judged


def test_confidence_discard_threshold():
    # the winner is backed by 3 of 5 shards: agreement 0.6, via a hand-built trace
    votes = [0, 0, 0, 1, 1]
    trace = PredictionTrace(2, 5, {(0, k, 0): votes[k] for k in range(5)})
    oracle_cfg = OracleConfig(2, 5, 0.9, seed=0, trace=trace)
    for threshold, expect in ((0.6, "certified"), (0.61, "refused_low_confidence")):
        mit = MitigationConfig(confidence_threshold=threshold)
        s = Scheduler(VariantConfig("DUTP", parallel_capacity=5, mitigation=mit), oracle_cfg, 1.0)
        (act,) = s.on_inference_arrival(infer(0, 0, 0.0), 0.0)
        assert isinstance(act, RequestRecord) and act.verdict == expect


def test_shard_shuffle_remaps_round_robin_targets():
    s = make_sched("SUTP", shuffle_shards=True)
    for rid in range(40):
        s.on_unlearning_arrival(unlearn(rid, rid % 20, 0.0), 0.0)
    hit = [k for k in range(20) if s.pending[k]]
    loads = sorted(s.pending.tolist())
    # a fixed round robin would load every shard exactly twice
    assert loads != [2] * 20
    assert sum(loads) == 40 and hit


def test_retrain_minimal_retrains_a_subset():
    s = make_sched("SUTP", K=8, C=2, accuracy=0.55, seed=1,
                   retrain_policy="retrain_minimal", parallel_capacity=1)
    for rid, shard in enumerate(range(6)):
        s.on_unlearning_arrival(unlearn(rid, shard, 0.0), 0.0)
    sample = _find_uncertain_sample(s)
    acts = s.on_inference_arrival(infer(50, sample, 1.0), 1.0)
    scheduled = s.jobs_created
    assert 1 <= scheduled <= 6
    all_s = make_sched("SUTP", K=8, C=2, accuracy=0.55, seed=1, parallel_capacity=1)
    for rid, shard in enumerate(range(6)):
        all_s.on_unlearning_arrival(unlearn(rid, shard, 0.0), 0.0)
    all_s.on_inference_arrival(infer(50, sample, 1.0), 1.0)
    assert all_s.jobs_created == 6
    assert scheduled <= all_s.jobs_created


def test_context_switch_latency_delays_triggered_jobs():
    s = make_sched("SUTP", r=5.0, context_switch_latency=2.0)
    s.on_unlearning_arrival(unlearn(0, 1, 0.0), 0.0)
    s.trigger_update(10.0)
    assert s.next_completion() == pytest.approx(17.0)  # 10 + 2 + 5
    d = make_sched("DUTP", r=5.0, context_switch_latency=2.0)
    d.on_unlearning_arrival(unlearn(0, 1, 0.0), 0.0)
    d.trigger_update(10.0)
    assert d.next_completion() == pytest.approx(15.0)  # double context: no switch


def test_threshold_counters_read_zero_after_an_update_completes():
    s = make_sched("STTP", K=4, C=2, accuracy=0.5, seed=0, threshold=0.5,
                   parallel_capacity=4)
    s.window_inferences = 80
    s.window_uncertified = 3
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    s.trigger_update(1.0)
    s.on_retraining_complete(6.0)
    assert s.window_inferences == 0 and s.window_uncertified == 0


def _hint_script(steps=80):
    # inference arrivals every 0.25 with unlearning for shards 0-3 at
    # intervals, so runs of arrivals are cut by arrivals and completions
    script = []
    for step in range(steps):
        t = step * 0.25
        if step % 9 == 4:
            script.append(unlearn(len(script), step % 4, t))
        script.append(infer(len(script), step, t))
    return script


def _drive(name, hint, r=1.5, parallel_capacity=2, steps=80, **overrides):
    """Feed ``_hint_script(steps)`` to one scheduler, offering ``hint(script, i)``
    at arrival i.

    Returns the log, the judgement counts, the size of every judging batch
    and the wasted verdicts. The log has one entry per handler call: its
    answers, then the jobs in flight as ``(shard, covered, completion)`` and
    the postponed count after it. A wasted verdict is ``(request id, jobs
    created when it was judged ahead, jobs created when it was judged
    again)`` for each verdict judged ahead of its request's arrival and
    judged again, unused. Throughout, the kept verdicts are those the latest
    walk judged ahead (:func:`_kept_by`).
    """
    s = make_sched(name, K=6, C=3, accuracy=0.6, seed=2, r=r,
                   parallel_capacity=parallel_capacity, threshold=0.2, **overrides)
    batches, wasted, foreseen, latest = [], [], {}, [{}]
    evaluate, walk, judge, ahead, kept_verdict = (
        s._evaluate, s._walk, s._judge, s._ahead, s._kept_verdict
    )

    def counting(requests, *args):
        batches.append(len(requests))
        return judge(requests, *args)

    def walking(upcoming):
        requests, states, state_of = ahead(upcoming)
        for request, at in zip(requests, state_of):
            if request.request_id in foreseen:  # judged ahead twice, unused
                wasted.append((request.request_id, foreseen[request.request_id][2], s.jobs_created))
            foreseen[request.request_id] = (request, states[at][2], s.jobs_created)
        latest[0] = _walked_ahead(requests, states, state_of)
        return requests, states, state_of

    def assert_fresh(request, ev):  # a verdict acted on equals a fresh one-row judgement
        (fresh,) = judge([request], s.versions, s._impacted)
        assert (ev.verdict, ev.label) == (fresh.verdict, fresh.label)

    def looked_up(request):  # every read of a kept verdict: on arrival and in _evaluate
        seen, key, jobs = foreseen.pop(request.request_id, (None, None, 0))
        if seen is not None and (seen is not request or key != s._key):
            wasted.append((request.request_id, jobs, s.jobs_created))
        ev = kept_verdict(request)
        if ev is not None:
            assert_fresh(request, ev)
        return ev

    def checked(entries):  # a completion keeps none of its verdicts
        evals = evaluate(entries)
        for entry, ev in zip(entries, evals):
            assert_fresh(entry.request, ev)
        assert _kept_by(s) == latest[0]
        return evals

    def walked(request, upcoming):  # the arrival's verdict is not kept, the walk's replace the rest
        ev = walk(request, upcoming)
        assert_fresh(request, ev)
        assert _kept_by(s) == latest[0]
        return ev

    complete = s.on_retraining_complete

    def completing(now):  # a completion judges what it acts on in one batch at most
        judged = len(batches)
        answers = complete(now)
        assert len(batches) - judged <= 1
        return answers

    s._evaluate, s._walk, s._judge, s._ahead, s._kept_verdict = (
        checked, walked, counting, walking, looked_up
    )
    s.on_retraining_complete = completing
    script, log = _hint_script(steps), []

    def apply(answers):
        # the fact shutdown rests on: an idle scheduler with nothing pending
        # has an empty backlog
        assert s.busy() or s.pending.any() or not s.backlog
        jobs = [(shard, covered, t) for t, _, shard, covered in sorted(s.inflight)]
        log.append((answers, jobs, s.postponed))

    def complete_until(t):
        while s.next_completion() is not None and s.next_completion() <= t:
            apply(s.on_retraining_complete(s.next_completion()))

    for i, req in enumerate(script):
        complete_until(req.arrival)
        if req.kind == "unlearning":
            apply(s.on_unlearning_arrival(req, req.arrival))
        else:
            apply(s.on_inference_arrival(req, req.arrival, lambda: hint(script, i)))
    s.finalize(100.0)
    apply([])
    complete_until(float("inf"))
    assert s.quiet()
    assert _kept_by(s) == latest[0]
    return log, s.judgements, s.judgements_uncertified, batches, wasted


def _walked_ahead(requests, states, state_of):
    """A walk's inferences as ``{request id: (request, key of the state it expects)}``."""
    return {r.request_id: (r, states[at][2]) for r, at in zip(requests, state_of)}


def _kept_by(s):
    """The scheduler's kept verdicts as :func:`_walked_ahead` lists a walk."""
    return {rid: (request, key) for rid, (request, key, _) in s._kept.items()}


def _same_state_run(script, i):
    run = []
    for req in script[i + 1:]:
        if req.kind != "inference":
            break
        run.append(req)
    return run


def _with_an_invented_unlearning(script, i):
    # shard 5 is never a target of the script, so the set really grows
    ahead = script[i + 1 : i + 13]
    return ahead[:2] + [unlearn(10_000 + i, 5, script[i].arrival)] + ahead[2:]


HINTS = {
    "truncated": lambda script, i: _same_state_run(script, i)[:2],
    # the next twelve requests, unlearning ones included
    "through_unlearning": lambda script, i: script[i + 1 : i + 13],
    "invents_an_unlearning": _with_an_invented_unlearning,
    "past_a_state_change": lambda script, i: [r for r in script[i + 1:] if r.kind == "inference"],
    # same request ids as the real arrivals, other samples: never arrive
    "never_arrive": lambda script, i: [
        infer(r.request_id, r.sample + 1_000, r.arrival) for r in _same_state_run(script, i)
    ],
    # what the simulator offers: every later request, lazily
    "everything_after": lambda script, i: map(script.__getitem__, range(i + 1, len(script))),
}


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
@pytest.mark.parametrize("hint", sorted(HINTS))
def test_the_upcoming_hint_never_changes_a_decision(name, hint):
    log, judgements, uncertified, plain_batches, _ = _drive(name, lambda script, i: ())
    hinted_log, *counts, batches, wasted = _drive(name, HINTS[hint])
    assert hinted_log == log
    assert counts == [judgements, uncertified]
    assert judgements > 0 or name == "SISA"
    if hint != "never_arrive":  # the kept verdicts were used, in fewer batches
        assert len(batches) < len(plain_batches)
    if hint == "everything_after":  # the first walk, 128 requests, takes the whole script
        assert batches[0] == sum(r.kind == "inference" for r in _hint_script())
    if hint in ("through_unlearning", "everything_after"):
        if name in ("DIMP", "SISA"):  # the walk foresees their whole state path
            assert not wasted
        # the rest waste only verdicts judged before a triggered retraining
        assert all(before < after for _, before, after in wasted)


def _walk_lengths(s, script):
    """Drive ``script`` through ``s``, offering at each inference arrival every
    request after it, as the simulator does. Returns ``(request id, requests
    the walk took from the offer)`` for every walk of the lookahead."""
    walks = []

    def offer(i):
        walks.append((script[i].request_id, 0))
        for request in script[i + 1:]:
            walks[-1] = (walks[-1][0], walks[-1][1] + 1)
            yield request

    for i, request in enumerate(script):
        while s.next_completion() is not None and s.next_completion() <= request.arrival:
            s.on_retraining_complete(s.next_completion())
        if request.kind == "unlearning":
            s.on_unlearning_arrival(request, request.arrival)
        else:
            s.on_inference_arrival(request, request.arrival, lambda: offer(i))
    return walks


def test_dimp_walks_the_whole_script_in_runs_that_double():
    # DIMP never triggers, so every verdict its walk judges ahead is used and
    # each arrival miss is one the last batch fell short of: the run doubles
    # from 64 at every miss, and the last walk reaches the end of the script
    script = _hint_script(400)
    s = make_sched("DIMP", K=6, C=3, accuracy=0.6, seed=2, r=1.5, parallel_capacity=2)
    walks = _walk_lengths(s, script)
    lengths = [n for _, n in walks]
    assert lengths[:-1] == [128, 256] and 0 < lengths[-1] <= 512
    last = [r.request_id for r in script].index(walks[-1][0])
    assert last + lengths[-1] == len(script) - 1
    log, *counts, _, _ = _drive("DIMP", lambda script, i: (), steps=400)
    hinted_log, *hinted_counts, batches, wasted = _drive(
        "DIMP", HINTS["everything_after"], steps=400
    )
    assert (hinted_log, hinted_counts) == (log, counts)
    assert not wasted
    assert batches[0] == 1 + sum(r.kind == "inference" for r in script[1:129])


def test_sutp_walks_64_requests_again_after_a_wasted_verdict():
    # x fails the check while shard 0 is impacted and triggers its update;
    # its walk, the first miss, took 128 requests. The arrivals until the
    # completion at 6.0 halt; z, the first after it, finds its verdict from
    # x's walk kept under the state before the update: a wasted verdict,
    # so z's walk takes 64 requests again. The next miss lies past z's walk,
    # which fell short of it: x's stale verdict for it is gone, so the run
    # doubles, and the last walk takes the 66 requests left
    s = make_sched("SUTP", K=4, C=2, accuracy=0.5, seed=0, parallel_capacity=4, r=5.0)
    x = infer(1, 3, 1.0)
    rest = [infer(2 + j, 100 + j, 1.0 + 0.125 * (j + 1)) for j in range(300)]
    z = rest[39]
    assert z.arrival == 6.0
    walks = _walk_lengths(s, [unlearn(0, 0, 0.0), x] + rest)
    assert s.uncertification_triggers == 1 and s.retrainings_completed == 1
    assert walks == [(x.request_id, 128), (z.request_id, 64), (106, 128), (235, 66)]


def test_a_hint_longer_than_the_cap_is_walked_only_to_1024():
    # inferences alone: the run doubles at every miss until the cap holds it;
    # the fifth walk would take 2048 requests, and 1575 are left after it
    script = [infer(i, i, 0.01 * i) for i in range(3500)]
    walks = _walk_lengths(make_sched("DIMP", K=6, C=3, accuracy=0.6, seed=2), script)
    assert walks == [(0, 128), (129, 256), (386, 512), (899, 1024), (1924, 1024), (2949, 550)]


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_only_the_latest_walks_verdicts_judged_ahead_are_kept(name):
    # after every handler call the kept verdicts are exactly those the latest
    # walk judged ahead, each under the key of the state it expected: an
    # arrival's own verdict is never kept, nor one judged at a completion
    s = make_sched(name, K=6, C=3, accuracy=0.6, seed=2, r=1.5, parallel_capacity=2,
                   threshold=0.2)
    walks, ahead = [{}], s._ahead

    def walking(upcoming):
        requests, states, state_of = ahead(upcoming)
        walks.append(_walked_ahead(requests, states, state_of))
        return requests, states, state_of

    s._ahead = walking
    script = _hint_script(400)
    for i, request in enumerate(script):
        while s.next_completion() is not None and s.next_completion() <= request.arrival:
            s.on_retraining_complete(s.next_completion())
            assert _kept_by(s) == walks[-1]
        if request.kind == "unlearning":
            s.on_unlearning_arrival(request, request.arrival)
        else:
            s.on_inference_arrival(request, request.arrival,
                                   lambda: HINTS["everything_after"](script, i))
        assert _kept_by(s) == walks[-1]
    assert len(walks) > 2 and s.retrainings_completed > 0


def _assert_the_exact_hint_holds(name, **overrides):
    """The script's own next requests, offered as the hint, change no decision
    and need fewer batches; DIMP and SISA waste no verdict, the rest only
    verdicts judged before a triggered retraining, which the walk cannot see."""
    log, *counts, plain_batches, _ = _drive(name, lambda script, i: (), **overrides)
    hinted_log, *hinted_counts, batches, wasted = _drive(
        name, HINTS["through_unlearning"], **overrides
    )
    assert hinted_log == log
    assert hinted_counts == counts
    assert len(batches) < len(plain_batches)
    assert not wasted or name not in ("DIMP", "SISA")
    assert all(before < after for _, before, after in wasted)


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_the_hint_never_changes_a_decision_with_shuffled_shards(name):
    # the walk must map each arrival to its shuffled shard
    _assert_the_exact_hint_holds(name, shuffle_shards=True)


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_the_hint_never_changes_a_decision_when_retraining_queues(name):
    # one job at a time, each longer than the gap between unlearning
    # arrivals: the walk must start each queued job where a completion frees its slot
    _assert_the_exact_hint_holds(name, r=4.0, parallel_capacity=1)


@pytest.mark.parametrize("bad", [-1, 6])
def test_the_lookahead_stops_before_a_target_shard_out_of_range(bad):
    # Request rejects a negative target itself; one set after construction
    # stands for a request that reaches the scheduler unchecked
    stray = unlearn(2, 0, 1.0)
    object.__setattr__(stray, "target_shard", bad)
    x, a, b = infer(1, 11, 1.0), infer(3, 12, 1.0), infer(4, 13, 1.0)
    runs = []
    for hint in ([a, stray, b], []):
        s = make_sched("STTU", K=6, C=3, accuracy=0.6, seed=2, threshold=1.0)
        s.on_unlearning_arrival(unlearn(0, 1, 0.0), 0.0)
        log = [s.on_inference_arrival(x, 1.0, lambda: hint)]
        if hint:  # the walk ended before the stray request, marking no shard for it
            assert [(r, key) for r, key, _ in s._kept.values()] == [(a, s._key)]
        log.append(s.on_inference_arrival(a, 1.0, lambda: hint[2:]))
        with pytest.raises(ValueError, match="target shard"):
            s.on_unlearning_arrival(stray, 1.0)
        runs.append((log, s.judgements, s.judgements_uncertified))
    assert runs[0] == runs[1]


def test_the_lookahead_replays_a_queued_retraining():
    # one job at a time: u2's retraining queues behind u1's and starts at 5,
    # not at its arrival. The walk from x replays that hand-off, so one batch
    # judges x, a, b and c, each under the state it meets
    u1, u2 = unlearn(0, 1, 0.0), unlearn(2, 2, 2.0)
    x, a, b, c = infer(1, 11, 1.0), infer(3, 12, 3.0), infer(4, 13, 8.0), infer(5, 14, 11.0)
    runs = []
    for hints in ([[u2, a, b, c], [b, c], [c], []], [[]] * 4):
        s = make_sched("DIMP", r=5.0, parallel_capacity=1)
        rows = _counting_rows(s)
        s.on_unlearning_arrival(u1, 0.0)
        log = [s.on_inference_arrival(x, 1.0, lambda: hints[0])]
        log.append(s.on_unlearning_arrival(u2, 2.0))
        log.append(s.on_inference_arrival(a, 3.0, lambda: hints[1]))
        log.append(s.on_retraining_complete(5.0))
        assert s.inflight == [(10.0, 2, 2, 1)]  # u2's retraining starts
        log.append(s.on_inference_arrival(b, 8.0, lambda: hints[2]))
        log.append(s.on_retraining_complete(10.0))
        log.append(s.on_inference_arrival(c, 11.0, lambda: hints[3]))
        assert [type(log[i][0]).__name__ for i in (0, 2, 4, 6)] == ["RequestRecord"] * 4
        runs.append((log, rows))
    (log, rows), (plain_log, plain_rows) = runs
    assert log == plain_log
    assert rows == [4] and plain_rows == [1] * 4


@pytest.mark.parametrize("shuffle_shards", [False, True])
@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_the_lookahead_leaves_the_scheduler_as_it_found_it(name, shuffle_shards):
    # one slot: a job in flight, jobs queued behind it, pending requests
    # (one that no job covers yet, unless the variant is immediate) and a
    # backlog; the walk passes completions, queued starts and unlearning
    # arrivals, all on its fork
    s = make_sched(name, K=6, C=3, accuracy=0.6, seed=2, r=2.0, parallel_capacity=1,
                   shuffle_shards=shuffle_shards)
    for shard in range(6):
        s.on_unlearning_arrival(unlearn(shard, shard, 0.0), 0.0)
    s.finalize(0.0)  # the variants that batch start their update here
    s.on_unlearning_arrival(unlearn(6, 0, 0.5), 0.5)
    s.on_inference_arrival(infer(7, 7, 1.0), 1.0)
    assert s.inflight and s.queue and s.pending.any() and s.backlog
    hint = [infer(8, 3, 1.5), unlearn(9, 4, 2.0), infer(10, 5, 3.0), infer(11, 6, 5.5),
            unlearn(12, 0, 6.0), infer(13, 8, 9.0)]
    held = {name: id(value) for name, value in vars(s).items()}
    before = {name: pickle.dumps(value) for name, value in vars(s).items()}
    ahead, states, state_of = s._ahead(lambda: hint)
    assert [r.request_id for r in ahead] == [8, 10, 11, 13]
    assert len({states[at][2] for at in state_of}) > 1  # the walk changed its fork's state
    assert {name: id(value) for name, value in vars(s).items()} == held
    assert {name: pickle.dumps(value) for name, value in vars(s).items()} == before



def test_each_judged_row_meets_the_state_the_lookahead_assigned_it():
    # shard 1 retrains until 2.0; the hint holds an unlearning arrival for
    # shard 2 at 1.7 and that completion, so its inferences meet three states
    s = make_sched("DIMP", K=4, C=3, accuracy=0.6, r=2.0)
    s.on_unlearning_arrival(unlearn(0, 1, 0.0), 0.0)
    hint = [infer(2, 12, 1.5), unlearn(3, 2, 1.7), infer(4, 13, 1.8), infer(5, 14, 2.5),
            infer(6, 15, 3.0)]
    walks, batches, kept = [], [], {}
    walk, judge, ahead = s._walk, s._judge, s._ahead

    def walking(upcoming):
        requests, states, state_of = ahead(upcoming)
        walks.append((list(requests), list(states), list(state_of)))
        return requests, states, state_of

    def judging(requests, versions, impacted):
        now = (s.versions.copy(), s._impacted.copy(), s._key)
        batches.append((list(requests), versions.copy(), impacted.copy(), now))
        return judge(requests, versions, impacted)

    def walked(request, upcoming):
        ev = walk(request, upcoming)
        kept.update(_kept_by(s))
        return ev

    s._walk, s._judge, s._ahead = walked, judging, walking
    arriving = infer(1, 11, 1.0)
    s.on_inference_arrival(arriving, 1.0, lambda: hint)
    ((requests, states, state_of),) = walks
    ((judged, versions, impacted, now),) = batches
    assert judged == [arriving] + requests and [r.request_id for r in requests] == [2, 4, 5, 6]
    expected = [now] + [states[at] for at in state_of]
    assert len({key for _, _, key in expected}) == 3
    assert versions.shape == impacted.shape == (5, 4)
    for row, (v, mask, key) in enumerate(expected):
        assert versions[row].tolist() == v.tolist() and impacted[row].tolist() == mask.tolist()
        # the walk keeps the rows it judged ahead, not the arrival's own
        assert kept.get(judged[row].request_id) == (None if row == 0 else (judged[row], key))
    assert versions.tolist() == [[0, 0, 0, 0]] * 3 + [[0, 1, 0, 0]] * 2
    assert impacted.astype(int).tolist() == [
        [0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 1, 0],
    ]

def _counting_rows(s):
    """The size of every batch the scheduler's prediction table is asked for."""
    rows, predict = [], s.prefixes.predict

    def counting(r, versions):
        rows.append(len(r))
        return predict(r, versions)

    s.prefixes.predict = counting
    return rows


def test_a_dimp_hint_across_an_in_flight_completion_wastes_nothing():
    # b and c arrive after the retraining of shard 1 completes: the walk
    # replays that completion, so one batch judges all four requests
    x, a, b, c = infer(1, 11, 1.0), infer(2, 12, 2.0), infer(3, 13, 6.0), infer(4, 14, 7.0)
    runs = []
    for hint in ([a, b, c], []):
        s = make_sched("DIMP", r=5.0)
        rows = _counting_rows(s)
        s.on_unlearning_arrival(unlearn(0, 1, 0.0), 0.0)
        log = [s.on_inference_arrival(x, 1.0, lambda: hint)]
        log.append(s.on_inference_arrival(a, 2.0, lambda: hint[1:]))
        log.append(s.on_retraining_complete(5.0))
        log.append(s.on_inference_arrival(b, 6.0, lambda: hint[2:]))
        log.append(s.on_inference_arrival(c, 7.0, lambda: hint[3:]))
        assert [type(acts[0]).__name__ for acts in log if acts] == ["RequestRecord"] * 4
        runs.append((log, s.judgements, rows))
    (log, judgements, rows), (plain_log, plain_judgements, plain_rows) = runs
    assert (log, judgements) == (plain_log, plain_judgements)
    assert rows == [4] and plain_rows == [1, 1, 1, 1]


def test_the_response_plane_and_the_control_pass_share_one_batch_at_a_completion():
    # samples 3, 6 and 7 fail the check while shard 0 is impacted, sample 0
    # passes; the completion that ends the update judges the postponed three
    # and the request answered mid-update in one batch, for both planes
    s = make_sched("DUTP", K=4, C=2, accuracy=0.5, seed=0, parallel_capacity=4, r=5.0)
    rows = _counting_rows(s)
    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    assert s.on_inference_arrival(infer(1, 3, 1.0), 1.0) == []
    assert s.next_completion() == 6.0  # the update it triggers
    for rid, sample, t in ((2, 6, 2.0), (3, 7, 3.0), (4, 0, 4.0)):
        s.on_inference_arrival(infer(rid, sample, t), t)
    assert [e.responded for e in s.backlog] == [False, False, False, True]
    del rows[:]
    answered = s.on_retraining_complete(6.0)
    assert sorted(a.request_id for a in answered) == [1, 2, 3]
    assert rows == [4] and not s.backlog


@pytest.mark.parametrize("name", ["DUTP", "DTTP"])
def test_each_count_of_a_request_that_waits_through_a_trigger(name):
    # x fails the check while shard 0 is impacted and triggers its update; y
    # arrives mid-update and fails too. At the completion shard 1 is pending,
    # so both still fail and the control pass triggers again: DUTP at x, DTTP,
    # which counted x toward its window on arrival, at y
    s = make_sched(name, K=4, C=2, accuracy=0.5, seed=0, parallel_capacity=4, r=5.0)
    x, y = infer(1, 6, 1.0), infer(3, 11, 3.0)
    owner, phase, counts = {}, [None], {}
    evaluate, walk, tally = s._evaluate, s._walk, s._tally

    def evaluating(entries):
        evals = evaluate(entries)
        owner.update((id(ev), (ev, e.request.request_id)) for e, ev in zip(entries, evals))
        return evals

    def walked(request, upcoming):
        ev = walk(request, upcoming)
        owner[id(ev)] = (ev, request.request_id)
        return ev

    def tallying(ev):
        counts.setdefault((owner[id(ev)][1], phase[0]), []).append(ev.verdict)
        tally(ev)

    def entering(label, method):
        def wrapped(*args):
            phase[0] = label
            return method(*args)
        return wrapped

    s._evaluate, s._walk, s._tally = evaluating, walked, tallying
    s.on_inference_arrival = entering("arrival", s.on_inference_arrival)
    s.on_retraining_complete = entering("re-check", s.on_retraining_complete)
    s._drain = entering("control pass", s._drain)
    s.trigger_update = entering("after the trigger", s.trigger_update)

    s.on_unlearning_arrival(unlearn(0, 0, 0.0), 0.0)
    assert s.on_inference_arrival(x, 1.0) == []
    s.on_unlearning_arrival(unlearn(2, 1, 2.0), 2.0)
    assert s.on_inference_arrival(y, 3.0) == []
    assert s.on_retraining_complete(6.0) == []
    assert s.busy() and [e.request for e in s.backlog] == [x, y]
    once = ["uncertified"]
    assert counts.pop((1, "arrival")) == once
    assert counts.pop((1, "re-check")) == once
    assert counts.pop((1, "control pass")) == once
    assert counts.pop((1, "after the trigger")) == once
    assert counts.pop((3, "arrival")) == once  # mid-update, by the response plane
    assert counts.pop((3, "re-check")) == once
    if name == "DTTP":  # DUTP's trigger at x leaves y to ride along uncounted
        assert counts.pop((3, "control pass")) == once
    assert counts.pop((3, "after the trigger")) == once
    assert not counts
    assert s.judgements == s.judgements_uncertified == (8 if name == "DTTP" else 7)


def test_sisa_releases_a_foreseen_halt_without_judging_it_again():
    # the walk starts the retraining u would start and judges a and b where
    # their halt ends, after it: the release at its completion judges nothing
    x, u, a, b = infer(1, 11, 0.0), unlearn(2, 1, 1.0), infer(3, 12, 2.0), infer(4, 13, 3.0)
    runs = []
    for hint in ([u, a, b], []):
        s = make_sched("SISA", r=5.0)
        rows = _counting_rows(s)
        log = [s.on_inference_arrival(x, 0.0, lambda: hint)]
        log.append(s.on_unlearning_arrival(u, 1.0))
        log.append(s.on_inference_arrival(a, 2.0, lambda: hint[2:]))
        log.append(s.on_inference_arrival(b, 3.0, lambda: hint[3:]))
        judged = len(rows)
        log.append(s.on_retraining_complete(6.0))
        assert [a.request_id for a in log[-1]] == [3, 4]
        runs.append((log, rows, judged))
    (log, rows, judged), (plain_log, plain_rows, _) = runs
    assert log == plain_log
    assert rows == [3] and judged == 1
    assert plain_rows == [1, 2]
