"""Consistency-check tests. brute_force_consistent is the ground truth the
other checks are judged against, so it gets its own independent sanity
checks first (plain itertools enumeration, no shared code path)."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eraser import certify, experiment
from eraser.certify import (
    EnumerationCapError,
    brute_force_consistent,
    certify_coarse,
    certify_fine,
    certify_fine_shared_margin,
    certify_rows,
    consistent_rows,
    judge,
)
from eraser.ensemble import predict_label


def slow_consistent(preds, impacted, num_classes):
    """Reference enumeration using itertools only."""
    preds = list(preds)
    impacted = sorted(impacted)
    base = predict_label(preds, num_classes)
    for assignment in itertools.product(range(num_classes), repeat=len(impacted)):
        trial = list(preds)
        for shard, label in zip(impacted, assignment):
            trial[shard] = label
        if predict_label(trial, num_classes) != base:
            return False
    return True


def as_mask(impacted, k):
    """The boolean (K,) mask of a set of shard ids, as the row-wise checks take it."""
    mask = np.zeros(k, dtype=bool)
    mask[list(impacted)] = True
    return mask


def test_brute_force_matches_reference_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        preds = rng.integers(0, c, k)
        m = int(rng.integers(0, k + 1))
        impacted = rng.choice(k, size=m, replace=False)
        assert brute_force_consistent(preds, impacted, c) == slow_consistent(
            preds, impacted, c
        )


def test_brute_force_examples():
    assert brute_force_consistent([0, 0, 0, 0, 1], {4}, 3) is True
    assert brute_force_consistent([0, 0, 1], {0}, 2) is False
    assert brute_force_consistent([0, 0, 1], set(), 2) is True


def test_brute_force_cap():
    # the bound is on tallies, not impacted shards: 13 over 2 classes make 14,
    # and 13 defectors outvote 12 untouched zeros where 12 do not outvote 13
    preds = [0] * 25
    assert brute_force_consistent(preds, set(range(13)), 2) is False
    assert brute_force_consistent(preds, set(range(12)), 2) is True
    # 3 over 1,000 classes make C(1002, 3) tallies, refused before the walk
    with pytest.raises(EnumerationCapError, match=(
        "^3 impacted shards over 1000 classes make 167167000 tallies, "
        "more than the enumeration bound of 1048576$"
    )):
        brute_force_consistent([0] * 20 + [1] * 3, [20, 21, 22], 1000)


def test_tally_bound_is_inclusive(monkeypatch):
    # 4 impacted shards over 3 classes make 15 tallies, 5 make 21
    monkeypatch.setattr(certify, "_MAX_TALLIES", 15)
    rows = [[0] * 6 + [1, 2, 1, 2, 1]] * 3
    assert consistent_rows(rows, range(6, 10), 3).tolist() == [True] * 3
    with pytest.raises(EnumerationCapError, match="^5 impacted shards over 3 classes make 21 "):
        consistent_rows(rows, range(6, 11), 3)


def gammas(preds, impacted, num_classes):
    """challenger -> (gamma1, gamma2, gamma3) of the fine verdict's checks."""
    v = certify_fine(preds, impacted, num_classes)
    return {c.challenger: (c.gammas.gamma1, c.gammas.gamma2, c.gammas.gamma3) for c in v.checks}


def test_gamma_counts_examples():
    assert gammas([0, 1, 2, 0], {1, 2}, 3)[1] == (0, 1, 1)
    assert gammas([0, 0, 1], {0}, 2)[1] == (1, 0, 0)
    assert gammas([0, 0, 0, 0, 1], set(), 2)[1] == (0, 0, 0)


def test_gamma_counts_sum_to_impacted_size():
    # each check splits the impacted shards by a plain count of their votes,
    # and the challengers are every label but the winner
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 10))
        c = int(rng.integers(2, 5))
        preds = rng.integers(0, c, k)
        m = int(rng.integers(0, k + 1))
        impacted = set(int(x) for x in rng.choice(k, size=m, replace=False))
        v = certify_fine(preds, impacted, c)
        assert sorted(chk.challenger for chk in v.checks) == [y for y in range(c) if y != v.winner]
        votes = [int(preds[s]) for s in impacted]
        for chk in v.checks:
            g = chk.gammas
            assert g.gamma1 + g.gamma2 + g.gamma3 == m
            assert (g.gamma1, g.gamma2) == (votes.count(v.winner), votes.count(chk.challenger))


def test_certify_fine_examples():
    v = certify_fine([0, 0, 0, 0, 1], {4}, 3)
    assert v.certified and v.winner == 0
    by_label = {c.challenger: c for c in v.checks}
    assert by_label[1].margin == 3 and by_label[1].gammas.gamma3 == 0
    assert by_label[2].margin == 4 and by_label[2].gammas.gamma3 == 1

    v = certify_fine([0, 0, 1], {0}, 2)
    assert not v.certified
    (check,) = v.checks
    assert check.gammas.gamma1 == 1 and check.margin == 1

    assert certify_fine([3, 1, 2, 0], set(), 4).certified


def test_certify_coarse_examples():
    # the discriminating instance: coarse rejects, fine certifies
    coarse = certify_coarse([0, 0, 0, 1, 1], {3, 4}, 2)
    fine = certify_fine([0, 0, 0, 1, 1], {3, 4}, 2)
    assert not coarse.certified and fine.certified
    assert brute_force_consistent([0, 0, 0, 1, 1], {3, 4}, 2)

    assert certify_coarse([1, 0, 2], set(), 3).certified
    assert certify_coarse([0, 0, 0, 0, 1], {4}, 3).certified


def test_verdict_reports_winner_and_all_challengers():
    v = certify_fine([2, 2, 0, 1], {0}, 4)
    assert v.winner == 2
    assert sorted(c.challenger for c in v.checks) == [0, 1, 3]
    assert v.certified == all(c.satisfied for c in v.checks)


def test_shared_margin_reading_is_unsound():
    # strong challenger hides behind the weakest challenger's margin
    preds = [0, 0, 0, 0, 1, 1, 1, 2]
    impacted = {3, 7}
    assert certify_fine_shared_margin(preds, impacted, 3).certified
    assert not certify_fine(preds, impacted, 3).certified
    assert not brute_force_consistent(preds, impacted, 3)


_instances = st.integers(2, 8).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(2, 4),
        st.lists(st.integers(0, 3), min_size=k, max_size=k),
        st.sets(st.integers(0, k - 1)),
    )
)


@settings(max_examples=300, deadline=None)
@given(_instances)
def test_fine_certification_sound_and_exact(inst):
    k, c, raw, impacted = inst
    preds = [label % c for label in raw]
    fine = certify_fine(preds, impacted, c).certified
    # sound: a certificate implies no enumeration counterexample; for this
    # per-challenger condition the converse holds as well
    assert fine == brute_force_consistent(preds, impacted, c)


@settings(max_examples=300, deadline=None)
@given(_instances)
def test_hot_path_check_matches_the_verdict(inst):
    # C=2, an empty impacted set and vote ties are all in the strategy
    k, c, raw, impacted = inst
    preds = [label % c for label in raw]
    ok, winner, top = judge([preds], as_mask(impacted, k), c)
    v = certify_fine(preds, impacted, c)
    assert (bool(ok[0]), int(winner[0])) == (v.certified, v.winner)
    assert ok[0] == brute_force_consistent(preds, impacted, c)
    assert top[0] == preds.count(v.winner)


def _row_batches(max_k, max_rows):
    """(K, C, rows, impacted): up to ``max_rows`` rows sharing one impacted set."""
    return st.tuples(st.integers(1, max_k), st.integers(2, 5)).flatmap(
        lambda kc: st.tuples(
            st.just(kc[0]),
            st.just(kc[1]),
            st.lists(
                st.lists(st.integers(0, kc[1] - 1), min_size=kc[0], max_size=kc[0]),
                min_size=1,
                max_size=max_rows,
            ),
            st.sets(st.integers(0, kc[0] - 1)),
        )
    )


_batches = _row_batches(9, 12)


@settings(max_examples=200, deadline=None)
@given(_batches)
def test_row_wise_judgement_matches_the_verdicts_row_by_row(batch):
    k, c, rows, impacted = batch
    fine, winner, top = judge(rows, as_mask(impacted, k), c)
    coarse, coarse_winner, _ = judge(rows, as_mask(impacted, k), c, coarse=True)
    assert (coarse_winner == winner).all()
    for b, preds in enumerate(rows):
        v = certify_fine(preds, impacted, c)
        assert (bool(fine[b]), int(winner[b])) == (v.certified, v.winner)
        assert top[b] == preds.count(v.winner)
        assert bool(coarse[b]) == certify_coarse(preds, impacted, c).certified
        if len(impacted) <= 6:
            assert fine[b] == brute_force_consistent(preds, impacted, c)


_per_row_sets = st.tuples(st.integers(1, 8), st.integers(2, 4)).flatmap(
    lambda kc: st.tuples(
        st.just(kc[0]),
        st.just(kc[1]),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, kc[1] - 1), min_size=kc[0], max_size=kc[0]),
                st.sets(st.integers(0, kc[0] - 1)),
            ),
            min_size=1,
            max_size=12,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(_per_row_sets)
def test_per_row_masks_judge_each_row_under_its_own_set(batch):
    k, c, pairs = batch
    rows = [preds for preds, _ in pairs]
    masks = np.array([as_mask(impacted, k) for _, impacted in pairs])
    fine, winner, top = judge(rows, masks, c)
    coarse, _, _ = judge(rows, masks, c, coarse=True)
    for b, (preds, impacted) in enumerate(pairs):
        v = certify_fine(preds, impacted, c)
        assert (bool(fine[b]), int(winner[b])) == (v.certified, v.winner)
        assert top[b] == preds.count(v.winner)
        assert bool(coarse[b]) == certify_coarse(preds, impacted, c).certified
        assert fine[b] == consistent_rows([preds], sorted(impacted), c)[0]


def test_row_wise_judgement_rejects_labels_out_of_range():
    with pytest.raises(ValueError, match="shard 2 predicts label 3"):
        judge([[0, 1, 1], [0, 1, 3]], as_mask((), 3), 3)
    with pytest.raises(ValueError, match="shard 0 predicts label -1"):
        judge([[0, 1, 1], [-1, 1, 2]], as_mask({1}, 3), 3)
    with pytest.raises(ValueError):
        certify_fine([0, 3], set(), 3)
    # shard ids are not a mask: [0, 2] would read as "shard 1 only"
    with pytest.raises(ValueError, match="bool mask"):
        judge([[0, 1, 1]], [0, 2], 3)
    with pytest.raises(ValueError, match="bool mask"):
        judge([[0, 1, 1]], False, 3)


@settings(max_examples=300, deadline=None)
@given(_instances)
def test_coarse_never_certifies_beyond_fine(inst):
    k, c, raw, impacted = inst
    preds = [label % c for label in raw]
    if certify_coarse(preds, impacted, c).certified:
        assert certify_fine(preds, impacted, c).certified


@settings(max_examples=300, deadline=None)
@given(_instances)
def test_gamma1_same_for_every_challenger(inst):
    k, c, raw, impacted = inst
    preds = [label % c for label in raw]
    v = certify_fine(preds, impacted, c)
    gamma1s = {chk.gammas.gamma1 for chk in v.checks}
    assert len(gamma1s) == 1


@settings(max_examples=200, deadline=None)
@given(_instances, st.integers(0, 7))
def test_growing_impacted_set_never_rescues_certification(inst, extra):
    k, c, raw, impacted = inst
    preds = [label % c for label in raw]
    if certify_fine(preds, impacted, c).certified:
        return
    larger = set(impacted) | {extra % k}
    assert not certify_fine(preds, larger, c).certified


_shared_sets = _row_batches(8, 20)


@settings(max_examples=200, deadline=None)
@given(_shared_sets)
def test_row_wise_enumeration_matches_each_row_alone(batch):
    k, c, rows, impacted = batch
    got = consistent_rows(rows, sorted(impacted), c)
    assert got.shape == (len(rows),)
    for b, preds in enumerate(rows):
        assert bool(got[b]) == brute_force_consistent(preds, impacted, c)
        # the itertools walk is slow; above 625 assignments the one-row call
        # stands in, checked against it by the reference-enumeration test
        if c ** len(impacted) <= 625:
            assert bool(got[b]) == slow_consistent(preds, impacted, c)


@settings(max_examples=200, deadline=None)
@given(_shared_sets)
def test_row_wise_certificates_match_the_verdicts_row_by_row(batch):
    k, c, rows, impacted = batch
    fine, coarse, shared = certify_rows(rows, as_mask(impacted, k), c)
    for b, preds in enumerate(rows):
        assert bool(fine[b]) == certify_fine(preds, impacted, c).certified
        assert bool(coarse[b]) == certify_coarse(preds, impacted, c).certified
        assert bool(shared[b]) == certify_fine_shared_margin(preds, impacted, c).certified


_wide_batches = st.tuples(st.integers(1, 8), st.integers(2, 6)).flatmap(
    lambda kc: st.tuples(
        st.just(kc[0]),
        st.just(kc[1]),
        st.lists(
            st.lists(st.integers(0, kc[1] - 1), min_size=kc[0], max_size=kc[0]),
            min_size=1,
            max_size=4,
        ),
        st.sets(st.integers(0, kc[0] - 1)).filter(lambda s, c=kc[1]: c ** len(s) <= 1024),
    )
)


@settings(max_examples=150, deadline=None)
@given(_wide_batches)
def test_tally_walk_matches_the_assignment_walk(batch):
    # up to 6 classes, where tallies and assignments part ways the most
    k, c, rows, impacted = batch
    got = consistent_rows(rows, sorted(impacted), c)
    assert got.tolist() == [slow_consistent(preds, impacted, c) for preds in rows]


def test_tally_walk_matches_the_fine_test_beyond_the_assignment_walk():
    # m=12, C=5: 244,140,625 assignments but 1,820 tallies. The fine test is
    # exact, so the two independent implementations must agree row by row.
    rng = np.random.default_rng(7)
    k, c, m = 40, 5, 12
    lead = rng.integers(0, c, 50)
    # each row's shards vote its lead label with its own odds, the rest at random
    loyalty = rng.uniform(0.3, 1.0, (50, 1))
    rows = np.where(rng.random((50, k)) < loyalty, lead[:, None], rng.integers(0, c, (50, k)))
    got = consistent_rows(rows, range(m), c)
    want = [certify_fine(row, range(m), c).certified for row in rows]
    assert got.tolist() == want
    assert 0 < sum(want) < 50


@pytest.mark.parametrize(
    "impacted, message",
    [
        # counted twice, shard 0 would move twice: [False], where the set {0} keeps label 0
        ([0, 0], "duplicate"),
        ([-1], r"lie in \[0, 5\)"),  # not shard 4
        ([5], r"lie in \[0, 5\)"),
    ],
    ids=["duplicate", "negative", "past-the-last-shard"],
)
def test_row_wise_enumeration_rejects_bad_impacted_ids(impacted, message):
    assert consistent_rows([[0, 0, 0, 0, 1]], [0], 2).tolist() == [True]
    with pytest.raises(ValueError, match=message):
        consistent_rows([[0, 0, 0, 0, 1]], impacted, 2)


def test_enumeration_memory_stays_bounded():
    # C=6, m=8: 1,287 tallies (of 1,679,616 assignments), all enumerated (20
    # untouched votes for label 0 outlast any 8 movers); a full (C^m, C) int64
    # table of the assignments would be 80 MB
    preds = [0] * 20 + [1, 2, 3, 4, 5, 1, 2, 3]
    tracemalloc.start()
    try:
        assert brute_force_consistent(preds, range(20, 28), 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fuzz_memory_stays_bounded():
    # a certfuzz round: one block of 16,000 trials, drawn a window of words at
    # a time and judged by (K, C, m) group
    tracemalloc.start()
    try:
        experiment.verify_cert(16000, 8, 4, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_enumeration_memory_stays_bounded_on_a_wide_label_space():
    # C=500, m=2: 125,250 tallies, all enumerated (3 untouched votes for label
    # 0 outlast 2 movers); a full (C^m, C) int64 table of the assignments
    # would be about 1 GB
    tracemalloc.start()
    try:
        assert consistent_rows([[0, 0, 0, 1, 2]], [3, 4], 500).tolist() == [True]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
