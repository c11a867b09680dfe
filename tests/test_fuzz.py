"""Differential guard for the certification fuzzer.

``verify_cert`` parses its trials in one pass from the bit generator's
32-bit words, as numpy's ``integers`` and ``choice`` read them, and judges
them in blocks, grouped by (K, C, m). The parser's draws are checked
against those numpy calls themselves, each followed by four more draws
from both sides, so a parser that reads a word too many or too few fails.
The reference report below is the per-trial loop it replaced: the
``Generator`` calls themselves, in the same order, each instance judged
alone by the three verdict functions, with ground truth from a copy of
the per-instance enumeration that shares no code with the row-wise one.
"""

import dataclasses

import numpy as np
import pytest

from eraser import experiment
from eraser.certify import (
    EnumerationCapError,
    certify_coarse,
    certify_fine,
    certify_fine_shared_margin,
)


def reference_consistent(preds, impacted, num_classes, cap=12):
    """One instance, every assignment, chunk by chunk of 65,536 codes."""
    p = np.asarray(preds, dtype=np.int64)
    counts = np.bincount(p, minlength=num_classes)
    winner = int(np.argmax(counts))  # the first maximum: ties go to the smaller label
    idx = np.asarray(sorted(impacted), dtype=np.int64)
    m = int(idx.size)
    if m == 0:
        return True
    if m > cap:
        raise EnumerationCapError(
            f"{m} impacted shards exceed the enumeration cap of {cap}; "
            f"reduce the instance size or raise the cap"
        )
    base = counts - np.bincount(p[idx], minlength=num_classes)
    total = num_classes**m
    radix = num_classes ** np.arange(m, dtype=np.int64)
    for start in range(0, total, 1 << 16):
        codes = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        digits = (codes[:, None] // radix[None, :]) % num_classes
        trial = np.broadcast_to(base, (codes.size, num_classes)).copy()
        rows = np.arange(codes.size)
        for j in range(m):
            trial[rows, digits[:, j]] += 1
        if not (np.argmax(trial, axis=1) == winner).all():
            return False
    return True


def parser_and_generator(seed):
    """The parser's word reader and a ``Generator``, both fresh from ``seed``."""
    next_word = experiment._words(np.random.default_rng(seed).bit_generator).__next__
    return next_word, np.random.default_rng(seed)


def assert_aligned(next_word, rng):
    """Both sides are at the same word: their next draws agree."""
    for _ in range(4):
        assert experiment._bounded(next_word, 999) == rng.integers(0, 1000)


# 2**31 rejects about half the words; 2**32 - 1 is numpy's plain 32-bit path
@pytest.mark.parametrize("r", [0, 1, 7, 2**31, 2**32 - 1])
def test_bounded_matches_scalar_integers(r):
    for seed in range(4):
        next_word, rng = parser_and_generator(seed)
        for _ in range(100):
            assert experiment._bounded(next_word, r) == rng.integers(0, r + 1)
        assert_aligned(next_word, rng)


@pytest.mark.parametrize("c", [2, 3, 5, 2**31 + 1])
def test_bounded_matches_vector_integers(c):
    for seed, k in [(0, 1), (1, 8), (2, 200)]:
        next_word, rng = parser_and_generator(seed)
        got = [experiment._bounded(next_word, c - 1) for _ in range(k)]
        assert got == rng.integers(0, c, k).tolist()
        assert_aligned(next_word, rng)


# numpy takes Floyd's algorithm unless k > 10,000 and m > k // 50, where it
# shuffles the tail of arange(k) instead
@pytest.mark.parametrize("k, m", [
    (1, 0), (1, 1), (8, 0), (8, 1), (8, 3), (8, 8), (10_000, 5_000),
    (20_000, 1), (20_000, 400), (20_000, 401), (20_000, 20_000),
])
def test_choose_matches_choice_without_replacement(k, m):
    for seed in range(3):
        next_word, rng = parser_and_generator(seed)
        chosen = experiment._choose(next_word, k, m)
        assert chosen == set(rng.choice(k, size=m, replace=False).tolist())
        assert_aligned(next_word, rng)


def reference_report(trials, max_shards, max_classes, seed, enumeration_cap=12):
    """Every ``FuzzReport`` field but ``elapsed_seconds``, one trial at a time."""
    rng = np.random.default_rng(seed)
    tally = dict(trials=trials, soundness_violations=0, dominance_violations=0,
                 shared_margin_counterexamples=0, fine_certified=0,
                 coarse_certified=0, brute_consistent=0, fine_incompleteness_gap=0)
    for _ in range(trials):
        k = int(rng.integers(1, max_shards + 1))
        c = int(rng.integers(2, max_classes + 1))
        preds = rng.integers(0, c, k)
        m = int(rng.integers(0, k + 1))
        impacted = np.sort(rng.choice(k, size=m, replace=False))
        fine = certify_fine(preds, impacted, c).certified
        coarse = certify_coarse(preds, impacted, c).certified
        shared = certify_fine_shared_margin(preds, impacted, c).certified
        brute = reference_consistent(preds, impacted, c, cap=enumeration_cap)
        tally["fine_certified"] += fine
        tally["coarse_certified"] += coarse
        tally["brute_consistent"] += brute
        tally["soundness_violations"] += fine and not brute
        tally["dominance_violations"] += coarse and not fine
        tally["shared_margin_counterexamples"] += shared and not brute
        tally["fine_incompleteness_gap"] += brute and not fine
    return tally


def fields(report):
    out = dataclasses.asdict(report)
    del out["elapsed_seconds"]
    return out


@pytest.mark.parametrize("max_classes", [2, 3, 5])
@pytest.mark.parametrize("max_shards", [1, 3, 8, 10])
def test_report_matches_the_per_trial_reference(max_shards, max_classes):
    for seed in (3, 4):
        for trials in (0, 1, 500):
            got = fields(experiment.verify_cert(trials, max_shards, max_classes, seed))
            assert got == reference_report(trials, max_shards, max_classes, seed), (
                trials, seed,
            )
            assert all(type(v) is int for v in got.values())


@pytest.mark.parametrize("block", [1, 7, 64])
def test_trials_crossing_block_boundaries(monkeypatch, block):
    # the block is a module constant; a small one crosses many boundaries
    trials = 3 * 64 + 5
    want = reference_report(trials, 8, 4, seed=9)
    monkeypatch.setattr(experiment, "_FUZZ_CELLS", 8 * block)
    assert fields(experiment.verify_cert(trials, 8, 4, seed=9)) == want


@pytest.mark.parametrize("max_shards, cap, seed", [
    (8, 4, 0), (8, 4, 1), (8, 4, 2), (14, 12, 3),
    # a block of one trial: the first draw raises, with no block-sized buffer
    (10**5, 12, 0),
])
def test_enumeration_cap_fails_on_the_same_draw(max_shards, cap, seed):
    with pytest.raises(EnumerationCapError) as want:
        reference_report(2000, max_shards, 3, seed, enumeration_cap=cap)
    with pytest.raises(EnumerationCapError) as got:
        experiment.verify_cert(2000, max_shards, 3, seed, enumeration_cap=cap)
    assert str(got.value) == str(want.value)


def test_negative_trials_are_rejected():
    with pytest.raises(ValueError, match="trials must be >= 0, got -5"):
        experiment.verify_cert(-5)
