"""Differential guard for the certification fuzzer.

``verify_cert`` reads its trials from the bit generator's 32-bit words, as
numpy's ``integers`` and ``choice`` read them, and judges them in blocks,
grouped by (K, C, m). A block is parsed with array operations, a window
of words at a time; a trial with a draw numpy would reject goes to the
scalar parser (``_bounded``, ``_choose``), which reads it from its own
first word, and the array parse resumes where the scalar one stopped.
Both parsers' draws are checked against those numpy calls themselves,
each followed by four more draws from both sides, so a parser that reads
a word too many or too few fails; so is the hand-over, by routing chosen
trials of each block through the scalar parser.
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
    next_word = experiment._Stream(np.random.default_rng(seed).bit_generator).words().__next__
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


def numpy_trial(rng, max_shards, max_classes):
    """``(k, c, m, preds, impacted)``: the five calls ``reference_report`` makes."""
    k = int(rng.integers(1, max_shards + 1))
    c = int(rng.integers(2, max_classes + 1))
    preds = rng.integers(0, c, k)
    m = int(rng.integers(0, k + 1))
    impacted = np.sort(rng.choice(k, size=m, replace=False))
    return k, c, m, preds, impacted


def count_scalar_trials(monkeypatch):
    """A list that grows by one for each trial the scalar parser takes."""
    taken, scalar_trial = [], experiment._scalar_trial

    def counted(*args):
        taken.append(args)
        return scalar_trial(*args)

    monkeypatch.setattr(experiment, "_scalar_trial", counted)
    return taken


# with up to 2**31 + 1 classes about one label draw in ten is rejected; the
# array parse's widest shape draws up to 3 * 64 + 2 words a trial
@pytest.mark.parametrize("max_shards, max_classes", [
    (8, 2**31 + 1), (experiment._ARRAY_SHARDS, 3),
])
def test_array_parse_matches_numpy_draws(monkeypatch, max_shards, max_classes):
    taken = count_scalar_trials(monkeypatch)
    count = 300
    for seed in range(3):
        stream = experiment._Stream(np.random.default_rng(seed).bit_generator)
        rng = np.random.default_rng(seed)
        shapes, rows = experiment._draw_block(stream, count, max_shards, max_classes)
        for i in range(count):
            k, c, m, preds, impacted = numpy_trial(rng, max_shards, max_classes)
            assert shapes[i].tolist() == [k, c, m], (seed, i)
            rest = np.setdiff1d(np.arange(k), impacted)
            want = preds[impacted].tolist() + preds[rest].tolist() + [0] * (max_shards - k)
            assert rows[i].tolist() == want, (seed, i)
        assert_aligned(stream.words().__next__, rng)
    if max_classes > 2**31:
        assert 0 < len(taken) < 3 * count  # both parsers took trials
    else:
        assert not taken  # no draw below 65 is rejected on these seeds


class Replay:
    """A bit generator that hands out fixed 64-bit outputs in order."""

    def __init__(self, raw):
        self.raw, self.at = raw, 0

    def random_raw(self, n):
        self.at += n
        assert self.at <= self.raw.size
        return self.raw[self.at - n:self.at]


@pytest.mark.parametrize("max_shards, max_classes", [
    (1, 3), (3, 2), (8, 4), (8, 2**31 + 1), (experiment._ARRAY_SHARDS, 3),
])
def test_array_parse_matches_the_scalar_parser_where_small_ranges_reject(
    monkeypatch, max_shards, max_classes,
):
    # a zero word is rejected for every range that is not a power of two, so
    # with one word in fifty zeroed the K, m, Floyd and shuffle draws, whose
    # ranges are at most 65, are rejected too, not only the C and label draws
    taken = count_scalar_trials(monkeypatch)
    rng = np.random.default_rng(max_shards)
    words = rng.integers(0, 2**32, 2**18, dtype=np.uint64)
    words[rng.random(words.size) < 0.02] = 0
    raw = words[0::2] | words[1::2] << np.uint64(32)
    count = 400
    stream = experiment._Stream(Replay(raw))
    shapes, rows = experiment._draw_block(stream, count, max_shards, max_classes)
    next_word = experiment._Stream(Replay(raw)).words().__next__
    handed = len(taken)
    for i in range(count):
        shape, row = experiment._scalar_trial(next_word, max_shards, max_classes)
        assert shapes[i].tolist() == list(shape), i
        assert rows[i].tolist() == row + [0] * (max_shards - len(row)), i
    words = stream.words()
    assert [next(words) for _ in range(4)] == [next_word() for _ in range(4)]
    assert 0 < handed < count  # both parsers took trials


@pytest.mark.parametrize("seed", [5, 6])
def test_scalar_parser_hands_back_inside_a_block(monkeypatch, seed):
    # the first, the last and every 7th trial of each of three blocks go to
    # the scalar parser, and the array parse takes the trials between them
    block = 60
    monkeypatch.setattr(experiment, "_FUZZ_CELLS", 8 * block)
    to_scalar = experiment._to_scalar

    def marked(rejected, index):
        return to_scalar(rejected, index) | (index % 7 == 0) | (index == block - 1)

    monkeypatch.setattr(experiment, "_to_scalar", marked)
    taken = count_scalar_trials(monkeypatch)
    trials = 3 * block
    got = fields(experiment.verify_cert(trials, 8, 4, seed))
    assert got == reference_report(trials, 8, 4, seed)
    assert len(taken) == 3 * (len(range(0, block, 7)) + 1)


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
