"""Differential guard for the certification fuzzer.

``verify_cert`` reads its trials from the bit generator's 32-bit words, as
numpy's ``integers`` and ``choice`` read them, and judges them in blocks,
grouped by (K, C, m). ``_draw_block`` parses a block with array
operations, a window of words at a time; at a trial with a draw numpy
would reject, it drops the word numpy drops and parses the window again
from that trial's first word. The parse is checked against numpy's calls
themselves, and, on streams with words zeroed so that every kind of draw
is rejected, against a word-by-word reference (``bounded``, ``choose``,
``reference_trial``) that reads the raw outputs itself and is checked
against numpy in turn. Each check is followed by the next four words from
both sides, so a parse that reads a word too many or too few fails.
The reference report below is the per-trial loop the fuzzer replaced: the
``Generator`` calls themselves, in the same order, each instance judged
alone by the three verdict functions, with ground truth from a copy of
the per-instance enumeration that shares no code with the row-wise one.
"""

import dataclasses
import math

import numpy as np
import pytest

from eraser import certify, experiment
from eraser.certify import (
    EnumerationCapError,
    certify_coarse,
    certify_fine,
    certify_fine_shared_margin,
)


def reference_consistent(preds, impacted, num_classes):
    """One instance, every assignment, chunk by chunk of 65,536 codes."""
    p = np.asarray(preds, dtype=np.int64)
    counts = np.bincount(p, minlength=num_classes)
    winner = int(np.argmax(counts))  # the first maximum: ties go to the smaller label
    idx = np.asarray(sorted(impacted), dtype=np.int64)
    m = int(idx.size)
    if m == 0:
        return True
    tallies, bound = math.comb(m + num_classes - 1, m), certify._MAX_TALLIES
    if tallies > bound:
        raise EnumerationCapError(
            f"{m} impacted shards over {num_classes} classes make {tallies} tallies, "
            f"more than the enumeration bound of {bound}"
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


class Words:
    """numpy's 32-bit words, read straight from a bit generator's 64-bit
    outputs: each output's low half, then its high half. A call reads the
    next word; ``ahead(n)`` shows the next ``n``, unread."""

    def __init__(self, bit_generator):
        self.bit_generator, self.words, self.at = bit_generator, [], 0

    def ahead(self, n):
        while len(self.words) < self.at + n:
            for out in self.bit_generator.random_raw(64).tolist():
                self.words += [out & 0xFFFF_FFFF, out >> 32]
        return self.words[self.at:self.at + n]

    def __call__(self):
        word, = self.ahead(1)
        self.at += 1
        return word


def bounded(next_word, r):
    """``Generator.integers(0, r + 1)`` for ``r < 2**32``: Lemire's
    multiply-shift, with numpy's rejection of a word whose product's low
    half is below ``2**32 % (r + 1)``."""
    if r == 0:  # numpy reads no word for a range of one value
        return 0
    x = next_word() * (r + 1)
    while (x & 0xFFFF_FFFF) < 2**32 % (r + 1):
        x = next_word() * (r + 1)
    return x >> 32


def choose(next_word, k, m):
    """The set ``Generator.choice(k, m, replace=False)`` returns for
    ``k <= 10,000`` (numpy shuffles the tail of ``arange(k)`` above that
    when ``m > k // 50``): Floyd's algorithm, then the m - 1 draws of a
    shuffle."""
    chosen = set()
    for j in range(k - m, k):
        v = bounded(next_word, j)
        chosen.add(j if v in chosen else v)
    for i in range(m - 1, 0, -1):
        bounded(next_word, i)
    return chosen


def reference_trial(next_word, max_shards, max_classes):
    """One trial read word by word: its (K, C, m) and its predictions with
    the impacted shards first."""
    k = 1 + bounded(next_word, max_shards - 1)
    c = 2 + bounded(next_word, max_classes - 2)
    preds = [bounded(next_word, c - 1) for _ in range(k)]
    m = bounded(next_word, k)
    chosen = choose(next_word, k, m)
    row = [preds[j] for j in sorted(chosen)]
    row += [p for j, p in enumerate(preds) if j not in chosen]
    return [k, c, m], row


def words_and_generator(seed):
    """The reference's word reader and a ``Generator``, both fresh from ``seed``."""
    return Words(np.random.default_rng(seed).bit_generator), np.random.default_rng(seed)


def assert_aligned(next_word, rng):
    """Both sides are at the same word: their next draws agree."""
    for _ in range(4):
        assert bounded(next_word, 999) == rng.integers(0, 1000)


# 2**31 rejects about half the words; 2**32 - 1 is numpy's plain 32-bit path
@pytest.mark.parametrize("r", [0, 1, 7, 2**31, 2**32 - 1])
def test_bounded_matches_scalar_integers(r):
    for seed in range(4):
        next_word, rng = words_and_generator(seed)
        for _ in range(100):
            assert bounded(next_word, r) == rng.integers(0, r + 1)
        assert_aligned(next_word, rng)


@pytest.mark.parametrize("c", [2, 3, 5, 2**31 + 1])
def test_bounded_matches_vector_integers(c):
    for seed, k in [(0, 1), (1, 8), (2, 200)]:
        next_word, rng = words_and_generator(seed)
        got = [bounded(next_word, c - 1) for _ in range(k)]
        assert got == rng.integers(0, c, k).tolist()
        assert_aligned(next_word, rng)


@pytest.mark.parametrize("k, m", [
    (1, 0), (1, 1), (8, 0), (8, 1), (8, 3), (8, 8), (64, 64), (10_000, 5_000),
])
def test_choose_matches_choice_without_replacement(k, m):
    for seed in range(3):
        next_word, rng = words_and_generator(seed)
        chosen = choose(next_word, k, m)
        assert chosen == set(rng.choice(k, size=m, replace=False).tolist())
        assert_aligned(next_word, rng)


def reference_report(trials, max_shards, max_classes, seed):
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
        brute = reference_consistent(preds, impacted, c)
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


def count_dropped_words(monkeypatch):
    """A list that grows by one for each word the parse drops."""
    dropped, drop = [], experiment._Stream.drop

    def counted(stream, i):
        dropped.append(i)
        return drop(stream, i)

    monkeypatch.setattr(experiment._Stream, "drop", counted)
    return dropped


# with up to 2**31 + 1 classes about one label draw in ten is rejected; the
# parse's widest shape draws up to 3 * 64 + 2 words a trial
@pytest.mark.parametrize("max_shards, max_classes", [
    (8, 2**31 + 1), (experiment._MAX_SHARDS, 3),
])
def test_array_parse_matches_numpy_draws(monkeypatch, max_shards, max_classes):
    dropped = count_dropped_words(monkeypatch)
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
        # numpy's plain 32-bit path hands out the next words as they are
        assert stream.ahead(4).tolist() == rng.integers(0, 2**32, 4).tolist()
    if max_classes > 2**31:
        assert dropped  # at least one word was dropped
    else:
        assert not dropped  # no draw below 65 is rejected on these seeds


class Replay:
    """A bit generator that hands out fixed 64-bit outputs in order."""

    def __init__(self, raw):
        self.raw, self.at = raw, 0

    def random_raw(self, n):
        self.at += n
        assert self.at <= self.raw.size
        return self.raw[self.at - n:self.at]


def zeroed_outputs(seed):
    """2**17 64-bit outputs with one 32-bit word in fifty zeroed. A zero word
    is rejected for every range that is not a power of two, so the K, m,
    Floyd and shuffle draws, whose ranges are at most 65, are rejected too,
    not only the C and label draws."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**32, 2**18, dtype=np.uint64)
    words[rng.random(words.size) < 0.02] = 0
    return words[0::2] | words[1::2] << np.uint64(32)


def assert_block_matches_the_reference(shapes, rows, next_word, max_shards, max_classes):
    for i in range(len(shapes)):
        shape, row = reference_trial(next_word, max_shards, max_classes)
        assert shapes[i].tolist() == shape, i
        assert rows[i].tolist() == row + [0] * (max_shards - len(row)), i


@pytest.mark.parametrize("max_shards, max_classes", [
    (1, 3), (3, 2), (8, 4), (8, 2**31 + 1), (experiment._MAX_SHARDS, 3),
])
def test_array_parse_matches_the_scalar_parser_where_small_ranges_reject(
    monkeypatch, max_shards, max_classes,
):
    dropped = count_dropped_words(monkeypatch)
    raw = zeroed_outputs(max_shards)
    stream = experiment._Stream(Replay(raw))
    shapes, rows = experiment._draw_block(stream, 400, max_shards, max_classes)
    next_word = Words(Replay(raw))
    assert_block_matches_the_reference(shapes, rows, next_word, max_shards, max_classes)
    assert stream.ahead(4).tolist() == next_word.ahead(4)
    assert dropped  # at least one word was dropped


@pytest.mark.parametrize("seed", [5, 6])
def test_blocks_of_a_zeroed_stream_resume_where_the_last_stopped(monkeypatch, seed):
    # each block starts at the word after the last one the block before read,
    # dropped words included
    dropped = count_dropped_words(monkeypatch)
    raw = zeroed_outputs(seed)
    stream, next_word = experiment._Stream(Replay(raw)), Words(Replay(raw))
    for count in (1, 2, 7, 13, 60):
        shapes, rows = experiment._draw_block(stream, count, 8, 4)
        assert_block_matches_the_reference(shapes, rows, next_word, 8, 4)
        assert stream.ahead(4).tolist() == next_word.ahead(4), count
    assert dropped  # at least one word was dropped


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


# the tally bound is lowered to the tallies of m impacted shards over 3
# classes, so the first trial of C = 3 with more impacted shards raises
@pytest.mark.parametrize("max_shards, m, seed", [
    (8, 4, 0), (8, 4, 1), (8, 4, 2), (14, 12, 3),
])
def test_enumeration_cap_fails_on_the_same_draw(monkeypatch, max_shards, m, seed):
    monkeypatch.setattr(certify, "_MAX_TALLIES", math.comb(m + 2, m))
    with pytest.raises(EnumerationCapError) as want:
        reference_report(2000, max_shards, 3, seed)
    with pytest.raises(EnumerationCapError) as got:
        experiment.verify_cert(2000, max_shards, 3, seed)
    assert str(got.value) == str(want.value)


def test_the_simulators_default_shard_count_is_fuzzed():
    # K = 20 and C = 3 make at most C(22, 20) = 231 tallies a trial
    report = experiment.verify_cert(2000, 20, 3, 4)
    assert report.ok and report.trials == 2000


def test_more_than_64_shards_are_refused_before_drawing(monkeypatch):
    def draw_block(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiment, "_draw_block", draw_block)
    for max_shards in (experiment._MAX_SHARDS + 1, 10**5):
        with pytest.raises(ValueError, match="and max_shards at most 64$"):
            experiment.verify_cert(2000, max_shards, 3, 0)


def test_more_than_2_20_classes_are_refused_before_drawing(monkeypatch):
    # one impacted shard over C classes makes C tallies, so any trial with
    # C > 2**20 and m >= 1 is over the bound; 2**20 itself is accepted
    def draw_block(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiment, "_draw_block", draw_block)
    for max_classes in (2**20 + 1, 2**31 + 1):
        message = rf"^max_classes must be at most 2\*\*20, got {max_classes}:"
        with pytest.raises(ValueError, match=message):
            experiment.verify_cert(2000, 8, max_classes, 0)
    assert experiment.verify_cert(0, 8, 2**20, 0).trials == 0


def test_blocks_are_sized_by_the_wider_of_shards_and_classes(monkeypatch):
    counts = []
    draw_block = experiment._draw_block

    def counted(stream, count, *args):
        counts.append(count)
        return draw_block(stream, count, *args)

    monkeypatch.setattr(experiment, "_draw_block", counted)
    monkeypatch.setattr(experiment, "_FUZZ_CELLS", 64)
    assert fields(experiment.verify_cert(10, 8, 16, seed=2)) == reference_report(10, 8, 16, 2)
    assert counts == [4, 4, 2]  # 64 cells over 16 classes, not over 8 shards


def test_negative_trials_are_rejected():
    with pytest.raises(ValueError, match="trials must be >= 0, got -5"):
        experiment.verify_cert(-5)
