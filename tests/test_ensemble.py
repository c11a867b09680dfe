import numpy as np
import pytest
from hypothesis import given, strategies as st

from eraser.ensemble import aggregate, count_votes, predict_label


def test_count_votes_basic():
    assert list(count_votes([0, 0, 1], 2)) == [2, 1]
    assert list(count_votes([1, 1, 1, 1], 3)) == [0, 4, 0]
    assert list(count_votes([0, 1, 2, 0, 1], 3)) == [2, 2, 1]


def test_count_votes_sums_to_k():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        c = int(rng.integers(2, 12))
        preds = rng.integers(0, c, k)
        counts = count_votes(preds, c)
        assert counts.sum() == k
        for y in range(c):
            assert counts[y] == int((preds == y).sum())


def test_count_votes_rejects_bad_label():
    with pytest.raises(ValueError, match="shard 2"):
        count_votes([0, 1, 5], 3)
    with pytest.raises(ValueError, match="shard 0"):
        count_votes([-1, 1], 3)


def test_count_votes_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        count_votes([0, 1], 1)
    with pytest.raises(ValueError):
        count_votes([], 3)


def test_aggregate_unique_max():
    assert aggregate([2, 1]) == 0


def test_aggregate_tie_breaks_to_smaller_label():
    assert aggregate([1, 1]) == 0
    assert aggregate([0, 3, 3]) == 1


def test_aggregate_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([0, 0, 0])
    with pytest.raises(ValueError):
        aggregate([1, -1])


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_final_label_invariant_under_shard_order(labels, rnd):
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    assert predict_label(labels, 6) == predict_label(shuffled, 6)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_winner_count_not_smaller_than_any_other(labels):
    counts = count_votes(labels, 6)
    winner = aggregate(counts)
    assert all(counts[winner] >= counts[y] for y in range(6))
    # among equal counts the winner is the smallest label
    assert all(y >= winner for y in range(6) if counts[y] == counts[winner])
