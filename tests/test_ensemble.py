import numpy as np
import pytest
from hypothesis import given, strategies as st

from eraser.ensemble import predict_label


def test_predict_label_basic():
    assert predict_label([0, 0, 1], 2) == 0
    assert predict_label([1, 1, 1, 1], 3) == 1
    assert predict_label([0, 1, 2, 2, 1, 2], 3) == 2


def test_predict_label_sums_to_k():
    # the winner is the label with the most of the K votes, per a plain count
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        c = int(rng.integers(2, 12))
        preds = rng.integers(0, c, k)
        counts = [int((preds == y).sum()) for y in range(c)]
        assert sum(counts) == k
        assert predict_label(preds, c) == counts.index(max(counts))


def test_predict_label_rejects_bad_label():
    with pytest.raises(ValueError, match="shard 2"):
        predict_label([0, 1, 5], 3)
    with pytest.raises(ValueError, match="shard 0"):
        predict_label([-1, 1], 3)


def test_predict_label_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        predict_label([0, 1], 1)
    with pytest.raises(ValueError):
        predict_label([], 3)


def test_aggregate_unique_max():
    assert predict_label([1, 0, 0], 2) == 0
    assert predict_label([2, 1, 2], 3) == 2


def test_aggregate_tie_breaks_to_smaller_label():
    assert predict_label([1, 0], 2) == 0
    assert predict_label([2, 1, 1, 2], 3) == 1


def test_aggregate_rejects_empty_and_zero():
    # no votes at all, or votes that are not one row of K labels
    with pytest.raises(ValueError):
        predict_label(np.array([], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        predict_label([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError):
        predict_label(0, 2)


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
    counts = np.bincount(labels, minlength=6)
    winner = predict_label(labels, 6)
    assert all(counts[winner] >= counts[y] for y in range(6))
    # among equal counts the winner is the smallest label
    assert all(y >= winner for y in range(6) if counts[y] == counts[winner])
