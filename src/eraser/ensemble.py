"""Sharded-ensemble vote counting and aggregation.

The serving model is an ensemble of K constituent models, one trained per
data shard. The final label for a sample is the plurality vote over the K
per-shard predictions; ties are broken toward the smaller label index.
Labels are dense integers in [0, C) and shard ids in [0, K); both are
fixed for the lifetime of a run.
"""

from __future__ import annotations

import numpy as np


def count_votes(preds, num_classes: int) -> np.ndarray:
    """Count how many shards predict each label.

    ``preds`` is the length-K sequence of per-shard predicted labels.
    Returns an int64 array of length ``num_classes`` whose entries sum
    to K.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    p = np.asarray(preds, dtype=np.int64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("preds must be a non-empty 1-d sequence of labels")
    bad = np.nonzero((p < 0) | (p >= num_classes))[0]
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"shard {k} predicts label {int(p[k])}, outside [0, {num_classes})"
        )
    return np.bincount(p, minlength=num_classes)


def aggregate(counts) -> int:
    """Plurality winner of a vote count, smaller label winning ties."""
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("counts must be a non-empty 1-d sequence")
    if (c < 0).any():
        raise ValueError("counts must be non-negative")
    if not c.any():
        raise ValueError("counts sum to zero; nothing to aggregate")
    # np.argmax returns the first maximum, which is the smallest label.
    return int(np.argmax(c))


def predict_label(preds, num_classes: int) -> int:
    """Final ensemble label for one sample: ``aggregate(count_votes(...))``."""
    return aggregate(count_votes(preds, num_classes))
