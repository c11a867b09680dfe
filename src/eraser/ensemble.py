"""Sharded-ensemble plurality vote.

The serving model is an ensemble of K constituent models, one trained per
data shard. The final label for a sample is the plurality vote over the K
per-shard predictions; ties are broken toward the smaller label index.
Labels are dense integers in [0, C) and shard ids in [0, K); both are
fixed for the lifetime of a run.
"""

from __future__ import annotations

import numpy as np


def predict_label(preds, num_classes: int) -> int:
    """Final ensemble label for one sample: the plurality of the K per-shard
    predicted labels in ``preds``, the smaller label winning a tie.

    Tallies the votes with its own ``bincount``, not the certification
    core's, so tests and the benchmark self-test can use it as an
    independent plurality.
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
    # np.argmax returns the first maximum, which is the smallest label.
    return int(np.argmax(np.bincount(p, minlength=num_classes)))
