"""The benchmark's own reference implementations.

Written from the model's specification, not imported from ``eraser``, so
that the benchmark can check the simulator's answers independently:

* the synthetic oracle: a splitmix64 chain over (seed, salt, sample,
  shard, version) with salts 0xA1 (true label), 0xA2 (accept draw),
  0xA3 (wrong label) and 0xA4 (noise label), vectorised over records and
  shards;
* plurality voting with ties going to the smaller label;
* exhaustive consistency by enumeration, once over label multisets (fast
  enough for every fuzz trial) and once over full label assignments with
  ``itertools.product`` (for a fixed sample).
"""

from __future__ import annotations

import itertools

import numpy as np

_INIT = 0x8BADF00DDEADBEEF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

SALT_TRUE = 0xA1
SALT_ACCEPT = 0xA2
SALT_WRONG = 0xA3
SALT_NOISE = 0xA4


def splitmix(*parts) -> np.ndarray:
    """splitmix64 chain from a fixed initial state; parts broadcast as uint64."""
    arrs = [np.asarray(p, dtype=np.uint64) for p in parts]
    h = np.full(np.broadcast_shapes(*(a.shape for a in arrs)), _INIT, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for a in arrs:
            h = h + np.uint64(_GAMMA) + a
            h = h ^ (h >> np.uint64(30))
            h = h * np.uint64(_MUL1)
            h = h ^ (h >> np.uint64(27))
            h = h * np.uint64(_MUL2)
            h = h ^ (h >> np.uint64(31))
    return h


def shard_labels(seed, num_classes, accuracy, samples, noise, versions) -> np.ndarray:
    """Labels of every shard model for a batch of samples.

    ``samples`` and ``noise`` have shape (N,); ``versions`` has shape (N, K)
    and holds the version each shard serves for that sample. Returns an
    int64 array of shape (N, K).
    """
    samples = np.asarray(samples, dtype=np.uint64)[:, None]
    noise = np.asarray(noise, dtype=bool)[:, None]
    versions = np.asarray(versions, dtype=np.uint64)
    shards = np.arange(versions.shape[1], dtype=np.uint64)[None, :]
    c = np.uint64(num_classes)

    true = (splitmix(seed, SALT_TRUE, samples) % c).astype(np.int64)
    threshold = min(int(round(accuracy * 2.0**64)), 2**64)
    if threshold >= 2**64:
        accept = np.ones(versions.shape, dtype=bool)
    else:
        accept = splitmix(seed, SALT_ACCEPT, samples, shards, versions) < np.uint64(threshold)
    wrong = (splitmix(seed, SALT_WRONG, samples, shards, versions) % (c - np.uint64(1))).astype(np.int64)
    wrong = np.where(wrong < true, wrong, wrong + 1)
    clean = np.where(accept, true, wrong)
    noisy = (splitmix(seed, SALT_NOISE, samples, shards, versions) % c).astype(np.int64)
    return np.where(noise, noisy, clean)


def plurality(labels, num_classes) -> np.ndarray:
    """Row-wise plurality winner of an (N, K) label array; ties to the smaller label."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = (labels[:, :, None] == np.arange(num_classes)[None, None, :]).sum(axis=1)
    return counts.argmax(axis=1)


def _winner(counts) -> int:
    best = 0
    for label in range(1, len(counts)):
        if counts[label] > counts[best]:
            best = label
    return best


def _split(preds, impacted, num_classes):
    counts = [0] * num_classes
    for label in preds:
        counts[label] += 1
    base = list(counts)
    for k in impacted:
        base[preds[k]] -= 1
    return _winner(counts), base


def consistent_by_multiset(preds, impacted, num_classes) -> bool:
    """True iff no relabelling of the impacted shards changes the winner.

    The winner depends only on how many impacted shards take each label,
    so enumerating label multisets covers every assignment.
    """
    winner, base = _split(preds, impacted, num_classes)
    for combo in itertools.combinations_with_replacement(range(num_classes), len(impacted)):
        counts = list(base)
        for label in combo:
            counts[label] += 1
        if _winner(counts) != winner:
            return False
    return True


def consistent_by_assignment(preds, impacted, num_classes) -> bool:
    """The same question answered by trying every full label assignment."""
    winner, base = _split(preds, impacted, num_classes)
    for assignment in itertools.product(range(num_classes), repeat=len(impacted)):
        counts = list(base)
        for label in assignment:
            counts[label] += 1
        if _winner(counts) != winner:
            return False
    return True
