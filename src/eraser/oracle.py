"""Constituent-model prediction oracle.

The simulator never trains real models. Instead, every (sample, shard,
version) triple maps deterministically to a label:

* synthetic backend — a seeded counter-based hash decides, per triple,
  whether the shard predicts the sample's true label (with probability
  ``accuracy``) or a uniformly random wrong label. Noise samples (the
  hard-to-classify adversarial inputs) draw uniformly over all classes
  regardless of accuracy. Retraining a shard (version bump) resamples its
  prediction independently, matching the worst-case stance of the
  consistency analysis; an optional ``flip_probability`` makes retrained
  models keep their previous prediction with probability 1-p instead.
* trace backend — predictions replayed from a file exported by real
  models (format below), for driving the simulator with measured data.

Synthetic predictions take one path: :class:`SamplePrefixes` hashes each
sample's (seed, salt, sample, shard) prefixes and true label once, and its
``predict`` folds only the version into them, for a batch of samples in one
array pass; the flip extension first maps every version to its last flip
over the same batch, and the replay audit builds such a table for its
records too. The trace backend looks each label up in its table instead.
:func:`predict` is the per-prediction definition those paths must match.

Trace file format (UTF-8)::

    eraser-trace v1 C=<int> K=<int>
    <sample_id>,<shard_id>,<version>,<label>,<confidence>

with one record per line and confidence a decimal in [0, 1]. The
confidence is validated but not kept: only the label drives a vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hashing import hash_threshold, mix64, mix64_array_chain

_SALT_TRUE = 0xA1
_SALT_ACCEPT = 0xA2
_SALT_WRONG = 0xA3
_SALT_NOISE = 0xA4
_SALT_FLIP = 0xA5

_MASK = 0xFFFFFFFFFFFFFFFF


class TraceError(ValueError):
    """Raised for malformed trace files or missing trace entries."""


@dataclass(frozen=True)
class SampleId:
    """One inference sample: integer identity, noise flag, ground-truth label."""

    value: int
    is_noise: bool
    true_label: int


@dataclass(frozen=True)
class PredictionTrace:
    """In-memory replay table: (sample, shard, version) -> label."""

    num_classes: int
    num_shards: int
    entries: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OracleConfig:
    num_classes: int
    num_shards: int
    accuracy: float
    seed: int
    backend: str = "synthetic"
    trace: PredictionTrace | None = None
    flip_probability: float | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.backend not in ("synthetic", "trace"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "trace" and self.trace is None:
            raise ValueError("trace backend requires a loaded PredictionTrace")
        if self.backend == "trace" and self.trace.num_classes != self.num_classes:
            raise ValueError(f"num_classes is {self.num_classes}; the trace has C={self.trace.num_classes}")
        if self.backend == "trace" and self.trace.num_shards != self.num_shards:
            raise ValueError(f"num_shards is {self.num_shards}; the trace has K={self.trace.num_shards}")
        if self.flip_probability is not None and not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")


def sample_for(cfg: OracleConfig, sample_value: int, is_noise: bool = False) -> SampleId:
    """Build the SampleId for a raw workload sample id; its ground-truth
    label derives from the oracle seed."""
    true_label = mix64(cfg.seed, _SALT_TRUE, sample_value) % cfg.num_classes
    return SampleId(sample_value, is_noise, true_label)


def _fresh_label(cfg, sample, shard, version) -> int:
    if sample.is_noise:
        return mix64(cfg.seed, _SALT_NOISE, sample.value, shard, version) % cfg.num_classes
    if mix64(cfg.seed, _SALT_ACCEPT, sample.value, shard, version) < hash_threshold(cfg.accuracy):
        return sample.true_label
    wrong = mix64(cfg.seed, _SALT_WRONG, sample.value, shard, version) % (
        cfg.num_classes - 1
    )
    return wrong if wrong < sample.true_label else wrong + 1


def predict(cfg: OracleConfig, sample: SampleId, shard: int, version: int) -> int:
    """Label the constituent model (shard, version) assigns to the sample.

    A pure function of (cfg, sample, shard, version); repeated calls agree
    and no simulation state is consulted.
    """
    if not 0 <= shard < cfg.num_shards:
        raise ValueError(f"shard {shard} outside [0, {cfg.num_shards})")
    if version < 0:
        raise ValueError(f"version must be non-negative, got {version}")
    if cfg.backend == "trace":
        return _trace_label(cfg, sample.value, shard, version)
    if cfg.flip_probability is not None:
        # one-element arrays: numpy scalars would warn on the hash's wraparound
        version = int(_last_flip(cfg, [sample.value], [shard], [version])[0])
    return _fresh_label(cfg, sample, shard, version)


def _trace_label(cfg, value: int, shard: int, version: int) -> int:
    label = cfg.trace.entries.get((value, shard, version))
    if label is None:
        raise TraceError(f"trace has no entry for sample={value} shard={shard} version={version}")
    return label


_FLIP_BLOCK = 256  # candidate versions hashed per element and round


def _last_flip(cfg, values, shards, versions) -> np.ndarray:
    """Latest retraining at or below each version that resampled the prediction.

    The arguments broadcast together, and so does the int64 result. Version
    v >= 1 flips when its flip hash falls under the threshold; the model at
    a version predicts what the last flip drew, or version 0's label when
    none did. Each round hashes the next block of candidates, from the top
    down, for every element still searching, so the cost grows with the
    distance to the last flip only.
    """
    thr = hash_threshold(cfg.flip_probability)
    base = mix64_array_chain(mix64(cfg.seed, _SALT_FLIP), values, shards)
    base, versions = np.broadcast_arrays(base, np.asarray(versions, dtype=np.int64))
    last = versions.flatten()
    todo = np.flatnonzero(last) if thr <= _MASK else np.empty(0, dtype=np.intp)
    base, hi = base.ravel()[todo], last[todo]
    while todo.size:
        steps = np.arange(min(_FLIP_BLOCK, int(hi.max())))
        candidates = hi[:, None] - steps
        hits = (mix64_array_chain(base[:, None], candidates) < np.uint64(thr)) & (candidates > 0)
        found = hits.any(axis=1)
        last[todo] = np.where(found, hi - hits.argmax(axis=1), 0)
        more = ~found & (hi > len(steps))
        todo, base, hi = todo[more], base[more], hi[more] - len(steps)
    return last.reshape(versions.shape)


class SamplePrefixes:
    """Hash prefixes of samples on every shard, computed once and gathered by row.

    Row i holds sample ``samples[i]``, its noise flag and true label, and
    the ``(K,)`` states ``mix64(seed, salt, sample, shard)`` of its label
    chain (noise salt for a noise sample, else accept salt) and of its
    wrong-label chain (``_SALT_WRONG``), so :meth:`predict` folds in only the
    version. :meth:`rows` looks (sample id, noise flag) keys up and appends
    the unseen ones: a table can be filled ahead in one call or as it goes.
    """

    def __init__(self, cfg: OracleConfig, samples=(), noise=()):
        samples, noise = np.asarray(samples), np.asarray(noise, dtype=bool)
        if noise.shape != samples.shape:
            raise ValueError(f"expected {len(samples)} noise flags, got {len(noise)}")
        if samples.size and samples.min() < 0:
            raise ValueError(f"sample ids must be non-negative, got {samples.min()}")
        self.cfg = cfg
        self.shards = np.arange(cfg.num_shards, dtype=np.uint64)
        self.samples = samples.astype(np.uint64)
        self.noise = noise
        salt = np.where(self.noise, np.uint64(_SALT_NOISE), np.uint64(_SALT_ACCEPT))
        column = self.samples[:, None]
        self.base = mix64_array_chain(mix64(cfg.seed), salt[:, None], column, self.shards)
        self.wrong = mix64_array_chain(mix64(cfg.seed, _SALT_WRONG), column, self.shards)
        true = mix64_array_chain(mix64(cfg.seed, _SALT_TRUE), self.samples)
        self.true = true % np.uint64(cfg.num_classes)
        self.index: dict = {}  # (sample id, noise flag) -> row, for rows added by rows()

    def rows(self, keys: list) -> np.ndarray:
        """Rows of the (sample id, noise flag) keys, appending one per unseen key."""
        index = self.index
        fresh = list(dict.fromkeys(key for key in keys if key not in index))
        if fresh:
            more = SamplePrefixes(self.cfg, *zip(*fresh))
            index.update(zip(fresh, range(len(self.samples), len(self.samples) + len(fresh))))
            for name in ("samples", "noise", "base", "wrong", "true"):
                setattr(self, name, np.concatenate([getattr(self, name), getattr(more, name)]))
        return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))

    def predict(self, rows: np.ndarray, versions) -> np.ndarray:
        """Predictions of all K shards for the samples at ``rows``: int64 ``(B, K)``.

        ``versions`` is one ``(K,)`` row of serving versions shared by every
        sample or a ``(B, K)`` array, one row each. One hash round folds
        the version into each chain's per-shard states: a noise row's label
        is the label hash mod C, and a clean row keeps its true label where
        that hash passes the accept test and takes the wrong-label hash's
        label where it fails. The versions are read as uint64 once, for both
        chains; a batch with no noise row skips the mod-C pass, and one
        with no clean row (or accuracy 1) skips the wrong-label chain. The
        flip extension first maps the versions to their last flips, over
        the whole batch; the trace backend looks each label up in its
        table instead.
        """
        cfg, b, k = self.cfg, len(rows), self.cfg.num_shards
        versions = np.asarray(versions, dtype=np.int64)
        if versions.shape not in ((k,), (b, k)):
            raise ValueError(f"expected {k} or {b} rows of {k} versions, got {versions.shape}")
        if versions.size and versions.min() < 0:
            raise ValueError(f"version must be non-negative, got {versions.min()}")
        if cfg.backend == "trace":
            per_row = zip(self.samples[rows].tolist(), np.broadcast_to(versions, (b, k)).tolist())
            labels = [_trace_label(cfg, s, j, v) for s, row in per_row for j, v in enumerate(row)]
            return np.array(labels, dtype=np.int64).reshape(b, k)
        if cfg.flip_probability is not None:
            versions = _last_flip(cfg, self.samples[rows, None], self.shards, versions)
        versions = versions.view(np.uint64)  # non-negative, so the bits are the same
        h = mix64_array_chain(self.base.take(rows, axis=0), versions)
        noise, true = self.noise.take(rows)[:, None], self.true.take(rows)[:, None]
        n_noise = np.count_nonzero(noise)
        out = np.where(noise, h % np.uint64(cfg.num_classes), true) if n_noise else true
        thr = hash_threshold(cfg.accuracy)
        if thr <= _MASK and n_noise < b:
            wrong = mix64_array_chain(self.wrong.take(rows, axis=0), versions)
            wrong %= np.uint64(cfg.num_classes - 1)
            wrong += wrong >= true
            miss = h >= np.uint64(thr)
            if n_noise:
                miss &= ~noise
            out = np.where(miss, wrong, out)
        labels = np.empty(h.shape, dtype=np.int64)
        labels[...] = out  # also widens a column of true labels to every shard
        return labels


def load_trace(path) -> PredictionTrace:
    """Parse a trace file, validating every record against its header."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if (
            len(parts) != 4
            or parts[0] != "eraser-trace"
            or parts[1] != "v1"
            or not parts[2].startswith("C=")
            or not parts[3].startswith("K=")
        ):
            raise TraceError(f"line 1: bad header {header!r}")
        try:
            num_classes = int(parts[2][2:])
            num_shards = int(parts[3][2:])
        except ValueError:
            raise TraceError(f"line 1: bad header {header!r}") from None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise TraceError(
                    f"line {lineno}: expected 5 comma-separated fields, got {len(fields)}"
                )
            try:
                sample, shard, version, label = (int(x) for x in fields[:4])
                conf = float(fields[4])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
            if not 0 <= label < num_classes:
                raise TraceError(
                    f"line {lineno}: label {label} outside [0, {num_classes})"
                )
            if not 0 <= shard < num_shards:
                raise TraceError(
                    f"line {lineno}: shard {shard} outside [0, {num_shards})"
                )
            if not 0.0 <= conf <= 1.0:
                raise TraceError(f"line {lineno}: confidence {conf} outside [0, 1]")
            entries[(sample, shard, version)] = label
    return PredictionTrace(num_classes, num_shards, entries)
