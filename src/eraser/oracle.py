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
* trace backend — used whenever the config holds a trace: predictions
  replayed from a file exported by real models (format below).

Synthetic predictions take one path: :class:`SamplePrefixes` hashes each
sample's (seed, salt, sample, shard) prefixes and true label once, and its
``predict`` folds only the version into them, for a batch of samples split
by kind once: noise rows fold their label chain alone (mod C), clean rows
the accept and wrong-label chains, and every reduction is a uint64 floor
division by the scalar modulus (:func:`_mod`). The flip extension first
maps every version to its last flip over the same batch, and the replay
audit builds such a table for its records too. The trace backend looks
each label up in its table instead. :func:`predict` is the per-prediction
definition those paths must match.

Trace file format (UTF-8)::

    eraser-trace v1 C=<int> K=<int>
    <sample_id>,<shard_id>,<version>,<label>,<confidence>

with one record per line, sample ids and versions non-negative, each
(sample, shard, version) triple at most once, and confidence a decimal in
[0, 1]. The confidence is validated but not kept: only the label drives a
vote.
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
    trace: PredictionTrace | None = None  # replayed in place of the synthetic labels
    flip_probability: float | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.trace is not None and self.trace.num_classes != self.num_classes:
            raise ValueError(f"num_classes is {self.num_classes}; the trace has C={self.trace.num_classes}")
        if self.trace is not None and self.trace.num_shards != self.num_shards:
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
    if cfg.trace is not None:
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


def _mod(h: np.ndarray, c: int) -> np.ndarray:
    """``h % c``, exact, in place of the uint64 array ``h``: numpy's floor
    division by a scalar needs no hardware divide per element, ``%`` does."""
    c = np.uint64(c)
    h -= h // c * c
    return h


class SamplePrefixes:
    """Hash prefixes of samples on every shard, computed once and gathered by row.

    Row i holds sample ``samples[i]``, its noise flag and true label, and
    the ``(K,)`` states ``mix64(seed, salt, sample, shard)`` of its label
    chain (noise salt for a noise sample, else accept salt) and of its
    wrong-label chain (``_SALT_WRONG``), so :meth:`predict` folds in only the
    version. :meth:`rows` looks keys ``2 * sample id + noise flag`` up and
    appends the unseen ones: a table can be built from arrays ahead or grow as
    it goes.
    """

    def __init__(self, cfg: OracleConfig, samples=(), noise=()):
        samples, noise = np.asarray(samples), np.asarray(noise, dtype=bool)
        if noise.shape != samples.shape:
            raise ValueError(f"expected {len(samples)} noise flags, got {len(noise)}")
        if samples.size and samples.min() < 0:
            raise ValueError(f"sample ids must be non-negative, got {samples.min()}")
        if samples.size and samples.max() >= 2**63:  # so that each row's key fits 64 bits
            raise ValueError(f"sample ids must be below 2**63, got {samples.max()}")
        self.cfg = cfg
        self.shards = np.arange(cfg.num_shards, dtype=np.uint64)
        self.samples = samples.astype(np.uint64)
        self.noise = noise
        salt = np.where(self.noise, np.uint64(_SALT_NOISE), np.uint64(_SALT_ACCEPT))
        column = self.samples[:, None]
        self.base = mix64_array_chain(mix64(cfg.seed), salt[:, None], column, self.shards)
        self.wrong = mix64_array_chain(mix64(cfg.seed, _SALT_WRONG), column, self.shards)
        true = mix64_array_chain(mix64(cfg.seed, _SALT_TRUE), self.samples)
        self.true = _mod(true, cfg.num_classes)
        self.index: dict | None = None  # 2 * sample id + noise flag -> row, built by rows()

    def rows(self, keys: list) -> np.ndarray:
        """Rows of the keys, each ``2 * sample id + noise flag``, appending one
        per unseen key. The first call indexes the rows the table was built
        with: a table only gathered by row, as the replay audit's are, never
        builds the index."""
        index = self.index
        if index is None:
            built = (self.samples << np.uint64(1)) | self.noise
            index = self.index = dict(zip(built.tolist(), range(len(self.samples))))
        try:  # one pass when every key is present
            return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
        except KeyError:
            pass
        fresh = list(dict.fromkeys(key for key in keys if key not in index))
        if fresh:
            more = SamplePrefixes(self.cfg, [key >> 1 for key in fresh], [key & 1 for key in fresh])
            index.update(zip(fresh, range(len(self.samples), len(self.samples) + len(fresh))))
            for name in ("samples", "noise", "base", "wrong", "true"):
                setattr(self, name, np.concatenate([getattr(self, name), getattr(more, name)]))
        return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))

    def predict(self, rows: np.ndarray, versions) -> np.ndarray:
        """Predictions of all K shards for the samples at ``rows``: int64 ``(B, K)``.

        ``versions`` is one ``(K,)`` row of serving versions shared by every
        sample or a ``(B, K)`` array, one row each. One hash round folds
        the version into every row's own chain (label chain for a noise
        row, accept chain for a clean one); the batch is then split by row
        kind once, and each kind's labels are written back into one result.
        A noise row's label is its hash mod C. A clean row never takes that
        reduction: it keeps its true label where the hash passes the accept
        test, and takes the wrong-label hash's label (mod C-1, skipping the
        true label) where it fails; only clean rows fold the wrong-label
        chain, and none at accuracy 1. Reductions divide by the scalar
        modulus (:func:`_mod`). The flip extension first maps the versions
        to their last flips, over the whole batch; the trace backend looks
        each label up in its table instead.
        """
        cfg, b, k = self.cfg, len(rows), self.cfg.num_shards
        versions = np.asarray(versions, dtype=np.int64)
        if versions.shape not in ((k,), (b, k)):
            raise ValueError(f"expected {k} or {b} rows of {k} versions, got {versions.shape}")
        if versions.size and versions.min() < 0:
            raise ValueError(f"version must be non-negative, got {versions.min()}")
        if cfg.trace is not None:
            per_row = zip(self.samples[rows].tolist(), np.broadcast_to(versions, (b, k)).tolist())
            labels = [_trace_label(cfg, s, j, v) for s, row in per_row for j, v in enumerate(row)]
            return np.array(labels, dtype=np.int64).reshape(b, k)
        if cfg.flip_probability is not None:
            versions = _last_flip(cfg, self.samples[rows, None], self.shards, versions)
        versions = versions.view(np.uint64)  # non-negative, so the bits are the same
        h = mix64_array_chain(self.base.take(rows, axis=0), versions)  # each row's own chain
        labels = np.empty((b, k), dtype=np.int64)
        noise = self.noise.take(rows)
        n_noise = int(np.count_nonzero(noise))
        if n_noise:
            at = slice(None) if n_noise == b else np.flatnonzero(noise)
            labels[at] = _mod(h[at], cfg.num_classes)
        if n_noise < b:
            at = slice(None) if not n_noise else np.flatnonzero(~noise)
            v = versions if versions.ndim == 1 else versions[at]
            labels[at] = self._clean(h[at], rows[at], v)
        return labels

    def _clean(self, accept, rows, versions):
        """Labels of the clean samples at ``rows`` from their accept hashes:
        the true label where the hash passes, else the wrong-label hash's."""
        true = self.true.take(rows)[:, None]
        thr = hash_threshold(self.cfg.accuracy)
        if thr > _MASK:  # accuracy 1: every hash passes
            return true
        wrong = mix64_array_chain(self.wrong.take(rows, axis=0), versions)
        wrong = _mod(wrong, self.cfg.num_classes - 1)
        wrong += wrong >= true
        return np.where(accept >= np.uint64(thr), wrong, true)


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
            if sample < 0 or version < 0:
                raise TraceError(f"line {lineno}: sample id and version must be >= 0")
            if not 0.0 <= conf <= 1.0:
                raise TraceError(f"line {lineno}: confidence {conf} outside [0, 1]")
            if (sample, shard, version) in entries:
                raise TraceError(
                    f"line {lineno}: repeats sample={sample} shard={shard} version={version}"
                )
            entries[(sample, shard, version)] = label
    return PredictionTrace(num_classes, num_shards, entries)
