"""Request stream generation.

A workload is a time-sorted list of inference and unlearning requests over
a horizon [0, T]. Arrival times follow uniform, (truncated) Gaussian, or
multimodal-Gaussian profiles; samples falling outside [0, T] are re-drawn
until they land inside. Unlearning arrivals can instead sit on a
fixed-interval grid, the arrival model of the waiting-time formulas.
Unlearning requests target shards either uniformly at random or in the
adversarial round-robin pattern that maximizes how scattered the pending
set is. A configurable fraction of inference samples
is flagged as noise (the hard-to-classify attack inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INFERENCE = "inference"
UNLEARNING = "unlearning"

# Least share of a profile's draws inside [0, horizon]; below it re-drawing never ends.
_MIN_MASS_INSIDE = 1e-6

UNIFORM_RANDOM = "uniform_random"
SCATTERED_ROUND_ROBIN = "scattered_round_robin"


@dataclass(frozen=True)
class Request:
    kind: str
    arrival: float
    request_id: int = -1
    sample: int = -1
    is_noise: bool = False
    target_shard: int = -1

    def __post_init__(self):
        if self.kind not in (INFERENCE, UNLEARNING):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.kind == INFERENCE and self.sample < 0:
            raise ValueError("inference request needs a sample id")
        if self.kind == UNLEARNING and self.target_shard < 0:
            raise ValueError("unlearning request needs a target shard")


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Multimodal:
    means: tuple
    sigmas: tuple
    weights: tuple

    def __post_init__(self):
        if not (len(self.means) == len(self.sigmas) == len(self.weights)):
            raise ValueError("means, sigmas, weights must have equal length")
        if len(self.means) == 0:
            raise ValueError("multimodal needs at least one component")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("all sigmas must be positive")
        if min(self.weights) < 0 or abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must be non-negative and sum to 1, got {self.weights}")


def symmetric_multimodal(num_modes: int, horizon: float) -> Multimodal:
    """Default m-peak profile: equal weights, means at i*T/(m+1), sigma T/(3m)."""
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    means = tuple(i * horizon / (num_modes + 1) for i in range(1, num_modes + 1))
    return Multimodal(
        means, (horizon / (3 * num_modes),) * num_modes, (1.0 / num_modes,) * num_modes
    )


UNIFORM = "uniform"
GRID = "grid"  # unlearning only: arrivals at i*T/n, the waiting-time formulas' model


@dataclass(frozen=True)
class WorkloadSpec:
    n_unlearning: int
    n_inference: int
    horizon: float
    seed: int
    distribution_u: object = UNIFORM
    distribution_i: object = UNIFORM
    shard_assignment: str = UNIFORM_RANDOM
    noise_fraction: float = 0.0

    def __post_init__(self):
        for name in ("n_unlearning", "n_inference", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.shard_assignment not in (UNIFORM_RANDOM, SCATTERED_ROUND_ROBIN):
            raise ValueError(f"unknown shard_assignment {self.shard_assignment!r}")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must be in [0, 1]")
        if self.distribution_i == GRID:
            raise ValueError("distribution_i cannot be grid: the grid is for unlearning arrivals")
        for key in ("distribution_u", "distribution_i"):
            dist = getattr(self, key)
            if dist in (UNIFORM, GRID):
                continue
            if not isinstance(dist, (Gaussian, Multimodal)):
                raise ValueError(f"unknown distribution {dist!r}")
            # a NaN mass fails ">=" too, so a NaN moment or weight is refused
            mass = _mass_inside(dist, self.horizon)
            if not mass >= _MIN_MASS_INSIDE:
                raise ValueError(f"{key} puts almost no arrival mass inside "
                                 f"[0, {self.horizon}] (mass {mass:.3g})")


def _mass_inside(dist, horizon) -> float:
    """Share of a Gaussian or multimodal profile's draws that land in [0, horizon]."""
    if isinstance(dist, Gaussian):
        dist = Multimodal((dist.mu,), (dist.sigma,), (1.0,))
    return sum(
        w * (math.erf((horizon - m) / (s * math.sqrt(2))) + math.erf(m / (s * math.sqrt(2)))) / 2
        for m, s, w in zip(dist.means, dist.sigmas, dist.weights)
    )


def _sample_arrivals(rng, dist, n, horizon):
    if n == 0:
        return np.empty(0)
    if dist == UNIFORM:
        return rng.uniform(0.0, horizon, n)
    out = np.empty(n)
    filled = 0
    while filled < n:
        want = n - filled
        if isinstance(dist, Gaussian):
            draw = rng.normal(dist.mu, dist.sigma, want)
        else:
            comp = rng.choice(len(dist.means), size=want, p=np.asarray(dist.weights))
            draw = rng.normal(
                np.asarray(dist.means)[comp], np.asarray(dist.sigmas)[comp]
            )
        keep = draw[(draw >= 0.0) & (draw <= horizon)]
        out[filled : filled + keep.size] = keep
        filled += keep.size
    return out


def generate(spec: WorkloadSpec, num_shards: int) -> list[Request]:
    """Produce the sorted request stream described by ``spec``.

    The result is a pure function of (spec, num_shards). Exactly
    ``round(noise_fraction * n_inference)`` inference samples carry the
    noise flag. Unlearning on the ``GRID`` arrives at exact fixed intervals
    (0, T/n, 2T/n, ...), the arrival model the closed-form waiting-time
    results assume; its shard draws take a second generator seeded with
    ``seed``, so the inference stream does not depend on ``n_unlearning``.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    rng = np.random.default_rng(spec.seed)
    if spec.distribution_u == GRID:
        u_arrivals = np.arange(spec.n_unlearning) * spec.horizon / spec.n_unlearning
        shard_rng = np.random.default_rng(spec.seed)
    else:
        u_arrivals = np.sort(
            _sample_arrivals(rng, spec.distribution_u, spec.n_unlearning, spec.horizon)
        )
        shard_rng = rng
    i_arrivals = np.sort(_sample_arrivals(rng, spec.distribution_i, spec.n_inference, spec.horizon))

    if spec.shard_assignment == SCATTERED_ROUND_ROBIN:
        shards = np.arange(spec.n_unlearning, dtype=np.int64) % num_shards
    else:
        shards = shard_rng.integers(0, num_shards, spec.n_unlearning)

    n_noise = round(spec.noise_fraction * spec.n_inference)
    noise = np.zeros(spec.n_inference, dtype=bool)
    if n_noise:
        noise[rng.choice(spec.n_inference, size=n_noise, replace=False)] = True

    # one order over both kinds: by arrival, unlearning ahead of inference
    # at a tie, then by position within the kind; request ids follow it
    n_u = spec.n_unlearning
    arrivals = np.concatenate([u_arrivals, i_arrivals])
    position = np.concatenate([np.arange(n_u), np.arange(spec.n_inference)])
    is_inference = np.arange(len(arrivals)) >= n_u
    order = np.lexsort((position, is_inference, arrivals))
    shards, noise = shards.tolist(), noise.tolist()
    return [
        Request(UNLEARNING, t, rid, target_shard=shards[j]) if j < n_u
        else Request(INFERENCE, t, rid, sample=j - n_u, is_noise=noise[j - n_u])
        for rid, (j, t) in enumerate(zip(order.tolist(), arrivals[order].tolist()))
    ]

