"""Experiment configuration files.

Plain UTF-8 text, ``[section]`` headers and ``key = value`` lines; ``#``
starts a comment. Every key must belong to the documented schema —
unknown sections or keys are hard errors (no silent defaults for
misspellings), reported with their line number. The full key list lives
in the README.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .oracle import OracleConfig, load_trace
from .scheduler import (
    RETRAIN_ALL_PENDING,
    VARIANT_NAMES,
    MitigationConfig,
    VariantConfig,
    variant_config,
)
from .simulator import SimParams
from .workload import (
    UNIFORM,
    UNIFORM_RANDOM,
    Gaussian,
    WorkloadSpec,
    deterministic_unlearning_grid,
    generate,
    merge_streams,
    symmetric_multimodal,
)

SEED_ENV_VAR = "ERASER_SEED"


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    ("experiment", "variants"): "SISA,DIMP,SUTP,DUTP,STTU,DTTU,STTP,DTTP",
    ("experiment", "replications"): "1",
    ("experiment", "base_seed"): "42",
    ("workload", "n_unlearning"): "500",
    ("workload", "n_inference"): "4500",
    ("workload", "horizon"): "auto",
    ("workload", "distribution_u"): "uniform",
    ("workload", "mu_u"): "auto",
    ("workload", "sigma_u"): "auto",
    ("workload", "modes_u"): "2",
    ("workload", "distribution_i"): "uniform",
    ("workload", "mu_i"): "auto",
    ("workload", "sigma_i"): "auto",
    ("workload", "modes_i"): "2",
    ("workload", "shard_assignment"): UNIFORM_RANDOM,
    ("workload", "noise_fraction"): "0.0",
    ("oracle", "num_classes"): "10",
    ("oracle", "num_shards"): "20",
    ("oracle", "accuracy"): "0.9",
    ("oracle", "backend"): "synthetic",
    ("oracle", "trace_path"): "",
    ("oracle", "flip_probability"): "none",
    ("scheduler", "threshold"): "0.05",
    ("scheduler", "parallel_capacity"): "auto",
    ("scheduler", "retrain_policy"): RETRAIN_ALL_PENDING,
    ("scheduler", "cert_mode"): "fine",
    ("scheduler", "context_switch_latency"): "0.0",
    ("scheduler", "shuffle_shards"): "false",
    ("scheduler", "detector_enabled"): "false",
    ("scheduler", "detector_tpr"): "1.0",
    ("scheduler", "detector_fpr"): "0.0",
    ("scheduler", "confidence_threshold"): "none",
    ("sim", "retrain_duration"): "1.0",
    ("sim", "inference_service_time"): "0.0",
}
_SECTIONS = {section for section, _ in _DEFAULTS}


def parse_config_text(text: str) -> dict:
    """Parse key=value text into {(section, key): value} with validation."""
    values = dict(_DEFAULTS)
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        values[(section, key)] = value
    return values


def _to_int(values, section, key):
    raw = values[(section, key)]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _to_float(values, section, key):
    raw = values[(section, key)]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _to_nonnegative(values, section, key):
    x = _to_float(values, section, key)
    if not (math.isfinite(x) and x >= 0):
        raise ConfigError(f"[{section}] {key} must be finite and >= 0, got {x!r}")
    return x


def _to_bool(values, section, key):
    raw = values[(section, key)].lower()
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise ConfigError(f"[{section}] {key}: expected true/false, got {raw!r}")


GRID = "grid"


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    variants: tuple
    replications: int
    base_seed: int
    n_unlearning: int
    n_inference: int
    horizon: float
    distribution_u: object
    distribution_i: object
    shard_assignment: str
    noise_fraction: float
    num_classes: int
    num_shards: int
    accuracy: float
    backend: str
    trace_path: str
    flip_probability: float | None
    threshold: float
    parallel_capacity: int
    retrain_policy: str
    cert_mode: str
    context_switch_latency: float
    shuffle_shards: bool
    mitigation: MitigationConfig | None
    retrain_duration: float
    inference_service_time: float
    unlearning_on_grid: bool = False
    _trace_cache: object = field(default=None, repr=False, compare=False)

    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.replications)]

    def oracle_config(self, seed: int) -> OracleConfig:
        trace = None
        if self.backend == "trace":
            if self._trace_cache is None:
                self._trace_cache = load_trace(self.trace_path)
            trace = self._trace_cache
        return OracleConfig(
            num_classes=self.num_classes,
            num_shards=self.num_shards,
            accuracy=self.accuracy,
            seed=seed,
            backend=self.backend,
            trace=trace,
            flip_probability=self.flip_probability,
        )

    def sim_params(self, seed: int) -> SimParams:
        return SimParams(
            retrain_duration=self.retrain_duration,
            horizon=self.horizon,
            seed=seed,
            inference_service_time=self.inference_service_time,
        )

    def variant(self, name: str) -> VariantConfig:
        return variant_config(
            name,
            threshold=self.threshold,
            parallel_capacity=self.parallel_capacity,
            retrain_policy=self.retrain_policy,
            cert_mode=self.cert_mode if name != "SISA" else "fine",
            mitigation=self.mitigation,
            shuffle_shards=self.shuffle_shards,
            context_switch_latency=self.context_switch_latency,
        )

    def build_workload(self, seed: int):
        if self.unlearning_on_grid:
            streams = []
            if self.n_unlearning:
                streams.append(
                    deterministic_unlearning_grid(
                        self.n_unlearning, self.horizon, self.num_shards, seed,
                        self.shard_assignment,
                    )
                )
            if self.n_inference:
                spec = WorkloadSpec(
                    0, self.n_inference, self.horizon, seed,
                    distribution_i=self.distribution_i,
                    noise_fraction=self.noise_fraction,
                )
                streams.append(generate(spec, self.num_shards))
            return merge_streams(*streams) if streams else []
        spec = WorkloadSpec(
            self.n_unlearning, self.n_inference, self.horizon, seed,
            distribution_u=self.distribution_u,
            distribution_i=self.distribution_i,
            shard_assignment=self.shard_assignment,
            noise_fraction=self.noise_fraction,
        )
        return generate(spec, self.num_shards)


def _distribution(values, kind, horizon):
    name = values[("workload", f"distribution_{kind}")]
    if name == UNIFORM:
        return UNIFORM
    if name == GRID:
        if kind != "u":
            raise ConfigError("grid arrivals are only supported for unlearning requests")
        return GRID
    mu, sigma = horizon / 2.0, horizon / 3.0
    if values[("workload", f"mu_{kind}")] != "auto":
        mu = _to_float(values, "workload", f"mu_{kind}")
    if values[("workload", f"sigma_{kind}")] != "auto":
        sigma = _to_float(values, "workload", f"sigma_{kind}")
    if name == "gaussian":
        return Gaussian(mu, sigma)
    if name == "multimodal":
        return symmetric_multimodal(_to_int(values, "workload", f"modes_{kind}"), horizon)
    raise ConfigError(f"[workload] distribution_{kind}: unknown distribution {name!r}")


def build_experiment_config(values: dict) -> ExperimentConfig:
    variants = tuple(
        v.strip() for v in values[("experiment", "variants")].split(",") if v.strip()
    )
    for v in variants:
        if v not in VARIANT_NAMES:
            raise ConfigError(f"[experiment] variants: unknown variant {v!r}")
    if not variants:
        raise ConfigError("[experiment] variants: need at least one variant")
    replications = _to_int(values, "experiment", "replications")
    if replications < 1:
        raise ConfigError("[experiment] replications must be >= 1")
    base_seed = _to_int(values, "experiment", "base_seed")
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            base_seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None

    n_u = _to_int(values, "workload", "n_unlearning")
    n_i = _to_int(values, "workload", "n_inference")
    retrain_duration = _to_float(values, "sim", "retrain_duration")
    if not (math.isfinite(retrain_duration) and retrain_duration > 0):
        raise ConfigError("[sim] retrain_duration must be positive and finite")
    if values[("workload", "horizon")] == "auto":
        horizon = max(n_u, 1) * retrain_duration
    else:
        horizon = _to_float(values, "workload", "horizon")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError("[workload] horizon must be positive and finite")

    dist_u = _distribution(values, "u", horizon)
    dist_i = _distribution(values, "i", horizon)
    on_grid = dist_u == GRID
    if on_grid:
        dist_u = UNIFORM  # placeholder; grid stream is built separately

    num_shards = _to_int(values, "oracle", "num_shards")
    if values[("scheduler", "parallel_capacity")] == "auto":
        capacity = num_shards
    else:
        capacity = _to_int(values, "scheduler", "parallel_capacity")

    confidence_threshold = None
    if values[("scheduler", "confidence_threshold")] != "none":
        confidence_threshold = _to_float(values, "scheduler", "confidence_threshold")
    detector_enabled = _to_bool(values, "scheduler", "detector_enabled")
    mitigation = None
    if detector_enabled or confidence_threshold is not None:
        mitigation = MitigationConfig(
            detector_enabled=detector_enabled,
            detector_tpr=_to_float(values, "scheduler", "detector_tpr"),
            detector_fpr=_to_float(values, "scheduler", "detector_fpr"),
            confidence_threshold=confidence_threshold,
        )

    flip = None
    if values[("oracle", "flip_probability")] != "none":
        flip = _to_float(values, "oracle", "flip_probability")

    return ExperimentConfig(
        variants=variants,
        replications=replications,
        base_seed=base_seed,
        n_unlearning=n_u,
        n_inference=n_i,
        horizon=horizon,
        distribution_u=dist_u,
        distribution_i=dist_i,
        shard_assignment=values[("workload", "shard_assignment")],
        noise_fraction=_to_float(values, "workload", "noise_fraction"),
        num_classes=_to_int(values, "oracle", "num_classes"),
        num_shards=num_shards,
        accuracy=_to_float(values, "oracle", "accuracy"),
        backend=values[("oracle", "backend")],
        trace_path=values[("oracle", "trace_path")],
        flip_probability=flip,
        threshold=_to_float(values, "scheduler", "threshold"),
        parallel_capacity=capacity,
        retrain_policy=values[("scheduler", "retrain_policy")],
        cert_mode=values[("scheduler", "cert_mode")],
        context_switch_latency=_to_nonnegative(values, "scheduler", "context_switch_latency"),
        shuffle_shards=_to_bool(values, "scheduler", "shuffle_shards"),
        mitigation=mitigation,
        retrain_duration=retrain_duration,
        inference_service_time=_to_nonnegative(values, "sim", "inference_service_time"),
        unlearning_on_grid=on_grid,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return build_experiment_config(parse_config_text(fh.read()))


def apply_override(values: dict, dotted_key: str, value: str) -> dict:
    """Apply a 'section.key' override (used by parameter sweeps)."""
    if "." not in dotted_key:
        raise ConfigError(f"override key must look like section.key, got {dotted_key!r}")
    section, key = dotted_key.split(".", 1)
    if (section, key) not in _DEFAULTS:
        raise ConfigError(f"unknown override target {dotted_key!r}")
    out = dict(values)
    out[(section, key)] = value
    return out
