"""Experiment configuration files.

Plain UTF-8 text, ``[section]`` headers and ``key = value`` lines; ``#``
starts a comment. Every key must belong to the documented schema —
unknown sections or keys are hard errors (no silent defaults for
misspellings), reported with their line number. Each key is one
``ExperimentConfig`` field declared with its section, default and parser;
the README lists them. Building a config parses every key, loads the trace
a non-empty ``trace_path`` names, and checks the values with each layer's
own validated objects, each filled from the config's same-named fields, so
a bad value or trace is a ``ConfigError`` naming its ``[section] key``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields

from .oracle import OracleConfig, load_trace
from .scheduler import (
    RETRAIN_ALL_PENDING,
    VARIANT_NAMES,
    MitigationConfig,
    VariantConfig,
)
from .simulator import SimParams
from .workload import (
    GRID,
    UNIFORM,
    UNIFORM_RANDOM,
    Gaussian,
    WorkloadSpec,
    generate,
    symmetric_multimodal,
)

SEED_ENV_VAR = "ERASER_SEED"


class ConfigError(ValueError):
    pass


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _names(raw: str) -> tuple:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


_EXPECTED = {int: "an integer", float: "a number", _bool: "true/false"}


def _key(section: str, default: str, parse=str, unset: str | None = None):
    """A config key's section, default text and parser; ``unset`` parses to None."""
    return field(metadata={"section": section, "default": default, "parse": parse, "unset": unset})


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description: an ``auto`` horizon and capacity
    filled in, arrival profiles in place of the distribution names, and the
    trace ``trace_path`` names (None for none) in place of its path.
    """

    variants: tuple = _key("experiment", "SISA,DIMP,SUTP,DUTP,STTU,DTTU,STTP,DTTP", _names)
    replications: int = _key("experiment", "1", int)
    base_seed: int = _key("experiment", "42", int)
    n_unlearning: int = _key("workload", "500", int)
    n_inference: int = _key("workload", "4500", int)
    horizon: float = _key("workload", "auto", float, "auto")
    distribution_u: object = _key("workload", UNIFORM)
    mu_u: float | None = _key("workload", "auto", float, "auto")
    sigma_u: float | None = _key("workload", "auto", float, "auto")
    modes_u: int = _key("workload", "2", int)
    distribution_i: object = _key("workload", UNIFORM)
    mu_i: float | None = _key("workload", "auto", float, "auto")
    sigma_i: float | None = _key("workload", "auto", float, "auto")
    modes_i: int = _key("workload", "2", int)
    shard_assignment: str = _key("workload", UNIFORM_RANDOM)
    noise_fraction: float = _key("workload", "0.0", float)
    num_classes: int = _key("oracle", "10", int)
    num_shards: int = _key("oracle", "20", int)
    accuracy: float = _key("oracle", "0.9", float)
    trace_path: object = _key("oracle", "", unset="")
    flip_probability: float | None = _key("oracle", "none", float, "none")
    threshold: float = _key("scheduler", "0.05", float)
    parallel_capacity: int = _key("scheduler", "auto", int, "auto")
    retrain_policy: str = _key("scheduler", RETRAIN_ALL_PENDING)
    cert_mode: str = _key("scheduler", "fine")
    context_switch_latency: float = _key("scheduler", "0.0", float)
    shuffle_shards: bool = _key("scheduler", "false", _bool)
    detector_enabled: bool = _key("scheduler", "false", _bool)
    detector_tpr: float = _key("scheduler", "1.0", float)
    detector_fpr: float = _key("scheduler", "0.0", float)
    confidence_threshold: float | None = _key("scheduler", "none", float, "none")
    retrain_duration: float = _key("sim", "1.0", float)
    inference_service_time: float = _key("sim", "0.0", float)

    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.replications)]

    def _layer(self, cls, **given):
        """A ``cls`` built from ``given`` and this config's same-named fields."""
        own = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**own, **given)

    @property
    def mitigation(self) -> MitigationConfig | None:
        if not (self.detector_enabled or self.confidence_threshold is not None):
            return None
        return self._layer(MitigationConfig)

    def oracle_config(self, seed: int) -> OracleConfig:
        return self._layer(OracleConfig, seed=seed, trace=self.trace_path)

    def sim_params(self, seed: int) -> SimParams:
        """The engine's parameters; they take the seed like the other
        per-seed builders but do not depend on it."""
        return self._layer(SimParams)

    def variant(self, name: str) -> VariantConfig:
        return self._layer(VariantConfig, name=name)

    def _workload_spec(self, seed: int) -> WorkloadSpec:
        return self._layer(WorkloadSpec, seed=seed)

    def build_workload(self, seed: int):
        return generate(self._workload_spec(seed), self.num_shards)


_KEYS = {(f.metadata["section"], f.name): f for f in fields(ExperimentConfig) if f.metadata}


def parse_config_text(text: str) -> dict:
    """Parse key=value text into {(section, key): value} with validation."""
    values = {k: f.metadata["default"] for k, f in _KEYS.items()}
    sections = {s for s, _ in _KEYS}
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        values[(section, key)] = value
    return values


def _parse(f, raw: str):
    section, parse, unset = (f.metadata[m] for m in ("section", "parse", "unset"))
    if raw == unset:
        return None
    try:
        return parse(raw)
    except ValueError:
        expected = _EXPECTED[parse] + (f" or {unset}" if unset else "")
        raise ConfigError(f"[{section}] {f.name}: expected {expected}, got {raw!r}") from None


def _checked(build, *args, key: str | None = None):
    """Build a layer's own validated object; what it refuses is a ConfigError.

    The error names the key the layer's message opens with, else ``key``,
    which may also name a setting outside the file, such as ``ERASER_SEED``.
    An unreadable trace file (``OSError``) is refused too.
    """
    try:
        return build(*args)
    except (ValueError, OSError) as exc:
        msg = str(exc)
        opening = re.findall(r"\w+", msg)[:2]
        named = [k for k in _KEYS if k[1] in opening] or [k for k in _KEYS if k[1] == key]
        if not named:
            raise ConfigError(f"{key}: {msg}" if key else msg) from None
        section, name = named[0]
        raise ConfigError(f"[{section}] " + (msg if msg.startswith(name) else f"{name}: {msg}")) from None


def _distribution(cfg: ExperimentConfig, kind: str):
    """The arrival profile ``distribution_<kind>`` names, auto moments filled in."""
    name = getattr(cfg, f"distribution_{kind}")
    if name in (UNIFORM, GRID):
        return name
    if name == "gaussian":
        mu, sigma = getattr(cfg, f"mu_{kind}"), getattr(cfg, f"sigma_{kind}")
        mu = cfg.horizon / 2.0 if mu is None else mu
        sigma = cfg.horizon / 3.0 if sigma is None else sigma
        return _checked(Gaussian, mu, sigma, key=f"sigma_{kind}")
    if name == "multimodal":
        modes = getattr(cfg, f"modes_{kind}")
        return _checked(symmetric_multimodal, modes, cfg.horizon, key=f"modes_{kind}")
    raise ConfigError(f"[workload] distribution_{kind}: unknown distribution {name!r}")


def build_experiment_config(values: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**{f.name: _parse(f, values[k]) for k, f in _KEYS.items()})
    if not cfg.variants:
        raise ConfigError("[experiment] variants: need at least one variant")
    if cfg.replications < 1:
        raise ConfigError("[experiment] replications must be >= 1")
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.base_seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
    if cfg.horizon is None:
        cfg.horizon = max(cfg.n_unlearning, 1) * cfg.retrain_duration
    if cfg.parallel_capacity is None:
        cfg.parallel_capacity = cfg.num_shards
    _checked(cfg.sim_params, cfg.base_seed)
    cfg.distribution_u = _distribution(cfg, "u")
    cfg.distribution_i = _distribution(cfg, "i")
    _checked(cfg._workload_spec, cfg.base_seed, key="base_seed" if env_seed is None else SEED_ENV_VAR)
    if cfg.trace_path is not None:
        cfg.trace_path = _checked(load_trace, cfg.trace_path, key="trace_path")
    _checked(cfg.oracle_config, cfg.base_seed)
    # Every variant, so a key that only some variants read is checked too.
    for name in cfg.variants + VARIANT_NAMES:
        _checked(cfg.variant, name, key="variants")
    return cfg


def read_config_values(path) -> dict:
    """Parse a config file; a file that cannot be opened is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return parse_config_text(text)


def load_config(path) -> ExperimentConfig:
    return build_experiment_config(read_config_values(path))


def apply_override(values: dict, dotted_key: str, value: str) -> dict:
    """Apply a 'section.key' override (used by parameter sweeps)."""
    if "." not in dotted_key:
        raise ConfigError(f"override key must look like section.key, got {dotted_key!r}")
    section, key = dotted_key.split(".", 1)
    if (section, key) not in _KEYS:
        raise ConfigError(f"unknown override target {dotted_key!r}")
    out = dict(values)
    out[(section, key)] = value
    return out
