import re

import pytest

from eraser.config import (
    ConfigError,
    SEED_ENV_VAR,
    apply_override,
    build_experiment_config,
    parse_config_text,
)
from eraser.workload import Gaussian


def build(text=""):
    return build_experiment_config(parse_config_text(text))


def test_defaults_describe_the_desk_experiment():
    cfg = build()
    assert cfg.num_shards == 20 and cfg.num_classes == 10
    assert cfg.n_unlearning == 500 and cfg.n_inference == 4500
    assert cfg.threshold == 0.05
    assert cfg.horizon == 500 * 1.0  # auto: n_unlearning * retrain_duration
    assert cfg.parallel_capacity == 20  # auto: num_shards
    assert cfg.variants == ("SISA", "DIMP", "SUTP", "DUTP", "STTU", "DTTU", "STTP", "DTTP")
    assert cfg.mitigation is None


def test_unknown_key_is_a_hard_error_with_line_number():
    text = "[workload]\nn_unlearning = 5\nn_unlerning = 6\n"
    with pytest.raises(ConfigError, match="line 3.*n_unlerning"):
        parse_config_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("[workloads]\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("[workload]\njust words\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("n_unlearning = 5\n")


def test_duplicate_key_rejected():
    text = "[oracle]\naccuracy = 0.9\naccuracy = 0.8\n"
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text(text)


def test_comments_and_blank_lines_ignored():
    cfg = build("# top note\n[oracle]\naccuracy = 0.8  # inline\n\n")
    assert cfg.accuracy == 0.8


def test_bad_value_types_are_reported():
    with pytest.raises(ConfigError, match="replications"):
        build("[experiment]\nreplications = many\n")
    with pytest.raises(ConfigError, match="variants"):
        build("[experiment]\nvariants = DIMP,NOPE\n")


@pytest.mark.parametrize(
    "section, key, value, extra",
    [
        ("scheduler", "parallel_capacity", "x", ""),
        ("scheduler", "confidence_threshold", "x", ""),
        ("oracle", "flip_probability", "x", ""),
        ("workload", "horizon", "x", ""),
        ("workload", "horizon", "nan", ""),
        ("workload", "horizon", "inf", ""),
        ("sim", "retrain_duration", "nan", ""),
        ("sim", "retrain_duration", "inf", ""),
        ("workload", "mu_u", "x", "distribution_u = gaussian"),
        ("workload", "sigma_u", "x", "distribution_u = gaussian"),
        ("workload", "mu_i", "x", "distribution_i = gaussian"),
        ("workload", "sigma_i", "x", "distribution_i = gaussian"),
    ],
)
def test_bad_numbers_are_reported_with_their_key(section, key, value, extra):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        build(f"[{section}]\n{extra}\n{key} = {value}\n")


def test_gaussian_distribution_with_auto_moments():
    cfg = build("[workload]\ndistribution_i = gaussian\nhorizon = 120\n")
    assert cfg.distribution_i == Gaussian(60.0, 40.0)


def test_grid_unlearning_arrivals():
    cfg = build("[workload]\ndistribution_u = grid\nn_unlearning = 4\nhorizon = 100\n")
    stream = cfg.build_workload(1)
    arrivals = [r.arrival for r in stream if r.kind == "unlearning"]
    assert arrivals == [0.0, 25.0, 50.0, 75.0]


def test_grid_for_inference_rejected():
    with pytest.raises(ConfigError):
        build("[workload]\ndistribution_i = grid\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "section,key", [("scheduler", "context_switch_latency"), ("sim", "inference_service_time")]
)
def test_non_finite_or_negative_times_are_reported_with_their_key(section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        build(f"[{section}]\n{key} = {value}\n")


def test_mitigation_block():
    cfg = build(
        "[scheduler]\ndetector_enabled = true\ndetector_tpr = 0.9\n"
        "confidence_threshold = 0.5\n"
    )
    assert cfg.mitigation.detector_enabled
    assert cfg.mitigation.detector_tpr == 0.9
    assert cfg.mitigation.confidence_threshold == 0.5


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    assert build("").base_seed == 777
    monkeypatch.setenv(SEED_ENV_VAR, "x")
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        build("")
    monkeypatch.delenv(SEED_ENV_VAR)
    assert build("").base_seed == 42


def test_apply_override():
    values = parse_config_text("")
    out = apply_override(values, "oracle.num_shards", "10")
    assert build_experiment_config(out).num_shards == 10
    with pytest.raises(ConfigError):
        apply_override(values, "oracle.nope", "1")
    with pytest.raises(ConfigError):
        apply_override(values, "badkey", "1")


def test_workload_seeds_follow_base_seed():
    cfg = build("[experiment]\nreplications = 3\nbase_seed = 10\n")
    assert cfg.seeds() == [10, 11, 12]
    a = cfg.build_workload(10)
    b = cfg.build_workload(10)
    assert a == b
