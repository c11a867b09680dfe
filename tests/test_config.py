import hashlib
import re
from pathlib import Path

import pytest

from eraser.config import (
    _KEYS,
    ConfigError,
    SEED_ENV_VAR,
    apply_override,
    build_experiment_config,
    parse_config_text,
)
from eraser.oracle import predict, sample_for
from eraser.scheduler import VARIANT_NAMES, VARIANT_TABLE
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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("oracle", "accuracy", "1.5"),
        ("oracle", "num_shards", "0"),
        ("scheduler", "cert_mode", "bogus"),
        ("scheduler", "retrain_policy", "bogus"),
        ("scheduler", "threshold", "1.5"),
        ("scheduler", "parallel_capacity", "0"),
        ("workload", "noise_fraction", "2"),
        ("workload", "shard_assignment", "bogus"),
    ],
)
def test_out_of_range_values_are_rejected_at_load_time(section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        build(f"[{section}]\n{key} = {value}\n")


def test_every_key_is_parsed_even_where_unused():
    with pytest.raises(ConfigError, match=re.escape("[workload] mu_u")):
        build("[workload]\ndistribution_u = uniform\nmu_u = x\n")


def test_readme_lists_every_key_once_with_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("All keys with their defaults:", 1)[1].split("```")[1]
    assignments = [line for line in block.splitlines() if "=" in line.split("#", 1)[0]]
    defaults = parse_config_text("")
    assert len(assignments) == len(defaults) == 33
    assert parse_config_text(block) == defaults


def test_gaussian_distribution_with_auto_moments():
    cfg = build("[workload]\ndistribution_i = gaussian\nhorizon = 120\n")
    assert cfg.distribution_i == Gaussian(60.0, 40.0)


def test_grid_unlearning_arrivals():
    cfg = build("[workload]\ndistribution_u = grid\nn_unlearning = 4\nhorizon = 100\n")
    stream = cfg.build_workload(1)
    arrivals = [r.arrival for r in stream if r.kind == "unlearning"]
    assert arrivals == [0.0, 25.0, 50.0, 75.0]


@pytest.mark.parametrize("kind", ["i", "u"])
def test_profile_with_no_mass_inside_the_horizon_is_reported_at_load_time(kind):
    # a NaN moment gives a NaN mass inside, which is refused the same way
    for mu, sigma in (("1e6", "1"), ("nan", "1"), ("5", "nan")):
        text = (f"[workload]\nhorizon = 10\ndistribution_{kind} = gaussian\n"
                f"mu_{kind} = {mu}\nsigma_{kind} = {sigma}\n")
        with pytest.raises(ConfigError, match=rf"^\[workload\] distribution_{kind} "):
            build(text)


@pytest.mark.parametrize(
    "header, message",
    [("C=10 K=2", "num_shards is 20; the trace has K=2"),
     ("C=12 K=20", "num_classes is 10; the trace has C=12")],
    ids=["shards", "classes"],
)
def test_trace_of_another_shape_is_reported_at_load_time(header, message, tmp_path):
    path = tmp_path / "shape.trace"
    path.write_text(f"eraser-trace v1 {header}\n0,0,0,1,0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'[oracle] {message}')}$"):
        build(f"[oracle]\ntrace_path = {path}\n")
    path.write_text("eraser-trace v1 C=10 K=20\n0,0,0,1,0.5\n", encoding="utf-8")
    assert build(f"[oracle]\ntrace_path = {path}\n").trace_path.entries == {(0, 0, 0): 1}


def test_a_config_that_sets_only_trace_path_replays_that_trace(tmp_path):
    # each trace label differs from the synthetic oracle's, so a config that
    # ignored its trace would disagree on every triple
    synthetic = build().oracle_config(42)
    samples = [sample_for(synthetic, v) for v in range(5)]
    triples = [(s, k, v) for s in samples for k in range(20) for v in range(2)]
    entries = {(s.value, k, v): (predict(synthetic, s, k, v) + 1) % 10 for s, k, v in triples}
    path = tmp_path / "replayed.trace"
    path.write_text("eraser-trace v1 C=10 K=20\n" + "".join(
        f"{s},{k},{v},{label},1.0\n" for (s, k, v), label in entries.items()
    ), encoding="utf-8")
    cfg = build(f"[oracle]\ntrace_path = {path}\n")
    for seed in (42, 43):
        oracle = cfg.oracle_config(seed)
        assert oracle.trace.entries == entries
        assert [predict(oracle, s, k, v) for s, k, v in triples] == list(entries.values())


@pytest.mark.parametrize(
    "lines, message",
    [(["eraser-trace v2 C=10 K=20"], "line 1: bad header 'eraser-trace v2 C=10 K=20'"),
     (["eraser-trace v1 C=10 K=20", "0,0,0,1,0.5", "0,0,0,2,0.5"],
      "line 3: repeats sample=0 shard=0 version=0")],
    ids=["header", "repeat"],
)
def test_a_trace_that_cannot_be_parsed_is_a_trace_path_error(lines, message, tmp_path):
    # a trace file that cannot be read: tests/test_cli.py
    path = tmp_path / "bad.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'[oracle] trace_path: {message}')}$"):
        build(f"[oracle]\ntrace_path = {path}\n")


def test_backend_is_an_unknown_key_reported_with_its_line():
    with pytest.raises(ConfigError, match=r"^line 3: unknown key 'backend' in section \[oracle\]$"):
        build("[oracle]\nnum_classes = 10\nbackend = trace\n")


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


def test_a_negative_seed_is_reported_with_where_it_was_set(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    with pytest.raises(ConfigError, match=re.escape("[experiment] base_seed: seed must be non")):
        build("[experiment]\nbase_seed = -1\n")
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    with pytest.raises(ConfigError, match=f"^{SEED_ENV_VAR}: seed must be non-negative, got -1$"):
        build("[experiment]\nbase_seed = 5\n")
    monkeypatch.setenv(SEED_ENV_VAR, "0")  # the env var overrides a negative file seed
    assert build("[experiment]\nbase_seed = -1\n").seeds() == [0]


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


# Config texts that together set every key, each resolved on all its seeds.
RESOLUTION_TEXTS = {
    "gaussian": """
[experiment]
variants = DIMP,STTU
replications = 2
base_seed = 5
[workload]
n_unlearning = 12
n_inference = 40
horizon = 30
distribution_u = gaussian
mu_u = 10
sigma_u = 4
distribution_i = gaussian
noise_fraction = 0.25
[oracle]
num_classes = 4
num_shards = 6
accuracy = 0.7
flip_probability = 0.05
[scheduler]
threshold = 0.2
parallel_capacity = 3
retrain_policy = retrain_minimal
cert_mode = coarse
context_switch_latency = 0.5
shuffle_shards = true
detector_enabled = true
detector_tpr = 0.8
detector_fpr = 0.1
[sim]
retrain_duration = 2.5
inference_service_time = 0.125
""",
    "multimodal": """
[experiment]
base_seed = 11
[workload]
n_unlearning = 15
n_inference = 35
distribution_u = multimodal
modes_u = 3
distribution_i = multimodal
mu_i = 4
sigma_i = 2
modes_i = 1
shard_assignment = scattered_round_robin
[scheduler]
confidence_threshold = 0.6
""",
    "grid": """
[experiment]
variants = SISA
[workload]
n_unlearning = 8
n_inference = 30
horizon = 40
distribution_u = grid
shard_assignment = scattered_round_robin
distribution_i = gaussian
noise_fraction = 0.5
[oracle]
num_shards = 5
""",
    "grid_without_inference": """
[workload]
n_unlearning = 6
n_inference = 0
distribution_u = grid
""",
    "no_unlearning": """
[workload]
n_unlearning = 0
n_inference = 25
distribution_u = gaussian
sigma_u = 3
""",
}

RESOLUTION_DIGESTS = {
    "gaussian": "6a7eed231f6a1dad9c7beb7bb49d6af06be008411248a1750133865786658abc",
    "grid": "72ec3077b7ca16c7e3c7df6d6786e3069b5441b18c4cf644703c72c4a891422e",
    "grid_without_inference": "3a111128a43735b97888b105cb82c1805802fa3948d8cbd484c861eeb14016b7",
    "multimodal": "9e0c43060906a18d5fb310cf9d56523e2786176fabfd8029007fe3f8f2d13fd5",
    "no_unlearning": "d0f7abf4a34014453038dbe7f8cd09865bda9ac7b286f6d70e28eaccfe90bb1c",
}


def resolution_digest(text):
    cfg = build(text)
    h = hashlib.sha256(repr((cfg.variants, cfg.seeds(), cfg.num_shards)).encode())
    for s in cfg.seeds():
        h.update(repr(cfg.oracle_config(s)).encode())
        p = cfg.sim_params(s)
        h.update(repr((p.retrain_duration, p.horizon, p.inference_service_time)).encode())
        for name in VARIANT_NAMES:
            v = cfg.variant(name)
            h.update(repr((
                v.name, VARIANT_TABLE[v.name], v.threshold, v.parallel_capacity,
                v.retrain_policy, v.cert_mode, v.mitigation, v.shuffle_shards,
                v.context_switch_latency,
            )).encode())
        for request in cfg.build_workload(s):
            h.update(repr(request).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RESOLUTION_TEXTS))
def test_configs_resolve_to_the_recorded_objects(name, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolution_digest(RESOLUTION_TEXTS[name]) == RESOLUTION_DIGESTS[name]


# A valid non-default value for every key, after the keys it needs set
# first: a key the chosen options do not read would change nothing.
KEY_VALUES = {
    "variants": "DIMP", "replications": "2", "base_seed": "7",
    "n_unlearning": "40", "n_inference": "300", "horizon": "100",
    "distribution_u": "gaussian", "mu_u": "10", "sigma_u": "5", "modes_u": "3",
    "distribution_i": "gaussian", "mu_i": "10", "sigma_i": "5", "modes_i": "3",
    "shard_assignment": "scattered_round_robin", "noise_fraction": "0.5",
    "num_classes": "3", "num_shards": "5", "accuracy": "0.5", "trace_path": "{trace}",
    "flip_probability": "0.2", "threshold": "0.2", "parallel_capacity": "3",
    "retrain_policy": "retrain_minimal", "cert_mode": "coarse",
    "context_switch_latency": "0.5", "shuffle_shards": "true", "detector_enabled": "true",
    "detector_tpr": "0.8", "detector_fpr": "0.1", "confidence_threshold": "0.5",
    "retrain_duration": "2.5", "inference_service_time": "0.125",
}
NEEDS = {
    "mu_u": "[workload]\ndistribution_u = gaussian\n",
    "sigma_u": "[workload]\ndistribution_u = gaussian\n",
    "modes_u": "[workload]\ndistribution_u = multimodal\n",
    "mu_i": "[workload]\ndistribution_i = gaussian\n",
    "sigma_i": "[workload]\ndistribution_i = gaussian\n",
    "modes_i": "[workload]\ndistribution_i = multimodal\n",
    "detector_tpr": "[scheduler]\ndetector_enabled = true\n",
    "detector_fpr": "[scheduler]\ndetector_enabled = true\n",
}


@pytest.mark.parametrize("section, key", sorted(_KEYS))
def test_every_key_changes_the_resolved_objects(section, key, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    trace = tmp_path / "one.trace"
    trace.write_text("eraser-trace v1 C=10 K=20\n0,0,0,1,0.5\n", encoding="utf-8")
    needs = NEEDS.get(key, "")
    text = needs + f"[{section}]\n{key} = {KEY_VALUES[key].format(trace=trace)}\n"
    assert resolution_digest(text) != resolution_digest(needs)
