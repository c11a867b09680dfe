"""Golden artifacts: the bytes of metrics.csv and requests.csv are pinned.

Each config runs all eight variants on a small input (K=10, 60 unlearning
+ 600 inference requests) and takes one option path that the benchmark's
desk and flood workloads never take, so any change of simulated behaviour
on those paths shows here as a changed hash. The wide case runs a K=64
ensemble (half its predictions from the noise chain) under a noise flood and
also pins each variant's judgement counts, which neither CSV carries.
When behaviour is meant to change, print fresh constants with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import os
from collections import Counter
import pathlib
import sys
import tempfile

import pytest

from eraser.config import build_experiment_config, parse_config_text
from eraser.experiment import _run_all, run_experiment
from eraser.oracle import predict, sample_for

BASE = """
[experiment]
base_seed = 7
[workload]
n_unlearning = 60
n_inference = 600
noise_fraction = 0.3
[oracle]
num_shards = 10
num_classes = 4
accuracy = 0.75
[scheduler]
parallel_capacity = 3
"""

# name -> extra lines: [scheduler] keys follow BASE's last section, and an
# [oracle] path reopens its section
OPTION_PATHS = {
    "cert_coarse": "cert_mode = coarse",
    "cert_disabled": "cert_mode = disabled",
    "detector": "detector_enabled = true\ndetector_tpr = 0.8\ndetector_fpr = 0.1",
    "confidence_threshold": "confidence_threshold = 0.5",
    "retrain_minimal": "retrain_policy = retrain_minimal",
    "context_switch_latency": "context_switch_latency = 0.5",
    "shuffle_shards": "shuffle_shards = true",
    "flip_probability": "[oracle]\nflip_probability = 0.2",
}

# name -> (sha256 of metrics.csv, sha256 of requests.csv)
GOLDEN = {
    "cert_coarse": (
        "f7a3b06ecd68c0a968c1c1b387a46048a28f4469f1f491232397929d2719ca9f",
        "465971a5f897d047512f5f064332de4c45373ed8df8086dca0c1cdc62b0601a2",
    ),
    "cert_disabled": (
        "7ab6c8e2aa7feb1dbcd26287cc9082743efa1ef52a52ff87f10ee2b558e0b10f",
        "77e3320889f77668f2dad77390ec73e77fe6e47a61ca11a315ad45edbbe49262",
    ),
    "confidence_threshold": (
        "21c5dcba3a7f8d9831ffc317edb0485bfcb7482a147c9231b00e2fe622aa48ee",
        "810144c9a1270db20cc663dfacc59e0c68404b65ab0cdeddf1454114b60568c3",
    ),
    "context_switch_latency": (
        "d762b6d95f7965e6a3a8bbc46942f85522e4d3a365d4f3c988cd003cd0a7791c",
        "4299c8a9d68c694d1daeeddd84e489089737bbd7febd87849d07b19f17d538cb",
    ),
    "detector": (
        "27b35ead7c87c191ec9f4f48deec806df54f4e494fbde9fdcc2cd7c9785854bf",
        "0877d2f3a8c96866c40f8935d2b0a565551dbfe007b05a6d3ae7a2669580a636",
    ),
    "flip_probability": (
        "65c3e201b05d00bb8a8bbbd084e49f36d870f74c80140099aab7c067903779ba",
        "b4f48d2e138aae271833ee933e1fa481d7217794d120ea2babc70e1946238510",
    ),
    "retrain_minimal": (
        "99a01e1ddc6b0945434ef0a5b5531fac98642723e966b462ec582e76d0d77d14",
        "95bd48f5256f7da727b7c3f04729e450ab0d06f26f90bc39646f5e4ba7a3c1a6",
    ),
    "shuffle_shards": (
        "4d736db927b079c1911edbb43480cb60e85d3bcc157f4491061b3d37db189fb2",
        "b0861011b4dcb965c177fef2088e84558c8d2d2967f6558570a8de0585371a55",
    ),
}

# K=64, half noise, round-robin unlearning: wide batches of noise and clean
# rows and a heavy backlog, 40 unlearning + 400 inference requests
WIDE = """
[experiment]
base_seed = 7
[workload]
n_unlearning = 40
n_inference = 400
noise_fraction = 0.5
shard_assignment = scattered_round_robin
[oracle]
num_shards = 64
num_classes = 10
accuracy = 0.6
[scheduler]
parallel_capacity = 64
"""

WIDE_GOLDEN = (
    "92c1768e007f1d7a0c8f75b34bbabd4b4fe917a68c9f04036a5063920e87ec5d",
    "edb85cf97b5eb3e56635f240b0a35e364e371f767064f2208c5fc0a8df25b89e",
)

# variant -> (Metrics.judgements, Metrics.judgements_uncertified)
WIDE_JUDGEMENTS = {
    "SISA": (0, 0),
    "DIMP": (644, 173),
    "SUTP": (427, 27),
    "DUTP": (1025, 354),
    "STTU": (449, 62),
    "DTTU": (1036, 411),
    "STTP": (477, 77),
    "DTTP": (1126, 475),
}


def _hashes(cfg, out_dir):
    run_experiment(cfg, out_dir)
    return tuple(
        hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        for f in ("metrics.csv", "requests.csv")
    )


def _artifact_hashes(name, out_dir):
    cfg = build_experiment_config(parse_config_text(BASE + OPTION_PATHS[name] + "\n"))
    return _hashes(cfg, out_dir)


def _wide_judgements():
    cfg = build_experiment_config(parse_config_text(WIDE))
    return {
        v: (m.judgements, m.judgements_uncertified)
        for (v, _), m in _run_all(cfg, jobs=1, collect_log=False).items()
    }


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("ERASER_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(OPTION_PATHS))
def test_artifacts_match_the_recorded_bytes(name, tmp_path):
    assert _artifact_hashes(name, tmp_path) == GOLDEN[name]


def _top_vote_share(oracle_cfg, rec):
    # the winner's share of the votes at the record's own serving versions
    sample = sample_for(oracle_cfg, rec.sample, rec.is_noise)
    votes = Counter(predict(oracle_cfg, sample, k, v) for k, v in enumerate(rec.versions))
    return max(votes.values()) / oracle_cfg.num_shards


@pytest.mark.parametrize("variant", ["DIMP", "DUTP", "DTTU", "DTTP"])
def test_confidence_threshold_holds_for_every_answer(variant):
    # double-context variants re-judge waiting requests at every completion;
    # those re-checks answer under the same agreement threshold as arrivals
    cfg = build_experiment_config(parse_config_text(BASE + OPTION_PATHS["confidence_threshold"]))
    oracle_cfg = cfg.oracle_config(cfg.base_seed)
    cfg.variants = (variant,)
    log = _run_all(cfg, jobs=1, collect_log=True)[(variant, cfg.base_seed)].per_request_log
    answered = [rec for rec in log if rec.verdict in ("certified", "uncertified")]
    assert answered
    low = [rec.request_id for rec in answered if _top_vote_share(oracle_cfg, rec) < 0.5]
    assert low == []


def test_wide_ensemble_matches_the_recorded_bytes_and_judgements(tmp_path):
    assert _hashes(build_experiment_config(parse_config_text(WIDE)), tmp_path) == WIDE_GOLDEN
    assert _wide_judgements() == WIDE_JUDGEMENTS


if __name__ == "__main__":
    os.environ.pop("ERASER_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(OPTION_PATHS):
            out = pathlib.Path(tmp) / key
            metrics, requests = _artifact_hashes(key, out)
            sys.stdout.write(f'    "{key}": (\n        "{metrics}",\n        "{requests}",\n    ),\n')
        metrics, requests = _hashes(
            build_experiment_config(parse_config_text(WIDE)), pathlib.Path(tmp) / "wide"
        )
        sys.stdout.write(f'WIDE_GOLDEN = (\n    "{metrics}",\n    "{requests}",\n)\n')
        sys.stdout.write(f"WIDE_JUDGEMENTS = {_wide_judgements()!r}\n")
