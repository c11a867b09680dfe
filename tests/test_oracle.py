import numpy as np
import pytest
from scipy import stats

from eraser.ensemble import count_votes
from eraser.hashing import mix64, mix64_array, mix64_chain
from eraser.oracle import (
    OracleConfig,
    TraceError,
    load_trace,
    predict,
    predict_vector,
    sample_for,
    true_label_for,
)


def test_mix64_chain_extends_the_flat_hash():
    assert mix64(3, 5, 7) == mix64_chain(mix64(3, 5), 7)
    assert mix64(1) == mix64_chain(mix64(), 1)


def test_mix64_array_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**60, 200)
    b = rng.integers(0, 2**60, 200)
    vec = mix64_array(7, a, b, 13)
    for i in range(200):
        assert int(vec[i]) == mix64(7, int(a[i]), int(b[i]), 13)


def _cfg(**kw):
    base = dict(num_classes=10, num_shards=20, accuracy=0.9, seed=1234)
    base.update(kw)
    return OracleConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(num_classes=1)
    with pytest.raises(ValueError):
        _cfg(num_shards=0)
    with pytest.raises(ValueError):
        _cfg(accuracy=1.5)
    with pytest.raises(ValueError):
        _cfg(backend="magic")
    with pytest.raises(ValueError):
        _cfg(backend="trace")  # no trace loaded


def test_predict_is_deterministic():
    cfg = _cfg()
    s = sample_for(cfg, 7)
    assert predict(cfg, s, 3, 2) == predict(cfg, s, 3, 2)
    assert list(predict_vector(cfg, s, [0] * 20)) == list(predict_vector(cfg, s, [0] * 20))


def test_predict_vector_matches_scalar_predict():
    cfg = _cfg()
    rng = np.random.default_rng(5)
    for value in range(30):
        s = sample_for(cfg, value, is_noise=bool(value % 3 == 0))
        versions = rng.integers(0, 6, 20)
        vec = predict_vector(cfg, s, versions)
        assert list(vec) == [predict(cfg, s, k, int(versions[k])) for k in range(20)]


def test_perfect_accuracy_always_returns_true_label():
    cfg = _cfg(accuracy=1.0)
    for value in range(50):
        s = sample_for(cfg, value)
        assert all(predict(cfg, s, k, v) == s.true_label for k in range(20) for v in (0, 1, 5))


def test_zero_accuracy_never_returns_true_label():
    cfg = _cfg(accuracy=0.0, num_classes=4)
    for value in range(50):
        s = sample_for(cfg, value)
        assert all(predict(cfg, s, k, 0) != s.true_label for k in range(20))


def test_empirical_accuracy_converges():
    cfg = _cfg(accuracy=0.9, num_shards=1)
    hits = total = 0
    for value in range(100_000):
        s = sample_for(cfg, value)
        hits += predict(cfg, s, 0, 0) == s.true_label
        total += 1
    assert abs(hits / total - 0.9) < 0.01


def test_version_bump_resamples_predictions():
    cfg = _cfg(accuracy=0.5, num_classes=10)
    s = sample_for(cfg, 3)
    labels = {predict(cfg, s, 0, v) for v in range(40)}
    assert len(labels) > 1


def test_noise_samples_are_uniform_over_all_classes():
    cfg = _cfg(accuracy=0.9, num_classes=10, num_shards=10)
    counts = np.zeros(10, dtype=int)
    draws = 0
    for value in range(1000):
        s = sample_for(cfg, value, is_noise=True)
        for k in range(10):
            for v in range(10):
                counts[predict(cfg, s, k, v)] += 1
                draws += 1
    assert draws == 100_000
    # chi-square goodness of fit against uniform at the 1% level
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_true_labels_roughly_balanced():
    cfg = _cfg(num_classes=10)
    counts = np.bincount(
        [true_label_for(cfg, v) for v in range(20_000)], minlength=10
    )
    assert stats.chisquare(counts).pvalue > 0.01


def agreement(cfg, sample, versions):
    """Share of shards voting for the ensemble's winner."""
    counts = count_votes(predict_vector(cfg, sample, versions), cfg.num_classes)
    return int(counts.max()) / cfg.num_shards


def test_confidence_definition():
    cfg = _cfg(accuracy=1.0, num_shards=5, num_classes=3)
    s = sample_for(cfg, 0)
    assert agreement(cfg, s, [0] * 5) == 1.0


def test_confidence_agreement_ratio():
    # winner backed by 3 of 5 shards -> 0.6, via a hand-built trace
    trace_lines = ["eraser-trace v1 C=2 K=5"]
    votes = [0, 0, 0, 1, 1]
    trace_lines += [f"0,{k},0,{votes[k]},1.0" for k in range(5)]
    path = _write_trace(trace_lines)
    trace = load_trace(path)
    cfg = OracleConfig(2, 5, 0.9, seed=0, backend="trace", trace=trace)
    s = sample_for(cfg, 0)
    assert agreement(cfg, s, [0] * 5) == pytest.approx(0.6)


def test_noise_confidence_well_below_clean_confidence():
    cfg = _cfg(accuracy=0.95, num_classes=10, num_shards=20)
    clean = np.mean(
        [agreement(cfg, sample_for(cfg, v), [0] * 20) for v in range(300)]
    )
    noisy = np.mean(
        [agreement(cfg, sample_for(cfg, v, True), [0] * 20) for v in range(300)]
    )
    assert noisy < clean - 0.3


def test_flip_probability_keeps_predictions_sticky():
    base = _cfg(accuracy=0.5, num_classes=10)
    sticky = _cfg(accuracy=0.5, num_classes=10, flip_probability=0.02)
    changed_base = changed_sticky = total = 0
    for value in range(400):
        s = sample_for(base, value)
        for v in range(1, 6):
            changed_base += predict(base, s, 0, v) != predict(base, s, 0, v - 1)
            changed_sticky += predict(sticky, s, 0, v) != predict(sticky, s, 0, v - 1)
            total += 1
    assert changed_sticky < changed_base / 5
    assert changed_sticky > 0


_trace_counter = 0


def _write_trace(lines, tmpdir="/tmp"):
    global _trace_counter
    import os

    _trace_counter += 1
    path = os.path.join(tmpdir, f"eraser_test_trace_{_trace_counter}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def test_trace_roundtrip_and_replay():
    lines = ["eraser-trace v1 C=3 K=2", "0,0,0,2,0.75", "0,1,0,1,0.5", "5,0,1,0,1.0"]
    trace = load_trace(_write_trace(lines))
    assert trace.num_classes == 3 and trace.num_shards == 2
    cfg = OracleConfig(3, 2, 0.9, seed=0, backend="trace", trace=trace)
    s0 = sample_for(cfg, 0)
    assert predict(cfg, s0, 0, 0) == 2
    assert predict(cfg, s0, 1, 0) == 1


def test_trace_missing_entry_names_the_triple():
    trace = load_trace(_write_trace(["eraser-trace v1 C=3 K=2", "0,0,0,2,0.75"]))
    cfg = OracleConfig(3, 2, 0.9, seed=0, backend="trace", trace=trace)
    with pytest.raises(TraceError, match="sample=0 shard=1 version=4"):
        predict(cfg, sample_for(cfg, 0), 1, 4)


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (["eraser-trace v2 C=3 K=2"], "line 1"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,7,0.5"], "line 2"),
        (["eraser-trace v1 C=3 K=2", "0,9,0,1,0.5"], "shard 9"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,1,0.5,extra"], "5 comma-separated"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,1,1.5"], "confidence"),
        (["eraser-trace v1 C=3 K=2", "a,0,0,1,0.5"], "line 2"),
    ],
)
def test_trace_parse_errors(lines, fragment):
    with pytest.raises(TraceError, match=fragment):
        load_trace(_write_trace(lines))
