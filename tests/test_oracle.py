import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eraser.hashing import mix64, mix64_array_chain, mix64_chain
from eraser.oracle import (
    OracleConfig,
    PredictionTrace,
    SamplePrefixes,
    TraceError,
    _mod,
    load_trace,
    predict,
    sample_for,
)


def test_mix64_chain_extends_the_flat_hash():
    assert mix64(3, 5, 7) == mix64_chain(mix64(3, 5), 7)
    assert mix64(1) == mix64_chain(mix64(), 1)


def test_mix64_array_chain_extends_a_scalar_prefix():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2**60, 6, dtype=np.uint64)
    b = rng.integers(0, 2**60, 4, dtype=np.uint64)
    vec = mix64_array_chain(mix64(9, 2), a[:, None], b)
    assert vec.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert int(vec[i, j]) == mix64(9, 2, int(a[i]), int(b[j]))


def predict_row(cfg, sample, versions):
    """Predictions of all K shards for one sample: a one-row prefix table."""
    table = SamplePrefixes(cfg, [sample.value], [sample.is_noise])
    return table.predict(np.arange(1), versions)[0]


def _cfg(**kw):
    base = dict(num_classes=10, num_shards=20, accuracy=0.9, seed=1234)
    base.update(kw)
    return OracleConfig(**base)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _cfg(num_classes=1)
    with pytest.raises(ValueError):
        _cfg(num_shards=0)
    with pytest.raises(ValueError):
        _cfg(accuracy=1.5)
    # a trace's header must match the config's classes and shards
    narrow = load_trace(_write_trace(["eraser-trace v1 C=10 K=2", "0,0,0,1,0.5"], tmp_path))
    with pytest.raises(ValueError, match="num_shards is 20; the trace has K=2"):
        _cfg(trace=narrow)
    with pytest.raises(ValueError, match="num_classes is 10; the trace has C=12"):
        _cfg(trace=PredictionTrace(12, 20, {(0, 0, 0): 11}))
    assert _cfg(trace=PredictionTrace(10, 20, {})).trace.num_shards == 20


def test_a_config_holding_a_trace_replays_it():
    # each trace label is the synthetic oracle's opposite, so a config that
    # ignored its trace would disagree on every triple
    synthetic = OracleConfig(2, 3, 0.9, seed=0)
    samples = [sample_for(synthetic, v) for v in range(20)]
    triples = [(s, k, v) for s in samples for k in range(3) for v in range(3)]
    entries = {(s.value, k, v): 1 - predict(synthetic, s, k, v) for s, k, v in triples}
    t = PredictionTrace(2, 3, entries)
    cfg = OracleConfig(2, 3, 0.9, seed=0, trace=t)
    assert [predict(cfg, s, k, v) for s, k, v in triples] == list(entries.values())
    prefixes = SamplePrefixes(cfg, [s.value for s in samples], [False] * 20)
    for v in range(3):
        got = prefixes.predict(np.arange(20), [v] * 3)
        assert got.tolist() == [[entries[s.value, k, v] for k in range(3)] for s in samples]


def test_predict_is_deterministic():
    cfg = _cfg()
    s = sample_for(cfg, 7)
    assert predict(cfg, s, 3, 2) == predict(cfg, s, 3, 2)
    assert list(predict_row(cfg, s, [0] * 20)) == list(predict_row(cfg, s, [0] * 20))


def test_predict_row_matches_scalar_predict():
    """One sample's prediction vector from a prefix table equals per-shard predict."""
    cfg = _cfg()
    rng = np.random.default_rng(5)
    for value in range(30):
        s = sample_for(cfg, value, is_noise=bool(value % 3 == 0))
        versions = rng.integers(0, 6, 20)
        vec = predict_row(cfg, s, versions)
        assert list(vec) == [predict(cfg, s, k, int(versions[k])) for k in range(20)]


def _trace_cfg(num_classes, num_shards, samples, versions):
    """A trace backend holding a deterministic label for every needed triple."""
    entries = {
        (int(s), k, int(v)): mix64(int(s), k, int(v)) % num_classes
        for s, row in zip(samples, versions)
        for k, v in enumerate(row)
    }
    trace = PredictionTrace(num_classes, num_shards, entries)
    return OracleConfig(num_classes, num_shards, 0.5, seed=0, trace=trace)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([1, 7, 20, 48, 49, 64]),
    st.integers(2, 10),
    st.sampled_from([0.0, 1.0, 0.6]),
    st.sampled_from([None, 0.05, 0.5, 1.0, "trace"]),
    st.integers(0, 2**32),
    st.data(),
)
def test_sample_prefixes_predict_matches_per_shard_predict(b, k, c, accuracy, extension, seed, data):
    samples = data.draw(st.lists(st.integers(0, 2**40), min_size=b, max_size=b))
    # an all-clean batch skips the noise pass, an all-noise one the wrong-label chain
    pattern = data.draw(st.sampled_from(["clean", "noise", "mixed"]))
    if pattern == "mixed":
        noise = data.draw(st.lists(st.booleans(), min_size=b, max_size=b))
    else:
        noise = [pattern == "noise"] * b
    rows = st.lists(st.integers(0, 2**20), min_size=k, max_size=k)
    if data.draw(st.booleans(), label="one shared row"):
        versions = data.draw(rows)
        per_sample = [versions] * b
    else:
        versions = per_sample = data.draw(st.lists(rows, min_size=b, max_size=b))
    if extension == "trace":
        cfg = _trace_cfg(c, k, samples, per_sample)
    else:
        cfg = OracleConfig(c, k, accuracy, seed=seed, flip_probability=extension)
    out = SamplePrefixes(cfg, samples, noise).predict(np.arange(b), versions)
    assert out.dtype == np.int64 and out.shape == (b, k)
    expected = [
        [predict(cfg, sample_for(cfg, s, n), j, v) for j, v in enumerate(row)]
        for s, n, row in zip(samples, noise, per_sample)
    ]
    assert out.tolist() == expected
    assert predict_row(cfg, sample_for(cfg, samples[0], noise[0]), per_sample[0]).tolist() == (
        expected[0]
    )


@pytest.mark.parametrize("k", [20, 64])
def test_versions_of_the_wrong_length_are_rejected(k):
    cfg = _cfg(num_shards=k)
    with pytest.raises(ValueError):
        predict_row(cfg, sample_for(cfg, 1), [0] * (k - 1))
    with pytest.raises(ValueError):
        predict_row(cfg, sample_for(cfg, 1), [0] * (k + 1))
    table = SamplePrefixes(cfg, [1, 2], [False, True])
    with pytest.raises(ValueError):
        table.predict(np.arange(2), [[0] * k, [0] * (k - 1)])
    with pytest.raises(ValueError):
        table.predict(np.arange(2), [[0] * k] * 3)
    with pytest.raises(ValueError, match="expected 2 noise flags, got 1"):
        SamplePrefixes(cfg, [1, 2], [False])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 7, 20, 64]),
    st.integers(2, 10),
    st.sampled_from([0.0, 1.0, 0.6]),
    st.integers(0, 2**32),
    st.data(),
)
def test_prefix_rows_match_per_shard_predict(k, c, accuracy, seed, data):
    cfg = OracleConfig(c, k, accuracy, seed=seed)
    values = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True))
    # every sample id is in the table twice: once as noise, once clean
    keys = [(v, n) for v in values for n in (False, True)]
    table = SamplePrefixes(cfg)
    version_row = st.lists(st.integers(0, 2**20), min_size=k, max_size=k)

    def check(picked):
        rows = table.rows(_keys(*picked))
        b = len(picked)
        if data.draw(st.booleans(), label="one version row for all"):
            versions = data.draw(version_row)
            per_row = [versions] * b
        else:
            per_row = data.draw(st.lists(version_row, min_size=b, max_size=b))
            versions = np.array(per_row, dtype=np.int64).reshape(b, k)
        out = table.predict(rows, versions)
        assert out.dtype == np.int64 and out.shape == (b, k)
        assert out.tolist() == [
            [predict(cfg, sample_for(cfg, s, n), j, v) for j, v in enumerate(row)]
            for (s, n), row in zip(picked, per_row)
        ]

    check(keys)
    # repeated rows, and B=0
    check(data.draw(st.lists(st.sampled_from(keys), max_size=12)))
    assert len(table.samples) == len(keys) and sorted(table.index.values()) == list(
        range(len(keys))
    )


# 1 is the wrong-label chain's divisor at C = 2
@pytest.mark.parametrize("c", [1, 2, 3, 9, 10, 63, 2**20])
def test_floor_division_reduction_equals_mod(c):
    edges = np.array([0, 1, c - 1, c, c + 1, 2**63, 2**64 - 1], dtype=np.uint64)
    drawn = np.random.default_rng(c).integers(0, 2**64, 1000, dtype=np.uint64)
    h = np.concatenate([edges, drawn])
    expected = [int(x) % c for x in h.tolist()]
    assert (h % np.uint64(c)).tolist() == expected
    got = _mod(h.copy(), c)
    assert got.dtype == np.uint64 and got.tolist() == expected


@pytest.mark.parametrize("accuracy", [0.0, 0.6, 1.0])
def test_split_batch_writes_each_kind_back_to_its_rows(accuracy):
    k, samples = 7, [11, 12, 13, 14, 15, 16]
    noise = [i % 2 == 1 for i in range(len(samples))]  # clean, noise, clean, ...
    cfg = _cfg(accuracy=accuracy, num_shards=k)
    table = SamplePrefixes(cfg, samples, noise)
    rng = np.random.default_rng(3)
    # alternating kinds with row 2 repeated, every noise row, and B = 0
    for rows in ([0, 1, 2, 3, 4, 5, 2], [1, 3, 5, 3], []):
        versions = rng.integers(0, 9, (len(rows), k))
        out = table.predict(np.array(rows, dtype=np.intp), versions)
        assert out.dtype == np.int64 and out.shape == (len(rows), k)
        assert out.tolist() == [
            [predict(cfg, sample_for(cfg, samples[r], noise[r]), j, v) for j, v in enumerate(row)]
            for r, row in zip(rows, versions.tolist())
        ]


def _keys(*pairs):
    """The table's row keys of (sample id, noise flag) pairs."""
    return [2 * sample + noise for sample, noise in pairs]


def test_rows_appends_each_fresh_key_once_in_order():
    cfg = _cfg()
    table = SamplePrefixes(cfg)
    assert table.rows(_keys((5, False), (6, True))).tolist() == [0, 1]
    # present and fresh keys mixed, fresh (7, False) twice
    keys = _keys((6, True), (7, False), (5, False), (7, False), (8, True))
    assert table.rows(keys).tolist() == [1, 2, 0, 2, 3]
    assert table.index == dict(zip(_keys((5, False), (6, True), (7, False), (8, True)), range(4)))
    # every present: nothing appended
    assert table.rows(_keys((8, True), (5, False), (8, True))).tolist() == [3, 0, 3]
    whole = SamplePrefixes(cfg, [5, 6, 7, 8], [False, True, False, True])
    for name in ("samples", "noise", "base", "wrong", "true"):
        assert getattr(table, name).tolist() == getattr(whole, name).tolist()



def test_rows_finds_the_rows_the_table_was_built_with():
    cfg = _cfg()
    table = SamplePrefixes(cfg, [5, 6, 5], [False, True, False])  # (5, False) twice
    built = {name: getattr(table, name).tolist() for name in ("samples", "noise", "base", "true")}
    rows = table.rows(_keys((6, True), (5, False), (6, True))).tolist()
    assert rows[0] == rows[2] == 1 and rows[1] in (0, 2)
    # nothing appended, nothing hashed again
    assert {name: getattr(table, name).tolist() for name in built} == built
    # present and fresh keys mixed: only the fresh key is appended, once
    assert table.rows(_keys((7, True), (5, False), (6, True), (7, True))).tolist() == [3, rows[1], 1, 3]
    assert table.samples.tolist() == [5, 6, 5, 7] and table.noise.tolist() == [False, True, False, True]
    got = table.predict(table.rows(_keys((5, False), (6, True), (7, True))), np.zeros(20, dtype=np.int64))
    assert got.tolist() == [
        [predict(cfg, sample_for(cfg, s, n), j, 0) for j in range(20)]
        for s, n in ((5, False), (6, True), (7, True))
    ]

@pytest.mark.parametrize("b,k", [(1, 20), (3, 64)])
def test_out_of_range_inputs_are_rejected_at_every_batch_size(b, k):
    cfg = _cfg(num_shards=k)
    samples, noise = list(range(b)), [False] * b
    versions = [[0] * k for _ in range(b)]
    versions[-1][-1] = -1
    with pytest.raises(ValueError, match="version must be non-negative"):
        SamplePrefixes(cfg, samples, noise).predict(np.arange(b), versions)
    with pytest.raises(ValueError, match="sample ids must be non-negative"):
        SamplePrefixes(cfg, samples[:-1] + [-5], noise)
    table = SamplePrefixes(cfg)
    with pytest.raises(ValueError, match="version must be non-negative"):
        table.predict(table.rows(_keys(*zip(samples, noise))), versions[-1])
    with pytest.raises(ValueError, match="sample ids must be non-negative"):
        table.rows(_keys((-5, True)))
    assert _keys((-5, True))[0] not in table.index


def test_sample_ids_whose_keys_overflow_64_bits_are_rejected():
    cfg = _cfg()
    table = SamplePrefixes(cfg, [2**63 - 1], [True])  # the largest key, 2**64 - 1
    assert table.rows(_keys((2**63 - 1, True))).tolist() == [0]
    with pytest.raises(ValueError, match="sample ids must be below 2"):
        SamplePrefixes(cfg, [5, 2**63], [False, False])
    with pytest.raises(ValueError, match="sample ids must be below 2"):
        table.rows(_keys((2**63, False)))
    assert len(table.samples) == 1


def _reference_flip_walk(cfg, value, shard, version):
    # one hash per version, from the top down to the last flip
    thr = min(int(round(cfg.flip_probability * 2.0**64)), 2**64)
    v = version
    while v > 0:
        if mix64(cfg.seed, 0xA5, value, shard, v) < thr:
            break
        v -= 1
    return v


@pytest.mark.parametrize("flip", [0.0, 0.01, 0.2, 1.0])
def test_flip_walk_matches_the_scalar_reference(flip):
    cfg = _cfg(accuracy=0.5, num_shards=2, flip_probability=flip)
    plain = _cfg(accuracy=0.5, num_shards=2)
    for value in (0, 123):
        clean, noisy = sample_for(cfg, value), sample_for(cfg, value, True)
        for shard in range(2):
            for version in range(401):
                last = _reference_flip_walk(cfg, value, shard, version)
                for s in (clean, noisy):
                    assert predict(cfg, s, shard, version) == predict(plain, s, shard, last)
    # whole (B, K) version matrices, and one (K,) row shared by every sample
    k, values = 8, list(range(32))
    cfg = _cfg(accuracy=0.5, num_shards=k, flip_probability=flip)
    plain = _cfg(accuracy=0.5, num_shards=k)
    noise = [v % 2 == 1 for v in values]
    versions = np.random.default_rng(3).integers(0, 1000, (len(values), k))
    versions[:, 0] = 0
    versions[0] = [0, 1, 2, 255, 256, 257, 511, 512]
    table = SamplePrefixes(cfg, values, noise)

    def expected(i, row_versions):
        last = [_reference_flip_walk(cfg, values[i], j, v) for j, v in enumerate(row_versions)]
        s = sample_for(plain, values[i], noise[i])
        return [predict(plain, s, j, v) for j, v in enumerate(last)]

    got = table.predict(np.arange(len(values)), versions).tolist()
    for i in range(len(values)):
        assert got[i] == expected(i, versions[i].tolist())
    got = table.predict(np.arange(len(values)), versions[0]).tolist()
    for i in range(len(values)):
        assert got[i] == expected(i, versions[0].tolist())
    if flip == 0.01:
        # last flips inside the first 256-candidate block, and beyond it
        walks = [
            (v, _reference_flip_walk(cfg, values[i], j, v))
            for i in range(len(values))
            for j, v in enumerate(versions[i].tolist())
            if v > 0
        ]
        assert any(v - last < 256 for v, last in walks)
        assert any(v - last >= 256 and last > 0 for v, last in walks)


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
        [sample_for(cfg, v).true_label for v in range(20_000)], minlength=10
    )
    assert stats.chisquare(counts).pvalue > 0.01


def agreement(cfg, sample, versions):
    """Share of shards voting for the ensemble's winner."""
    counts = np.bincount(predict_row(cfg, sample, versions), minlength=cfg.num_classes)
    return int(counts.max()) / cfg.num_shards


def test_confidence_definition():
    cfg = _cfg(accuracy=1.0, num_shards=5, num_classes=3)
    s = sample_for(cfg, 0)
    assert agreement(cfg, s, [0] * 5) == 1.0


def test_confidence_agreement_ratio(tmp_path):
    # winner backed by 3 of 5 shards -> 0.6, via a hand-built trace
    trace_lines = ["eraser-trace v1 C=2 K=5"]
    votes = [0, 0, 0, 1, 1]
    trace_lines += [f"0,{k},0,{votes[k]},1.0" for k in range(5)]
    path = _write_trace(trace_lines, tmp_path)
    trace = load_trace(path)
    cfg = OracleConfig(2, 5, 0.9, seed=0, trace=trace)
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


def _write_trace(lines, tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_trace_roundtrip_and_replay(tmp_path):
    lines = ["eraser-trace v1 C=3 K=2", "0,0,0,2,0.75", "0,1,0,1,0.5", "5,0,1,0,1.0"]
    trace = load_trace(_write_trace(lines, tmp_path))
    assert trace.num_classes == 3 and trace.num_shards == 2
    cfg = OracleConfig(3, 2, 0.9, seed=0, trace=trace)
    s0 = sample_for(cfg, 0)
    assert predict(cfg, s0, 0, 0) == 2
    assert predict(cfg, s0, 1, 0) == 1


def test_trace_missing_entry_names_the_triple(tmp_path):
    trace = load_trace(_write_trace(["eraser-trace v1 C=3 K=2", "0,0,0,2,0.75"], tmp_path))
    cfg = OracleConfig(3, 2, 0.9, seed=0, trace=trace)
    with pytest.raises(TraceError, match="sample=0 shard=1 version=4"):
        predict(cfg, sample_for(cfg, 0), 1, 4)
    with pytest.raises(TraceError, match="sample=0 shard=1 version=4"):
        SamplePrefixes(cfg, [0], [False]).predict(np.arange(1), [0, 4])


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (["eraser-trace v2 C=3 K=2"], "line 1"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,7,0.5"], "line 2"),
        (["eraser-trace v1 C=3 K=2", "0,9,0,1,0.5"], "shard 9"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,1,0.5,extra"], "5 comma-separated"),
        (["eraser-trace v1 C=3 K=2", "0,0,0,1,1.5"], "confidence"),
        (["eraser-trace v1 C=3 K=2", "a,0,0,1,0.5"], "line 2"),
        (["eraser-trace v1 C=3 K=2", "-5,0,-1,1,0.5"], "line 2: sample id and version"),
        (["eraser-trace v1 C=3 K=2", "0,0,-1,1,0.5"], "line 2: sample id and version"),
        (["eraser-trace v1 C=3 K=2", "7,1,0,2,0.5", "7,1,0,0,0.5"],
         "line 3: repeats sample=7 shard=1 version=0"),
    ],
)
def test_trace_parse_errors(lines, fragment, tmp_path):
    with pytest.raises(TraceError, match=fragment):
        load_trace(_write_trace(lines, tmp_path))
