import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eraser.cli import main
from eraser.workload import (
    GRID,
    INFERENCE,
    SCATTERED_ROUND_ROBIN,
    UNIFORM,
    UNIFORM_RANDOM,
    UNLEARNING,
    Gaussian,
    Multimodal,
    Request,
    WorkloadSpec,
    _mass_inside,
    _sample_arrivals,
    generate,
    symmetric_multimodal,
)


def on_grid(n_unlearning, horizon, n_inference, num_shards, seed=0, **kwargs):
    spec = WorkloadSpec(n_unlearning, n_inference, horizon, seed, distribution_u=GRID, **kwargs)
    return generate(spec, num_shards)


def arrivals(stream, kind=None):
    return [r.arrival for r in stream if kind is None or r.kind == kind]


def test_generate_uniform_sorted_in_range():
    spec = WorkloadSpec(4, 10, 100.0, seed=1)
    stream = generate(spec, 8)
    times = arrivals(stream)
    assert times == sorted(times)
    assert all(0 <= t <= 100 for t in times)
    assert sum(r.kind == UNLEARNING for r in stream) == 4
    assert sum(r.kind == INFERENCE for r in stream) == 10
    assert [r.request_id for r in stream] == list(range(14))


def test_generate_is_pure_function_of_spec():
    spec = WorkloadSpec(50, 100, 40.0, seed=77, noise_fraction=0.2)
    assert generate(spec, 5) == generate(spec, 5)
    assert generate(spec, 5) != generate(WorkloadSpec(50, 100, 40.0, seed=78, noise_fraction=0.2), 5)


def test_gaussian_tail_mass_resampled_into_range():
    spec = WorkloadSpec(0, 2000, 100.0, seed=3, distribution_i=Gaussian(50.0, 33.3))
    times = arrivals(generate(spec, 1))
    assert min(times) >= 0 and max(times) <= 100
    # edge-centered peak still lands inside
    spec = WorkloadSpec(0, 2000, 100.0, seed=3, distribution_i=Gaussian(25.0, 50.0))
    times = arrivals(generate(spec, 1))
    assert min(times) >= 0 and max(times) <= 100


def test_degenerate_sigma_rejected():
    with pytest.raises(ValueError):
        Gaussian(10.0, 0.0)
    with pytest.raises(ValueError):
        Multimodal((10.0,), (-1.0,), (1.0,))
    with pytest.raises(ValueError):
        Multimodal((10.0, 20.0), (1.0, 1.0), (0.7, 0.7))
    with pytest.raises(ValueError, match="weights must be non-negative"):
        Multimodal((2.0, 8.0), (1.0, 1.0), (1.5, -0.5))


def test_truncated_gaussian_moments():
    T = 100.0
    spec = WorkloadSpec(0, 100_000, T, seed=9, distribution_i=Gaussian(T / 2, T / 3))
    arr = np.array(arrivals(generate(spec, 1)))
    a, b = (0 - T / 2) / (T / 3), (T - T / 2) / (T / 3)
    tmean = stats.truncnorm.mean(a, b, loc=T / 2, scale=T / 3)
    tstd = stats.truncnorm.std(a, b, loc=T / 2, scale=T / 3)
    assert abs(arr.mean() - tmean) / tmean < 0.02
    assert abs(arr.std() - tstd) / tstd < 0.02


def test_more_modes_approach_uniform_coverage():
    T = 100.0
    ks = []
    for m in (2, 4, 8, 16):
        spec = WorkloadSpec(0, 20_000, T, seed=9, distribution_i=symmetric_multimodal(m, T))
        arr = np.array(arrivals(generate(spec, 1))) / T
        ks.append(stats.kstest(arr, "uniform").statistic)
    assert all(later < earlier for earlier, later in zip(ks, ks[1:]))


def test_scattered_round_robin_targets():
    spec = WorkloadSpec(45, 0, 100.0, seed=5, shard_assignment=SCATTERED_ROUND_ROBIN)
    stream = generate(spec, 20)
    unlearn = [r for r in stream if r.kind == UNLEARNING]
    assert [r.target_shard for r in unlearn] == [i % 20 for i in range(45)]


def test_noise_fraction_exact_count():
    spec = WorkloadSpec(0, 1001, 10.0, seed=2, noise_fraction=0.25)
    stream = generate(spec, 3)
    assert sum(r.is_noise for r in stream) == round(0.25 * 1001)


def test_unlearning_grid_examples():
    grid = on_grid(4, 100.0, 0, 1, seed=0)
    assert arrivals(grid) == [0.0, 25.0, 50.0, 75.0]
    assert arrivals(on_grid(1, 100.0, 0, 1, seed=0)) == [0.0]
    times = arrivals(on_grid(10, 100.0, 0, 1, seed=0))
    assert all(b - a == pytest.approx(10.0) for a, b in zip(times, times[1:]))
    assert all(r.kind == UNLEARNING for r in grid)
    rr = on_grid(7, 70.0, 0, 3, seed=0, shard_assignment=SCATTERED_ROUND_ROBIN)
    assert [r.target_shard for r in rr] == [i % 3 for i in range(7)]


@pytest.mark.parametrize(
    "args,kwargs",
    [
        ((-1, 10.0, 5, 2), {}),
        ((3, 0.0, 5, 2), {}),
        ((3, float("inf"), 5, 2), {}),
        ((3, float("nan"), 5, 2), {}),
        ((3, 10.0, 5, 0), {}),
        ((3, 10.0, 5, 2), {"shard_assignment": "bogus"}),
    ],
    ids=["negative_n", "zero_horizon", "inf_horizon", "nan_horizon", "no_shards",
         "bogus_assignment"],
)
def test_grid_workload_rejects_bad_inputs(args, kwargs):
    with pytest.raises(ValueError):
        on_grid(*args, **kwargs)


def test_merge_streams_reassigns_ids():
    # the grid merged with the inference stream a grid-free spec draws
    merged = on_grid(3, 30.0, 5, 4, seed=0)
    assert [r.request_id for r in merged] == list(range(8))
    times = arrivals(merged)
    assert times == sorted(times)
    infer = generate(WorkloadSpec(0, 5, 30.0, seed=0), 4)
    assert [(r.arrival, r.sample) for r in merged if r.kind == INFERENCE] == [
        (r.arrival, r.sample) for r in infer
    ]


# sigma so small that every draw is exactly mu: arrivals tie with each other
# and with the grid point 30.0 of 10 unlearning requests over T = 100
_AT_30 = Gaussian(30.0, 1e-300)


def test_equal_time_unlearning_sorts_first():
    stream = on_grid(10, 100.0, 5, 4, distribution_i=_AT_30)
    tied = [r for r in stream if r.arrival == 30.0]
    assert [r.kind for r in tied] == [UNLEARNING] + [INFERENCE] * 5
    assert [r.sample for r in tied[1:]] == list(range(5))
    assert [r.request_id for r in stream] == list(range(15))


def _sort_then_rebuild(spec, num_shards):
    """The reference: each kind built with ids that count within the kind,
    sorted by (arrival, unlearning first, id), then rebuilt with final ids."""
    rng = np.random.default_rng(spec.seed)
    if spec.distribution_u == GRID:
        u_times = np.arange(spec.n_unlearning) * spec.horizon / spec.n_unlearning
        shard_rng = np.random.default_rng(spec.seed)
    else:
        u_times = np.sort(_sample_arrivals(rng, spec.distribution_u, spec.n_unlearning,
                                           spec.horizon))
        shard_rng = rng
    i_times = np.sort(_sample_arrivals(rng, spec.distribution_i, spec.n_inference, spec.horizon))
    if spec.shard_assignment == SCATTERED_ROUND_ROBIN:
        shards = np.arange(spec.n_unlearning) % num_shards
    else:
        shards = shard_rng.integers(0, num_shards, spec.n_unlearning)
    noise = np.zeros(spec.n_inference, dtype=bool)
    n_noise = round(spec.noise_fraction * spec.n_inference)
    if n_noise:
        noise[rng.choice(spec.n_inference, size=n_noise, replace=False)] = True
    requests = [Request(UNLEARNING, float(t), i, target_shard=int(shards[i]))
                for i, t in enumerate(u_times)]
    requests += [Request(INFERENCE, float(t), i, sample=i, is_noise=bool(noise[i]))
                 for i, t in enumerate(i_times)]
    requests.sort(key=lambda r: (r.arrival, r.kind != UNLEARNING, r.request_id))
    return [Request(r.kind, r.arrival, i, r.sample, r.is_noise, r.target_shard)
            for i, r in enumerate(requests)]


_PROFILES = [UNIFORM, _AT_30, Gaussian(50.0, 20.0), symmetric_multimodal(3, 100.0)]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 30), st.integers(0, 60), st.integers(0, 2**32),
    st.sampled_from([GRID] + _PROFILES), st.sampled_from(_PROFILES),
    st.sampled_from([UNIFORM_RANDOM, SCATTERED_ROUND_ROBIN]),
    st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 9),
)
def test_generate_matches_the_sort_then_rebuild_reference(
    n_u, n_i, seed, dist_u, dist_i, assignment, noise, num_shards
):
    spec = WorkloadSpec(n_u, n_i, 100.0, seed, dist_u, dist_i, assignment, noise)
    assert generate(spec, num_shards) == _sort_then_rebuild(spec, num_shards)


def test_csv_export_writes_header_and_fields(tmp_path, capsys):
    # eraser gen-workload exports the config's workload at its base seed
    spec = WorkloadSpec(20, 30, 50.0, seed=11, noise_fraction=0.1)
    stream = generate(spec, 6)
    cfg, path = tmp_path / "spec.cfg", tmp_path / "workload.csv"
    cfg.write_text("[experiment]\nbase_seed = 11\n[workload]\nn_unlearning = 20\n"
                   "n_inference = 30\nhorizon = 50.0\nnoise_fraction = 0.1\n"
                   "[oracle]\nnum_shards = 6\n")
    assert main(["gen-workload", "--spec", str(cfg), "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote 50 requests to {path}\n"
    header, *rows = path.read_text().splitlines()
    assert header == "request_id,kind,arrival,shard_or_sample,is_noise"
    assert len(rows) == len(stream) and any(r.is_noise for r in stream)
    for row, r in zip(rows, stream):
        rid, kind, arrival, payload, is_noise = row.split(",")
        assert (int(rid), kind, float(arrival)) == (r.request_id, r.kind, r.arrival)
        assert int(payload) == (r.target_shard if r.kind == UNLEARNING else r.sample)
        assert is_noise == str(int(r.is_noise))


def test_request_validation():
    with pytest.raises(ValueError):
        Request("other", 0.0, 0)
    with pytest.raises(ValueError):
        Request(INFERENCE, -1.0, 0, sample=1)
    with pytest.raises(ValueError):
        Request(INFERENCE, 0.0, 0)  # missing sample
    with pytest.raises(ValueError):
        Request(UNLEARNING, 0.0, 0)  # missing shard


@pytest.mark.parametrize("key", ["distribution_u", "distribution_i"])
@pytest.mark.parametrize(
    "dist",
    [
        Gaussian(1e6, 1.0),
        Gaussian(-50.0, 1.0),
        Multimodal((-40.0, 60.0), (2.0, 2.0), (0.5, 0.5)),
        Gaussian(float("nan"), 1.0),
        Gaussian(5.0, float("nan")),
        Multimodal((5.0,), (1.0,), (float("nan"),)),
    ],
)
def test_profile_with_no_mass_inside_the_horizon_is_rejected(key, dist):
    # re-drawing until the arrivals land in [0, 10] would never end; nor
    # would it with a NaN moment or weight, whose mass inside is NaN
    with pytest.raises(ValueError, match=f"^{key} "):
        WorkloadSpec(5, 5, 10.0, seed=1, **{key: dist})


def test_profile_mass_inside_the_horizon_matches_the_normal_cdf():
    for dist, horizon in ((Gaussian(-3.0, 1.0), 10.0), (Gaussian(5.0, 40.0), 10.0),
                          (Multimodal((-2.0, 12.0), (1.0, 3.0), (0.3, 0.7)), 10.0)):
        parts = ([(dist.mu, dist.sigma, 1.0)] if isinstance(dist, Gaussian)
                 else zip(dist.means, dist.sigmas, dist.weights))
        want = sum(w * (stats.norm.cdf(horizon, m, s) - stats.norm.cdf(0.0, m, s))
                   for m, s, w in parts)
        assert _mass_inside(dist, horizon) == pytest.approx(want, rel=1e-9)
    # a thin tail inside the horizon is still accepted and drawn from
    spec = WorkloadSpec(0, 50, 10.0, seed=4, distribution_i=Gaussian(-3.0, 1.0))
    times = arrivals(generate(spec, 2))
    assert len(times) == 50 and all(0.0 <= t <= 10.0 for t in times) and np.mean(times) < 1.0
