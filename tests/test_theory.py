import pytest

from eraser.oracle import OracleConfig
from eraser.scheduler import VariantConfig
from eraser.simulator import SimParams, run
from eraser.theory import (
    TheoryParams,
    dimp_upper_bound,
    expected_wait_dimp_series,
    expected_wait_sisa,
    k_r,
    t_d,
)
from eraser.workload import GRID, WorkloadSpec, generate


def test_expected_wait_sisa_both_branches():
    assert expected_wait_sisa(TheoryParams(10, 100.0, 5.0)) == pytest.approx(1.25)
    assert expected_wait_sisa(TheoryParams(10, 100.0, 20.0)) == pytest.approx(15.0)
    assert expected_wait_sisa(TheoryParams(10, 100.0, 1e-9)) == pytest.approx(0.0)


def test_expected_wait_sisa_continuous_at_branch_point():
    r = 100.0 / 10
    lo = TheoryParams(10, 100.0, r)
    # both closed forms evaluate to r/2 at r == T/n_u
    assert 10 * r * r / (2 * 100.0) == pytest.approx(r - 100.0 / (2 * 10))
    assert expected_wait_sisa(lo) == pytest.approx(r / 2)


def test_dimp_upper_bound_examples():
    assert dimp_upper_bound(TheoryParams(10, 100.0, 5.0, 0.01)) == pytest.approx(0.0125)
    assert dimp_upper_bound(TheoryParams(10, 100.0, 5.0, 0.0)) == 0.0
    p = TheoryParams(10, 100.0, 5.0, 1.0)
    assert dimp_upper_bound(p) == pytest.approx(expected_wait_sisa(p))


def test_dimp_upper_bound_monotone_in_p_uc_and_r():
    vals = [dimp_upper_bound(TheoryParams(10, 100.0, 5.0, p)) for p in (0.0, 0.1, 0.5, 1.0)]
    assert vals == sorted(vals)
    vals = [dimp_upper_bound(TheoryParams(10, 100.0, r, 0.1)) for r in (1.0, 5.0, 9.0, 15.0, 30.0)]
    assert vals == sorted(vals)


def test_retraining_overlap_count_and_gap_branches():
    p = TheoryParams(10, 100.0, 25.0)
    assert k_r(47.0, p) == 2 and t_d(47.0, p) == pytest.approx(8.0)
    assert k_r(43.0, p) == 3 and t_d(43.0, p) == pytest.approx(2.0)


def test_exact_multiple_retrain_time_uses_first_branch():
    p = TheoryParams(10, 100.0, 30.0)  # r an exact multiple of T/n_u
    assert k_r(47.0, p) == 3
    assert t_d(47.0, p) == pytest.approx(10.0 - 7.0)


def _count_active_windows(t, n_u, horizon, r):
    period = horizon / n_u
    return sum(1 for j in range(n_u) if j * period <= t < j * period + r)


def _next_completion_gap(t, n_u, horizon, r):
    period = horizon / n_u
    gaps = [j * period + r - t for j in range(n_u) if j * period + r > t]
    return min(gaps)


@pytest.mark.parametrize("r", [25.0, 30.0, 7.5, 12.0])
def test_k_r_and_t_d_match_direct_window_counting(r):
    p = TheoryParams(10, 100.0, r)
    # steady-state instants away from run edges and branch boundaries
    for t in (41.3, 47.0, 43.0, 52.9, 66.01, 71.99):
        assert k_r(t, p) == _count_active_windows(t, 10, 100.0, r)
        assert t_d(t, p) == pytest.approx(_next_completion_gap(t, 10, 100.0, r))


def _collapsed_series(p, points=10_000):
    """Reference: the series with its zero first summand dropped.

    p_uc * t_d + sum_{i=2}^{k-1} (1-p) p^i (i-1) T/n_u + p^k (k-1) T/n_u,
    averaged over one period on the same cells as the full form.
    """
    period = p.period
    rem = p.retrain_duration % period
    segments = [(0.0, rem), (rem, period)] if 0.0 < rem < period else [(0.0, period)]
    total = 0.0
    for lo, hi in segments:
        cells = max(1, round(points * (hi - lo) / period))
        step = (hi - lo) / cells
        for j in range(cells):
            phase = lo + (j + 0.5) * step
            k = k_r(phase, p)
            if k == 0:
                continue
            puc = p.p_uc
            wait = puc * t_d(phase, p)
            for i in range(2, k):
                wait += (1 - puc) * puc**i * (i - 1) * period
            wait += puc**k * (k - 1) * period
            total += wait * step
    return total / period


def test_series_forms_are_identical():
    for r in (2.5, 5.0, 10.0, 25.0, 60.0):
        for p_uc in (0.0, 0.01, 0.3, 1.0):
            tp = TheoryParams(10, 100.0, r, p_uc)
            full = expected_wait_dimp_series(tp)
            assert full == pytest.approx(_collapsed_series(tp), rel=1e-12, abs=1e-15)


def test_series_zero_when_never_uncertified():
    for r in (2.5, 25.0):
        assert expected_wait_dimp_series(TheoryParams(10, 100.0, r, 0.0)) == 0.0


def test_series_never_exceeds_the_upper_bound():
    for r in (2.5, 5.0, 9.99, 10.0, 14.0, 25.0, 60.0):
        for p_uc in (0.001, 0.01, 0.05, 0.2, 0.7, 1.0):
            tp = TheoryParams(10, 100.0, r, p_uc)
            series = expected_wait_dimp_series(tp)
            assert series <= dimp_upper_bound(tp) * (1 + 1e-9) + 1e-15


def test_series_collapses_to_exact_value_for_single_overlap():
    # with r <= T/n_u at most one retraining runs at a time and the series
    # integral has the closed form p_uc * n_u * r^2 / (2 T)
    tp = TheoryParams(10, 100.0, 6.0, 0.2)
    expect = 0.2 * 10 * 36.0 / 200.0
    assert expected_wait_dimp_series(tp) == pytest.approx(expect, rel=1e-9)


def test_series_is_integrated_exactly():
    # r = T/n_u: one piece, where the series is p_uc * t_d, averaging p_uc * r / 2
    assert expected_wait_dimp_series(TheoryParams(10, 100.0, 10.0, 0.2)) == 1.0


def test_series_tracks_a_dimp_simulation():
    # measured p_uc feeds the series; the simulator is the authority here.
    # Consecutive judgements of one request are correlated (a hard sample
    # stays hard), which the independence assumption ignores, so simulated
    # waits run ~1.3-1.5x above the series in the overlapping-retrain
    # regime. The bound still holds; the series pins the magnitude.
    n_u, horizon, r = 10, 100.0, 25.0
    cfg = OracleConfig(10, 20, 0.7, seed=29)
    wl = generate(WorkloadSpec(n_u, 100_000, horizon, seed=29, distribution_u=GRID), 20)
    m = run(wl, VariantConfig("DIMP", parallel_capacity=20), cfg,
            SimParams(r, horizon), collect_log=False)
    p_uc = m.p_uc
    assert p_uc > 0.001
    series = expected_wait_dimp_series(TheoryParams(n_u, horizon, r, p_uc))
    assert m.awt <= dimp_upper_bound(TheoryParams(n_u, horizon, r, p_uc)) * 1.05
    assert 0.8 * series <= m.awt <= 1.8 * series


def test_param_validation():
    with pytest.raises(ValueError):
        TheoryParams(0, 100.0, 5.0)
    with pytest.raises(ValueError):
        TheoryParams(10, 100.0, -1.0)
    with pytest.raises(ValueError):
        TheoryParams(10, 100.0, 5.0, 1.5)


@pytest.mark.parametrize("horizon, r", [
    (float("nan"), 5.0), (float("inf"), 5.0), (100.0, float("nan")), (100.0, float("inf")),
])
def test_non_finite_horizon_or_retrain_duration_is_refused(horizon, r):
    with pytest.raises(ValueError, match="positive and finite"):
        TheoryParams(10, horizon, r)
