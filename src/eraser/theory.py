"""Closed-form waiting-time results for the grid-arrival unlearning model.

All formulas assume unlearning requests arrive at exact fixed intervals
T/n_u starting at t=0, each triggering a retraining of duration r, with
inference arrivals uniform on [0, T] and negligible inference service
time (a :class:`eraser.workload.WorkloadSpec` with ``distribution_u``
on the ``GRID``). They are meant to be validated against the simulator,
not trusted blindly: :func:`expected_wait_dimp_series` in particular leans
on a judgement-independence assumption the simulator does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TheoryParams:
    n_u: int
    horizon: float
    retrain_duration: float
    p_uc: float = 0.0

    def __post_init__(self):
        if self.n_u < 1:
            raise ValueError("n_u must be a positive integer")
        if not all(math.isfinite(x) and x > 0 for x in (self.horizon, self.retrain_duration)):
            raise ValueError("horizon and retrain_duration must be positive and finite")
        if not 0.0 <= self.p_uc <= 1.0:
            raise ValueError(f"p_uc must be in [0, 1], got {self.p_uc}")

    @property
    def period(self) -> float:
        return self.horizon / self.n_u


def expected_wait_sisa(p: TheoryParams) -> float:
    """Mean inference wait when every unlearning halts serving for r.

    n_u * r^2 / (2T) while retraining fits between arrivals (r <= T/n_u),
    r - T/(2 n_u) once retraining windows cover the whole timeline.
    """
    r, t, n = p.retrain_duration, p.horizon, p.n_u
    if r <= t / n:
        return n * r * r / (2.0 * t)
    return r - t / (2.0 * n)


def dimp_upper_bound(p: TheoryParams) -> float:
    """Upper bound on the immediate-unlearning double-context wait.

    An uncertified arrival can always fall back to waiting out every
    running retraining, i.e. the halt-and-wait cost; certified arrivals
    wait nothing. Hence the bound p_uc * expected_wait_sisa.
    """
    return p.p_uc * expected_wait_sisa(p)


def k_r(t_i: float, p: TheoryParams) -> int:
    """Constituent models retraining at the instant an inference arrives.

    Valid in steady state (r <= t_i and t_i below the last grid arrival).
    """
    period = p.period
    phase = t_i % period
    base = math.floor(p.retrain_duration * p.n_u / p.horizon)
    if phase > p.retrain_duration % period:
        return base
    return base + 1


def t_d(t_i: float, p: TheoryParams) -> float:
    """Time from an arrival at t_i to the nearest retraining completion."""
    period = p.period
    phase = t_i % period
    rem = p.retrain_duration % period
    if phase > rem:
        return period + rem - phase
    return rem - phase


def _wait_at(phase: float, p: TheoryParams) -> float:
    """Expected wait of an arrival at the given phase within a period."""
    k = k_r(phase, p)
    if k == 0:
        return 0.0
    td = t_d(phase, p)
    period = p.period
    puc = p.p_uc
    # sum_{i=1}^{k-1} (1-p) p^i (t_d + (i-1) T/n_u)  +  p^k (t_d + (k-1) T/n_u)
    total = 0.0
    for i in range(1, k):
        total += (1 - puc) * puc**i * (td + (i - 1) * period)
    total += puc**k * (td + (k - 1) * period)
    return total


def expected_wait_dimp_series(p: TheoryParams) -> float:
    """Expected immediate-unlearning wait from the per-phase judgement series.

    Averages the per-arrival series over one inter-arrival period. The
    r-mod-period breakpoint, where the number of in-flight retrainings
    changes, splits the phase axis into at most two pieces; on each the
    series is linear in the phase, so its integral is the piece's width
    times its value at the midpoint.
    """
    period = p.period
    rem = p.retrain_duration % period
    cuts = [0.0, rem, period] if 0.0 < rem < period else [0.0, period]
    total = sum((hi - lo) * _wait_at((lo + hi) / 2, p) for lo, hi in zip(cuts, cuts[1:]))
    return total / period
