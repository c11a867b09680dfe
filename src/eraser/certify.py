"""Certified prediction-consistency checks for sharded ensembles.

A shard is *impacted* while it has pending (unexecuted) unlearning
requests: its serving model may differ from the model it would become
after the unlearning runs. The checks below decide, from the serving
predictions and the impacted-shard set alone, whether the ensemble's
final label is guaranteed to survive any retraining of the impacted
shards.

Three checks are provided:

* :func:`certify_fine` —  the per-challenger margin test. For the winner
  ``y_a`` and each challenger ``y_b`` it compares ``2*gamma1 + gamma3``
  against that challenger's own vote margin. This is exactly the
  worst-case flip condition, so it certifies iff no reassignment of the
  impacted shards' labels can change the winner.
* :func:`certify_coarse` — the blunter test ``2*|impacted| <= margin``
  adapted from certified-robustness-style counting. Sound but strictly
  weaker: whenever it certifies, the fine test certifies too.
* :func:`certify_fine_shared_margin` — the fine counts compared against a
  single margin shared by all challengers (the *largest* one). This
  variant is UNSOUND and exists only so the fuzz suite can demonstrate
  why the margin must be per-challenger; never use it for serving.

:func:`judge` runs the fine or the coarse test on many samples at once,
each under its row of a boolean impacted mask, and returns arrays in place
of verdicts; :func:`certify_rows` returns all three tests' outcomes alike.

:func:`brute_force_consistent` is the independent ground-truth oracle: a
one-row call of the row-wise enumerator :func:`consistent_rows`. The
winner depends only on how many impacted shards take each label, so the
enumerator walks every tally of the impacted shards' post-unlearning
labels (a multiset of ``m`` labels over ``C`` classes: ``C(m + C - 1, m)``
of them, against ``C**m`` assignments) and checks the winner directly.
It refuses more than ``_MAX_TALLIES`` tallies before it walks any, draws
them lazily and bounds each step's table of rows x tallies x classes by
a fixed element budget, so a wide label space costs time but not memory.
The enumerator keeps its own vote tally and argmax, sharing no code with
the margin core.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class EnumerationCapError(ValueError):
    """Raised when a brute-force enumeration would walk over ``_MAX_TALLIES`` tallies."""


@dataclass(frozen=True)
class GammaCounts:
    """Impacted-shard vote split with respect to a (winner, challenger) pair.

    gamma1: impacted shards currently voting for the winner. Independent of
        the challenger.
    gamma2: impacted shards currently voting for the challenger.
    gamma3: impacted shards voting for neither.
    """

    gamma1: int
    gamma2: int
    gamma3: int


@dataclass(frozen=True)
class ChallengerCheck:
    """Outcome of the consistency condition against one challenger label."""

    challenger: int
    gammas: GammaCounts
    margin: int
    satisfied: bool


@dataclass(frozen=True)
class CertificationVerdict:
    certified: bool
    winner: int
    checks: tuple[ChallengerCheck, ...]


def _normalize_impacted(impacted, num_shards: int) -> np.ndarray:
    idx = np.asarray(sorted(impacted), dtype=np.int64)
    if idx.size:
        if idx[0] < 0 or idx[-1] >= num_shards:
            raise ValueError(
                f"impacted shard ids must lie in [0, {num_shards}), got {impacted}"
            )
        if np.unique(idx).size != idx.size:
            raise ValueError("impacted set contains duplicate shard ids")
    return idx


def _margins(p: np.ndarray, mask: np.ndarray, num_classes: int, coarse: bool = False):
    """The vote split and margins every consistency test reads, for B rows.

    Not every bound is derived here: :func:`certify_rows` derives the coarse
    and shared-margin ones from ``imp`` and ``margin`` itself, and
    :func:`_verdict` the shared one. ``p`` holds B rows of K predicted
    labels and the boolean ``mask``, one ``(K,)`` row or ``(B, K)``, marks
    the impacted shards. Returns ``(winner, top, imp, lhs, margin)``:
    ``winner[b]`` the row's plurality label (ties to the smaller label)
    with ``top[b]`` votes, and ``(B, C)`` arrays
    indexed by label ``y``: ``imp[b, y]`` impacted shards voting ``y`` (so
    ``gamma1 = imp[b, winner]``, ``gamma2 = imp[b, y]``; a row sums to its
    ``|impacted|``), ``lhs[b, y] = 2*gamma1 + gamma3`` against ``y``
    (``2*|impacted|`` with ``coarse``) and ``margin[b, y]`` the winner's lead
    over ``y``, less one where ``y`` would win a tie (the smaller label
    does). At the winner's own index both read 0, so every label passes there.
    """
    p, counts = _votes(p, num_classes)
    if mask.ndim == 2:  # one impacted set per row
        marked, size = p[mask], mask.sum(axis=1)[:, None]
    else:
        marked, size = p[:, mask], np.count_nonzero(mask)
    imp = np.bincount(marked.ravel(), minlength=counts.size).reshape(counts.shape)
    winner = counts.argmax(axis=1)
    labels = np.arange(num_classes)
    w = winner[:, None]
    is_winner = labels == w
    top = counts[is_winner]
    if coarse:
        lhs = np.where(is_winner, 0, 2 * size)
    else:
        lhs = size + imp[is_winner][:, None] - imp
        lhs[is_winner] = 0
    margin = top[:, None] - counts
    margin -= labels < w
    return winner, top, imp, lhs, margin


def _votes(p: np.ndarray, num_classes: int):
    """``(p + row*C, counts)`` of B rows of labels, tallied by ``bincount``."""
    b, k = p.shape
    c = num_classes
    # a negative label wraps to a huge unsigned one, so one bound covers both
    if p.view(np.uint64).max() >= c:
        bad = int(np.flatnonzero((p < 0) | (p >= c))[0])
        raise ValueError(
            f"shard {bad % k} predicts label {int(p.flat[bad])}, outside [0, {c})"
        )
    if b > 1:
        p = p + np.arange(0, b * c, c)[:, None]
    return p, np.bincount(p.ravel(), minlength=b * c).reshape(b, c)


def _verdict(preds, impacted, num_classes, coarse=False, shared_margin=False):
    p = np.asarray(preds, dtype=np.int64)
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if p.ndim != 1 or p.size == 0:
        raise ValueError("preds must be a non-empty 1-d sequence of labels")
    idx = _normalize_impacted(impacted, p.size)
    mask = np.isin(np.arange(p.size), idx)
    winner, _, imp, lhs, margin = _margins(p[None, :], mask, num_classes, coarse)
    winner = int(winner[0])
    imp, lhs, margin = imp[0].tolist(), lhs[0].tolist(), margin[0].tolist()
    g1, m = imp[winner], int(idx.size)
    challengers = [yb for yb in range(num_classes) if yb != winner]
    biggest = max(margin[yb] for yb in challengers)
    checks = []
    for yb in challengers:
        bound = biggest if shared_margin else margin[yb]
        gammas = GammaCounts(g1, imp[yb], m - g1 - imp[yb])
        checks.append(ChallengerCheck(yb, gammas, bound, lhs[yb] <= bound))
    return CertificationVerdict(all(c.satisfied for c in checks), winner, tuple(checks))


def certify_fine(preds, impacted, num_classes: int) -> CertificationVerdict:
    """Per-challenger consistency test: 2*gamma1 + gamma3 <= margin(y_b).

    Certifies exactly when no possible relabeling of the impacted shards
    can change the aggregated winner (see :func:`brute_force_consistent`).
    """
    return _verdict(preds, impacted, num_classes)


def certify_coarse(preds, impacted, num_classes: int) -> CertificationVerdict:
    """Coarse consistency test: 2*|impacted| <= margin(y_b) for every y_b.

    Ignores how the impacted shards currently vote, so it rejects some
    instances the fine test certifies; it never certifies an instance the
    fine test rejects.
    """
    return _verdict(preds, impacted, num_classes, coarse=True)


def certify_fine_shared_margin(preds, impacted, num_classes: int) -> CertificationVerdict:
    """Fine counts checked against one shared margin: max over challengers.

    UNSOUND: the shared margin is the *weakest* challenger's, so a strong
    challenger with a small margin can slip through. Kept so the
    validation suite can exhibit concrete counterexamples; do not serve
    with this.
    """
    return _verdict(preds, impacted, num_classes, shared_margin=True)


def _mask(impacted) -> np.ndarray:
    mask = np.asarray(impacted)  # shard ids would read as a mask of the wrong shards
    if mask.dtype != bool or mask.ndim not in (1, 2):
        raise ValueError(f"impacted must be a 1-d or 2-d bool mask, not {mask.dtype} {mask.shape}")
    return mask


def judge(preds, impacted, num_classes: int, coarse: bool = False):
    """Row-wise check for hot loops, with no verdict built.

    ``preds`` holds B rows of K predicted labels and ``impacted`` is a
    boolean mask of the impacted shards: ``(K,)`` when every row shares
    one impacted set, ``(B, K)`` with one per row. Returns
    ``(certified, winner, top)``, arrays of length B: the fine test's
    outcome (the coarse test's with ``coarse``), the plurality label and
    its vote count. A row with no impacted shard certifies.
    """
    p = np.asarray(preds, dtype=np.int64)
    mask = _mask(impacted)
    if not mask.any():
        # nothing can move, and the empty case is the common one
        counts = _votes(p, num_classes)[1]
        return np.ones(p.shape[0], dtype=bool), counts.argmax(axis=1), counts.max(axis=1)
    winner, top, _, lhs, margin = _margins(p, mask, num_classes, coarse)
    return ~(lhs > margin).any(axis=1), winner, top


def certify_rows(preds, impacted, num_classes: int):
    """``(fine, coarse, shared)`` of B rows against the impacted mask.

    The outcomes of :func:`certify_fine`, :func:`certify_coarse` and
    :func:`certify_fine_shared_margin` from one :func:`_margins` pass; the
    row's largest margin is a challenger's, as the winner's reads 0. The
    mask takes either form :func:`judge` takes.
    """
    p = np.asarray(preds, dtype=np.int64)
    winner, _, imp, lhs, margin = _margins(p, _mask(impacted), num_classes)
    is_winner = np.arange(num_classes) == winner[:, None]
    return (
        (lhs <= margin).all(axis=1),
        ((2 * imp.sum(axis=1, keepdims=True) <= margin) | is_winner).all(axis=1),
        (lhs <= margin.max(axis=1, keepdims=True)).all(axis=1),
    )


_ENUM_BUDGET = 1 << 18
_MAX_TALLIES = 1 << 20  # tallies one walk may take; its time grows with their count


def consistent_rows(preds, impacted, num_classes: int) -> np.ndarray:
    """Ground truth for B rows against one impacted set, as a boolean array.

    The plurality depends only on how many impacted shards take each label,
    so this walks every tally of ``m = len(impacted)`` labels over C classes
    (``C(m + C - 1, m)`` multisets from
    :func:`itertools.combinations_with_replacement`, not the ``C**m``
    assignments), adds each to every live row's votes of the untouched
    shards, and keeps a row only while its argmax (ties to the smaller
    label) never moves. The tallies are drawn lazily, a slice a step, and a
    step's ``(rows, tallies, C)`` table holds at most ``_ENUM_BUDGET``
    elements whenever the live rows alone fit, so a wide label space costs
    time, not memory. The tally is its own, not the margin core's. Raises
    ``ValueError`` on an impacted id outside ``[0, K)`` or a duplicate, and
    :class:`EnumerationCapError` on more than ``_MAX_TALLIES`` tallies,
    before walking any: their count grows combinatorially in ``m`` and C.
    """
    p = np.asarray(preds, dtype=np.int64)
    (b, k), c = p.shape, num_classes
    if c < 2 or k == 0 or p.min(initial=0) < 0 or p.max(initial=0) >= c:
        raise ValueError(f"need num_classes >= 2, K >= 1 and labels in [0, {c})")
    idx = _normalize_impacted(impacted, k)
    m = int(idx.size)
    offsets = np.arange(0, b * c, c)[:, None]
    counts = np.bincount((p + offsets).ravel(), minlength=b * c).reshape(b, c)
    winner = counts.argmax(axis=1)
    ok = np.ones(b, dtype=bool)
    if m == 0:
        return ok
    if (count := math.comb(m + c - 1, m)) > _MAX_TALLIES:
        raise EnumerationCapError(
            f"{m} impacted shards over {c} classes make {count} tallies, "
            f"more than the enumeration bound of {_MAX_TALLIES}"
        )
    base = counts - np.bincount((p[:, idx] + offsets).ravel(), minlength=b * c).reshape(b, c)
    tallies = itertools.combinations_with_replacement(range(c), m)
    # steps grow eightfold from a small one, so a flip in an early tally ends early
    step = 1 << 11
    while ok.any():
        live = np.flatnonzero(ok)
        n = max(1, step // (live.size * c))
        step = min(8 * step, _ENUM_BUDGET)
        labels = np.fromiter(itertools.chain.from_iterable(itertools.islice(tallies, n)), np.int64)
        if labels.size == 0:
            break
        n = labels.size // m
        labels = labels.reshape(n, m) + np.arange(0, n * c, c)[:, None]
        added = np.bincount(labels.ravel(), minlength=n * c).reshape(n, c)
        trial = base[live, None, :] + added
        ok[live] = (trial.argmax(axis=2) == winner[live, None]).all(axis=1)
    return ok


def brute_force_consistent(preds, impacted, num_classes: int) -> bool:
    """Ground truth: does every relabeling of impacted shards keep the winner?

    A one-row call of :func:`consistent_rows`: True iff no tally of labels
    over the impacted shards, and so no assignment, changes the plurality
    winner. Raises :class:`EnumerationCapError` when the impacted count
    ``m`` and ``C`` make more than ``_MAX_TALLIES`` tallies, ``C(m + C - 1, m)``.
    """
    p = np.asarray(preds, dtype=np.int64)
    return bool(consistent_rows(p[None, :], impacted, num_classes)[0])
