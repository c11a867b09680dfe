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

:func:`brute_force_consistent` is the independent ground-truth oracle: it
enumerates every possible post-unlearning label assignment of the
impacted shards and checks the winner directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import aggregate, count_votes


class EnumerationCapError(ValueError):
    """Raised when a brute-force enumeration would exceed the configured cap."""


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

    @property
    def total(self) -> int:
        return self.gamma1 + self.gamma2 + self.gamma3


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


def gamma_counts(preds, impacted, y_a: int, y_b: int) -> GammaCounts:
    """Split the impacted shards by their current vote relative to (y_a, y_b)."""
    if y_a == y_b:
        raise ValueError(f"challenger must differ from winner, both are {y_a}")
    p = np.asarray(preds, dtype=np.int64)
    idx = _normalize_impacted(impacted, p.size)
    if idx.size == 0:
        return GammaCounts(0, 0, 0)
    ip = p[idx]
    g1 = int(np.count_nonzero(ip == y_a))
    g2 = int(np.count_nonzero(ip == y_b))
    return GammaCounts(g1, g2, idx.size - g1 - g2)


def _margins(p: np.ndarray, idx: np.ndarray, num_classes: int):
    """The one place the consistency arithmetic lives.

    Returns ``(winner, imp, lhs, margin)``, arrays indexed by label ``y``:
    ``imp[y]`` impacted shards voting ``y`` (so ``gamma1 = imp[winner]``
    and ``gamma2 = imp[y]``), ``lhs[y] = 2*gamma1 + gamma3`` against ``y``
    and ``margin[y]`` the winner's lead over ``y``, less one where ``y``
    would win a tie (the smaller label does). At the winner's own index
    both read 0, so a test over every label passes there.
    """
    counts = count_votes(p, num_classes)
    winner = int(np.argmax(counts))
    imp = np.bincount(p[idx], minlength=num_classes)
    lhs = (idx.size + int(imp[winner])) - imp
    lhs[winner] = 0
    margin = int(counts[winner]) - counts
    margin[:winner] -= 1
    return winner, imp, lhs, margin


def _verdict(preds, impacted, num_classes, coarse=False, shared_margin=False):
    p = np.asarray(preds, dtype=np.int64)
    idx = _normalize_impacted(impacted, p.size)
    winner, imp, lhs, margin = _margins(p, idx, num_classes)
    imp, lhs, margin = imp.tolist(), lhs.tolist(), margin.tolist()
    g1, m = imp[winner], int(idx.size)
    challengers = [yb for yb in range(num_classes) if yb != winner]
    biggest = max(margin[yb] for yb in challengers)
    checks = []
    for yb in challengers:
        bound = biggest if shared_margin else margin[yb]
        left = 2 * m if coarse else lhs[yb]
        gammas = GammaCounts(g1, imp[yb], m - g1 - imp[yb])
        checks.append(ChallengerCheck(yb, gammas, bound, left <= bound))
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


def fine_certified(preds, impacted, num_classes: int) -> tuple[bool, int]:
    """Fine check for hot loops: (certified, winner), with no verdict built.

    Skips :func:`_normalize_impacted`: callers pass distinct, in-range
    shard ids.
    """
    p = np.asarray(preds, dtype=np.int64)
    idx = np.asarray(impacted, dtype=np.int64)
    if idx.size == 0:
        # nothing can move, and the empty case is the common one
        return True, int(np.argmax(count_votes(p, num_classes)))
    winner, _, lhs, margin = _margins(p, idx, num_classes)
    return not np.count_nonzero(lhs > margin), winner


_ENUM_CHUNK = 1 << 16


def brute_force_consistent(preds, impacted, num_classes: int, cap: int = 12) -> bool:
    """Ground truth: does every relabeling of impacted shards keep the winner?

    Enumerates all ``num_classes ** len(impacted)`` assignments of labels to
    the impacted shards and recomputes the aggregate for each; returns True
    iff the winner never changes. Raises :class:`EnumerationCapError` when
    ``len(impacted) > cap`` (the enumeration grows exponentially).
    """
    p = np.asarray(preds, dtype=np.int64)
    counts = count_votes(p, num_classes)
    winner = aggregate(counts)
    idx = _normalize_impacted(impacted, p.size)
    m = int(idx.size)
    if m == 0:
        return True
    if m > cap:
        raise EnumerationCapError(
            f"{m} impacted shards exceed the enumeration cap of {cap}; "
            f"reduce the instance size or raise the cap"
        )
    base = counts - np.bincount(p[idx], minlength=num_classes)
    total = num_classes**m
    radix = num_classes ** np.arange(m, dtype=np.int64)
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        digits = (codes[:, None] // radix[None, :]) % num_classes
        trial = np.broadcast_to(base, (codes.size, num_classes)).copy()
        rows = np.arange(codes.size)
        for j in range(m):
            trial[rows, digits[:, j]] += 1
        # argmax keeps the smallest label on ties, matching aggregate().
        if not (np.argmax(trial, axis=1) == winner).all():
            return False
    return True
