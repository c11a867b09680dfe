#!/usr/bin/env python3
"""Walkthrough of the certified prediction-consistency check.

A 7-shard ensemble serves majority-vote answers while some shards have
unlearning requests pending. The fine-grained check decides from the
serving votes alone whether any retraining outcome could flip the answer,
and the exhaustive oracle confirms it.
"""

import numpy as np

from eraser import brute_force_consistent, certify_coarse, certify_fine

preds = [0, 0, 0, 0, 1, 1, 2]  # current per-shard votes
impacted = {4, 6}              # shards with pending unlearning
C = 3

print("serving votes :", preds)
print("vote counts   :", np.bincount(preds, minlength=C).tolist())
print("impacted      :", sorted(impacted))
print()

# each check splits the impacted shards by their vote: for the winner
# (gamma1), for its challenger (gamma2) or for neither (gamma3)
fine = certify_fine(preds, impacted, C)
for chk in fine.checks:
    g = chk.gammas
    print(f"vs label {chk.challenger}: gamma1={g.gamma1} gamma2={g.gamma2} gamma3={g.gamma3}")

print("\nfine-grained check:")
for chk in fine.checks:
    print(
        f"  challenger {chk.challenger}: 2*{chk.gammas.gamma1} + {chk.gammas.gamma3}"
        f" <= {chk.margin} -> {'ok' if chk.satisfied else 'VIOLATED'}"
    )
print("certified:", fine.certified)
print("exhaustive enumeration agrees:", brute_force_consistent(preds, impacted, C))

print("\nthe coarse check ignores how impacted shards vote, so it gives up earlier:")
preds2 = [0, 0, 0, 1, 1]
impacted2 = {3, 4}  # both already vote for the challenger: they cannot hurt
print("votes", preds2, "impacted", sorted(impacted2))
print("  coarse:", certify_coarse(preds2, impacted2, 2).certified)
print("  fine  :", certify_fine(preds2, impacted2, 2).certified)
print("  truth :", brute_force_consistent(preds2, impacted2, 2))
