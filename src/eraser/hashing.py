"""Counter-based seeded hashing.

Everything random in the synthetic prediction oracle and the mitigation
detector is a pure function of integer coordinates (seed, sample, shard,
version, ...). A splitmix64-style avalanche chain gives uniform 64-bit
outputs that are reproducible across runs, independent of call order, and
cheap enough for the simulator hot path. Vectorized variants cover
predictions over many shards and samples at once.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INIT = 0x8BADF00DDEADBEEF
# the same constants as numpy scalars, built once
_U_GAMMA, _U_MUL1, _U_MUL2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64_chain(h: int, *parts: int) -> int:
    """Fold further integers into an existing hash chain.

    ``mix64(a, b, c) == mix64_chain(mix64(a, b), c)``, so a shared prefix
    (seed, salt, sample) can be folded once and extended per shard.
    """
    for p in parts:
        h = (h + _GAMMA + (p & _MASK)) & _MASK
        h ^= h >> 30
        h = (h * _MUL1) & _MASK
        h ^= h >> 27
        h = (h * _MUL2) & _MASK
        h ^= h >> 31
    return h


def mix64(*parts: int) -> int:
    """Hash a tuple of non-negative integers to a uniform 64-bit value."""
    return mix64_chain(_INIT, *parts)


def mix64_array_chain(h, *parts) -> np.ndarray:
    """Vectorized :func:`mix64_chain`: fold integer arrays into hash state ``h``.

    ``h`` is an int (a scalar prefix such as ``mix64(seed, salt)``, folded
    once) or a uint64 ndarray; each part is an integer ndarray, and the
    parts broadcast against each other and ``h``, so a part of shape
    ``(B, 1)`` is folded over B elements before a ``(K,)`` part widens the
    state to ``(B, K)``.
    """
    for a in parts:
        h = np.asarray(a, dtype=np.uint64) + h
        h += _U_GAMMA
        h ^= h >> _U30
        h *= _U_MUL1
        h ^= h >> _U27
        h *= _U_MUL2
        h ^= h >> _U31
    return h
