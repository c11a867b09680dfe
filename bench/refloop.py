"""The benchmark's reference loop, and the reference start-up built on it.

Imports numpy only, so a fresh interpreter can run it without eraser:

    python3 bench/refloop.py

is the reference start-up that set-up times are normalised against
(``harness.measure_setup``): interpreter start and numpy's import, then
``STARTUP_LOOPS`` runs of the loop.
"""

from __future__ import annotations

import time

import numpy as np

_M64 = (1 << 64) - 1
_LOOP_HASHES = 300
_LOOP_ARRAY_ROUNDS = 15
_LOOP_WIDTH = 64

# About 0.1 s of loop work, of the order of eraser's own import and
# request generation in a set-up process.
STARTUP_LOOPS = 200


def reference_loop() -> int:
    """Fixed work resembling the simulator's two hot paths.

    Pure-Python 64-bit integer hashing, as in the oracle's per-shard path,
    then the same hash over small uint64 arrays followed by a vote count,
    as in its vectorised path and in vote counting. Timing both keeps the
    ratio steady on either path: the machine's fast and slow periods speed
    up pure-Python code more than numpy calls on small arrays.
    """
    h = 0x0123456789ABCDEF
    acc = 0
    for i in range(_LOOP_HASHES):
        h = (h + 0x9E3779B97F4A7C15 + i) & _M64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _M64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _M64
        h ^= h >> 31
        acc ^= h
    arr = np.arange(_LOOP_WIDTH, dtype=np.uint64)
    for i in range(_LOOP_ARRAY_ROUNDS):
        arr = arr + np.uint64(0x9E3779B97F4A7C15) + np.uint64(i)
        arr ^= arr >> np.uint64(30)
        arr *= np.uint64(0xBF58476D1CE4E5B9)
        arr ^= arr >> np.uint64(27)
        arr *= np.uint64(0x94D049BB133111EB)
        arr ^= arr >> np.uint64(31)
        votes = np.bincount((arr % np.uint64(10)).astype(np.int64), minlength=10)
        acc ^= int(votes.argmax())
    return acc


def time_reference_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(STARTUP_LOOPS):
        reference_loop()
