"""Counter-based pseudo-random streams (SplitMix64 finalizer, vectorized).

One substream per replication: replication ``rep`` of a run seeded with
``seed`` has initial state ``mix64(seed + rep*GOLD)`` and its j-th uniform is
``mix64(state0 + (j+1)*GOLD)`` mapped to (0, 1).  Because every draw is a pure
function of (seed, rep, j), batch partitioning never changes any
replication's draws.
"""

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
# (u >> 11) has 53 significant bits; +0.5 keeps the result strictly inside (0,1)
_INV53 = 2.0 ** -53

GOLD_U64 = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized finalizer over uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def substream_states_np(seed: int, reps: np.ndarray) -> np.ndarray:
    base = np.uint64(seed & _MASK) + reps.astype(np.uint64) * GOLD_U64
    return mix64_np(base)


def uniforms_np(states: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Uniforms for draw indices j (uint64 array) of the given substreams."""
    z = mix64_np(states + (j + np.uint64(1)) * GOLD_U64)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53
