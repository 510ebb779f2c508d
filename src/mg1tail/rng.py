"""Counter-based pseudo-random streams (SplitMix64 finalizer, vectorized).

One substream per replication: replication ``rep`` of a run seeded with
``seed`` has initial state ``mix64(seed + rep*GOLD)`` and its j-th uniform is
``mix64(state0 + (j+1)*GOLD)`` mapped to (0, 1).  Because every draw is a pure
function of (seed, rep, j), batch partitioning never changes any
replication's draws.

The finalizer exists once, in place, so the kernels can run it on reused
buffers.  uint64 wraparound happens on arrays only: numpy scalar arithmetic
warns on overflow.  (u >> 11) < 2**53 goes to float through an int64 view:
exact in either type, and numpy's int64 cast is the faster one.
"""

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
# (u >> 11) has 53 significant bits; +0.5 keeps the result above 0, but the
# top value 2**53 - 1 + 0.5 rounds to 2**53, so it is capped below 1.0
_INV53 = 2.0 ** -53
_TOP = np.nextafter(1.0, 0.0)

GOLD_U64 = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """z <- mix64(z) for a uint64 array z; tmp is uint64 scratch of z's size."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, 31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def uniforms_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The uniforms of the counters z (uint64), written into tmp viewed as
    float64 and returned; z and tmp are both overwritten."""
    mix64_inplace(z, tmp)
    np.right_shift(z, 11, out=z)
    u = tmp.view(np.float64)
    np.add(z.view(np.int64), 0.5, out=u)
    np.multiply(u, _INV53, out=u)
    return np.minimum(u, _TOP, out=u)


def substream_states_np(seed: int, reps: np.ndarray) -> np.ndarray:
    """The initial states of replications reps (uint64 array)."""
    base = np.multiply(reps, GOLD_U64, dtype=np.uint64)
    base += np.uint64(seed & _MASK)
    mix64_inplace(base, np.empty_like(base))
    return base


def uniforms_np(states: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Uniforms for draw indices j (uint64 array) of the given substreams."""
    z = states + (j + np.uint64(1)) * GOLD_U64
    return uniforms_inplace(z, np.empty_like(z))
