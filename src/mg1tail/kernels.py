"""Hot Monte Carlo kernels, vectorized with numpy over batches of replications.

The kernels consume the counter-based substreams from :mod:`.rng` and the
model's vector methods (``quantile``, ``tail``, ``atom``), so every batch is
bit-exactly reproducible for a fixed seed.

Kernel contract per replication ``rep``:

* draw 0 gives the geometric count N = floor(log u / log rho) + n_offset;
* draws 1..N-1 (conditional estimator) or 1..N (plain sampling) are the
  summand variates via inverse CDF;
* the conditional estimator contributes
  N * [ P(X > max(M, x-S)) + 1{S+M > x} * P(X = M)/(T+1) ]
  with M, S, T the max, sum, and max-multiplicity of the first N-1 draws;
  the atom term is exactly zero for atomless models, so only lattice models
  compute it.

The summand draws of a batch (about nreps * rho/(1-rho)) go through in
chunks of at most ``CHUNK_DRAWS``, computed in per-thread buffers that are
allocated on first use and then reused: draw-sized temporaries allocated
per batch are handed back to the OS and faulted in again on the next one
(~880 minor page faults per 10^4-replication batch at rho=0.9).  Sums and
maxima are accumulated with ``np.add.at``/``np.maximum.at``, which apply
their updates in index order, so a replication that straddles a chunk edge
gets the bits of one pass over its draws.

Memory: the buffers take 32 bytes per chunk draw; a lattice model's
``quantile`` and tie count add one 8-byte-per-draw temporary at a time; the
rest is about 100 bytes per replication.  So a batch needs at most
``40 * CHUNK_DRAWS`` bytes (5 MiB) plus O(nreps) at any rho; arrays over
the whole batch would need ~56 bytes per draw (5.6 GB for 10^4 replications
at rho=0.9999).
"""

import math
import threading

import numpy as np

from . import rng
from .distributions import Lattice

CHUNK_DRAWS = 2**17

_local = threading.local()


def _buffers():
    """This thread's replication-index, counter and draw buffers, and the
    table of t*GOLD for t < CHUNK_DRAWS."""
    bufs = getattr(_local, "bufs", None)
    if bufs is None or bufs[0].size != CHUNK_DRAWS:
        bufs = _local.bufs = (
            np.empty(CHUNK_DRAWS, dtype=np.int64),
            np.empty(CHUNK_DRAWS, dtype=np.uint64),
            np.empty(CHUNK_DRAWS, dtype=np.uint64),
            np.arange(CHUNK_DRAWS, dtype=np.uint64) * rng.GOLD_U64,
        )
    return bufs


def _counts(rho, seed, rep0, nreps, n_offset):
    reps = (np.uint64(rep0) + np.arange(nreps, dtype=np.uint64))
    states = rng.substream_states_np(int(seed), reps)
    u0 = rng.uniforms_np(states, np.zeros(nreps, dtype=np.uint64))
    n = np.floor(np.log(u0) / math.log(rho)).astype(np.int64) + n_offset
    return states, n


def _draws(model, states, counts):
    """The summand draws of each replication, flattened, one chunk at a time:
    yields (lo, hi, r, xs), where xs[i] belongs to replication lo + r[i] and
    the chunk holds replications lo..hi-1.  r and xs are reused buffers."""
    idx, z, tmp, tgold = _buffers()
    ends = np.cumsum(counts)
    # draw t of the batch is draw j = t - start + 1 of its replication, with
    # counter state + (j+1)*GOLD = base[rep] + t*GOLD
    base = states + (np.uint64(2) - (ends - counts).astype(np.uint64)) * rng.GOLD_U64
    total = int(ends[-1]) if ends.size else 0
    for t0 in range(0, total, CHUNK_DRAWS):
        n = min(CHUNK_DRAWS, total - t0)
        lo = int(np.searchsorted(ends, t0, side="right"))
        hi = int(np.searchsorted(ends, t0 + n - 1, side="right")) + 1
        r = idx[:n]
        r.fill(0)
        np.add.at(r, ends[lo:hi - 1] - t0, 1)
        np.cumsum(r, out=r)
        zc = z[:n]
        offset = base[lo:hi] + np.uint64(t0 * int(rng.GOLD_U64) & rng._MASK)
        np.take(offset, r, out=zc, mode="clip")
        np.add(zc, tgold[:n], out=zc)
        u = rng.uniforms_inplace(zc, tmp[:n])
        yield lo, hi, r, model.quantile(u, out=u)


def ak_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    """Sum and sum-of-squares of conditional-estimator contributions for
    replications rep0..rep0+nreps-1.  For a sequence ``x`` the replications
    are drawn once and a list with one (sum, sum-of-squares) per x is
    returned, each bit-identical to the scalar call at that x."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    s = np.zeros(nreps)
    m = np.zeros(nreps)
    lattice = isinstance(model, Lattice)
    ties = np.zeros(nreps)
    for lo, hi, r, xs in _draws(model, states, np.maximum(n - 1, 0)):
        np.add.at(s[lo:hi], r, xs)
        top = m[lo]
        np.maximum.at(m[lo:hi], r, xs)
        if lattice:
            # replication lo may go on from the previous chunk; a new max
            # there voids the ties counted so far
            if m[lo] > top:
                ties[lo] = 0.0
            eq = np.take(m[lo:hi], r, mode="clip")
            np.add.at(ties[lo:hi], r, np.equal(xs, eq, out=eq))
            del eq  # not alive with the next chunk's draws
    if lattice:
        extra = n * model.atom(m) / (ties + 1.0)
    grid = np.ndim(x) > 0
    sums = []
    # each x gets its own contiguous 1-d v, reduced by the same 1-d sums as
    # in a scalar call, so its bits are those of the scalar call
    for xi in (x if grid else [x]):
        t = np.maximum(m, xi - s)
        v = np.where(n >= 1, n * model.tail(t), 0.0)
        if lattice:
            v = v + np.where((n >= 1) & (s + m > xi), extra, 0.0)
        sums.append((float(v.sum()), float((v * v).sum())))
    return sums if grid else sums[0]


def crude_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    """Count of compound-geometric samples exceeding x in the batch."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    w = np.zeros(nreps)
    for lo, hi, r, xs in _draws(model, states, np.maximum(n, 0)):
        np.add.at(w[lo:hi], r, xs)
    hits = float(np.count_nonzero(w > x))
    return hits, hits
