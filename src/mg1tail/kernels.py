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
  compute it.  A replication with N = 0 needs no mask: it has S = M = 0 and
  a finite tail, so both terms are +0.0.

Column order: the replications of a batch are sorted by draw count, largest
first, so column j -- draw j+1 of every replication with more than j draws --
is a prefix of the sorted replications, and its counters are one add to
their initial states.  The draws go through in column order, in chunks of at
most ``CHUNK_DRAWS`` computed in per-thread buffers that are allocated on
first use and then reused (draw-sized temporaries allocated per batch are
handed back to the OS and faulted in again on the next one).  A column
updates its prefix of the per-replication sums, maxima and tie counts with
contiguous adds; the results are scattered back to replication order before
the per-x step.  So every bit is that of one pass over each replication's
draws: a sum is still ((0 + x1) + x2) + ... in draw order, a maximum is
exact, a tie count is an integer, and the sums over replications run in
replication order.  Hence any largest-first order gives the same bits; the
kernels keep ties in replication order, in a contiguous index.  Count arrays
take the narrowest unsigned type that holds the largest count: N * tail and
the atom term see the same whole numbers as in any wider type.

Memory: the two buffers take 16 bytes per chunk draw; a lattice model's
``quantile`` adds one 8-byte-per-draw index at a time; a chunk holds at most
``CHUNK_PIECES`` columns (or parts of one), about 150 bytes of bookkeeping
each; the rest is about 36 to 39 bytes per replication (crude: 26 to 28)
in the estimators' calls of 4 * 10^4 replications, drawn at once and summed
in runs of 10^4 (41 to 46 in a call of 10^4; a lattice's tie counts and
atom terms add about 30; tracemalloc).  So a call needs at most
``24 * CHUNK_DRAWS + 150 * CHUNK_PIECES`` bytes (1.6 MiB) plus O(nreps) at
any rho; arrays over the whole batch would need ~56 bytes per draw (5.6 GB
for 10^4 replications at rho=0.9999).
"""

import math
import threading

import numpy as np

from . import rng
from .distributions import Lattice

CHUNK_DRAWS = 2**16
CHUNK_PIECES = 2**10

_local = threading.local()
_GOLD = int(rng.GOLD_U64)


def _buffers():
    """This thread's counter and draw buffers."""
    bufs = getattr(_local, "bufs", None)
    if bufs is None or bufs[0].size != CHUNK_DRAWS:
        # freeing this block, which glibc has to mmap, raises its mmap
        # threshold (128 KiB at first) to the block's size and its heap trim
        # threshold to twice that (mallopt(3), M_MMAP_THRESHOLD), so each
        # batch's O(nreps) arrays are not handed back and faulted in again
        np.empty(8 * CHUNK_DRAWS, dtype=np.uint8)
        bufs = _local.bufs = (np.empty(CHUNK_DRAWS, dtype=np.uint64),
                              np.empty(CHUNK_DRAWS, dtype=np.uint64))
    return bufs


def _counts(rho, seed, rep0, nreps, n_offset):
    """The substream states and the counts N, the latter in the narrowest
    unsigned type that holds the largest N."""
    reps = np.arange(rep0, rep0 + nreps, dtype=np.uint64)
    states = rng.substream_states_np(int(seed), reps)
    u0 = rng.uniforms_inplace(np.add(states, rng.GOLD_U64), reps)  # draw 0, over reps
    n = np.log(u0, out=u0)
    np.floor(np.divide(n, math.log(rho), out=n), out=n)
    n += n_offset  # whole numbers far below 2^53, so exact
    return states, n.astype(np.min_scalar_type(int(n.max(initial=0))))


def _draws(model, states, counts):
    """The summand draws of replications sorted by count, largest first, in
    column order: yields (a, b, xs) with xs[i] draw j+1 of replication a+i,
    for j = 0, 1, ... and a..b-1 the replications with more than j draws (a
    column, or its part in one chunk).  xs views a reused buffer."""
    if not counts.size:
        return
    z, tmp = _buffers()
    pieces = []
    used = 0
    start = 0
    gold = _GOLD
    # for the k with counts[k-1] > counts[k], columns counts[k]..counts[k-1]-1
    # hold k draws
    ks = np.flatnonzero(counts[:-1] != counts[1:]) + 1
    for k in [counts.size] + ks[::-1].tolist():
        top = int(counts[k - 1])
        for j in range(start, top):
            gold = (gold + _GOLD) & rng._MASK  # (j+2)*GOLD: draw j+1's counter
            a = 0
            while a < k:
                b = min(k, a + CHUNK_DRAWS - used)
                np.add(states[a:b], gold, out=z[used:used + b - a])
                pieces.append((a, b, used))
                used += b - a
                a = b
                if used == CHUNK_DRAWS or len(pieces) == CHUNK_PIECES:
                    yield from _chunk(model, z, tmp, pieces, used)
                    used = 0
        start = top
    yield from _chunk(model, z, tmp, pieces, used)


def _chunk(model, z, tmp, pieces, used):
    """The draws of the pieces (a, b, offset) packed in z[:used], one
    piece at a time; empties pieces."""
    u = rng.uniforms_inplace(z[:used], tmp[:used])
    xs = model.quantile(u, out=u)
    for a, b, o in pieces:
        yield a, b, xs[o:o + b - a]
    pieces.clear()


def _largest_first(n):
    """The replications by count N, largest first, ties in replication order:
    a stable sort of ~N (numpy's O(n) radix sort for keys of up to 16 bits)."""
    return np.argsort(~n, kind="stable")


def _unsorted(a, order):
    """a, given in the sorted order, back in replication order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def ak_batch(model, rho, x, seed, rep0, nreps, n_offset=0, size=None):
    """Sum and sum-of-squares of conditional-estimator contributions for
    replications rep0..rep0+nreps-1, drawn once: a list with one entry per run
    of ``size`` replications (the last may be shorter; one run of all nreps
    without ``size``), each a list of (sum, sum-of-squares), one per x of
    ``x`` (a scalar is a grid of one).  Each pair has the bits of a call on
    that run alone at that x alone."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    order = _largest_first(n)
    states, counts = states[order], n[order]
    np.maximum(counts, 1, out=counts)
    counts -= 1  # draws 1..N-1
    s = np.zeros(nreps)
    m = np.zeros(nreps)
    lattice = isinstance(model, Lattice)
    if lattice:
        ties = np.zeros(nreps)
    for a, b, xs in _draws(model, states, counts):
        s[a:b] += xs
        mc = m[a:b]
        if lattice:
            tc = ties[a:b]
            tc *= xs <= mc  # a new maximum voids the ties counted so far
            tc += xs >= mc
        np.maximum(mc, xs, out=mc)
    del states, counts  # 8 bytes per replication and the counts fewer below
    s = _unsorted(s, order)
    m = _unsorted(m, order)
    if lattice:
        extra = n * model.atom(m) / (_unsorted(ties, order) + 1.0)
        del ties
    del order  # 8 bytes per replication fewer in the per-x step
    runs = []
    # each run and x gets its own contiguous 1-d v, reduced by the same 1-d
    # sums as in a scalar call on that run, so its bits are that call's
    for lo in [0] if size is None else range(0, nreps, size):
        r = slice(lo, nreps if size is None else lo + size)
        sr, mr, nr = s[r], m[r], n[r]
        t = np.empty_like(sr)
        runs.append([])
        for xi in np.atleast_1d(x):
            np.maximum(mr, np.subtract(xi, sr, out=t), out=t)
            v = np.multiply(nr, model.tail(t, out=t), out=t)
            if lattice:
                v += np.where(sr + mr > xi, extra[r], 0.0)
            s1 = float(v.sum())
            runs[-1].append((s1, float(np.multiply(v, v, out=v).sum())))
    return runs


def crude_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    """Count of compound-geometric samples exceeding x in the batch."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    order = _largest_first(n)
    states, counts = states[order], n[order]
    del n, order  # 8 bytes per replication and the counts fewer during the draws
    w = np.zeros(nreps)  # in sorted order; the count does not see the order
    for a, b, xs in _draws(model, states, counts):
        w[a:b] += xs
    hits = float(np.count_nonzero(w > x))
    return hits, hits
