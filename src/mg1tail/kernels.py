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
replication order.

Memory: the two buffers take 16 bytes per chunk draw; a lattice model's
``quantile`` adds one 8-byte-per-draw index at a time; a chunk holds at most
``CHUNK_PIECES`` columns (or parts of one), about 150 bytes of bookkeeping
each; the rest is about 50 bytes per replication in the estimators' calls
of up to 4 * 10^4 replications, drawn at once and summed in runs of 10^4
(about 70 in a call of 10^4).  So a call needs at most
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


def keep_heap(nbytes):
    """Keep glibc from handing freed blocks of up to nbytes back to the OS:
    freeing a block it had to mmap raises its mmap threshold (128 KiB at
    first) to the block's size and its heap trim threshold to twice that
    (mallopt(3), M_MMAP_THRESHOLD), so temporaries are not faulted in anew."""
    np.empty(nbytes, dtype=np.uint8)


def _buffers():
    """This thread's counter and draw buffers."""
    bufs = getattr(_local, "bufs", None)
    if bufs is None or bufs[0].size != CHUNK_DRAWS:
        # each batch would otherwise fault its O(nreps) arrays in again
        keep_heap(8 * CHUNK_DRAWS)
        bufs = _local.bufs = (np.empty(CHUNK_DRAWS, dtype=np.uint64),
                              np.empty(CHUNK_DRAWS, dtype=np.uint64))
    return bufs


def _counts(rho, seed, rep0, nreps, n_offset):
    reps = (np.uint64(rep0) + np.arange(nreps, dtype=np.uint64))
    states = rng.substream_states_np(int(seed), reps)
    u0 = rng.uniforms_inplace(states + rng.GOLD_U64, np.empty_like(states))  # draw 0
    n = np.floor(np.log(u0) / math.log(rho)).astype(np.int64) + n_offset
    return states, n


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


def _unsorted(a, order):
    """a, given in the sorted order, back in replication order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def ak_batch(model, rho, x, seed, rep0, nreps, n_offset=0, size=None):
    """Sum and sum-of-squares of conditional-estimator contributions for
    replications rep0..rep0+nreps-1.  For a sequence ``x`` the replications
    are drawn once and a list with one (sum, sum-of-squares) per x is
    returned, each bit-identical to the scalar call at that x.  With
    ``size``, the replications are still drawn once, and a list is returned
    with one such result per run of ``size`` replications (the last may be
    shorter), each bit-identical to a separate call on that run."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    counts = np.maximum(n - 1, 0)
    order = np.argsort(-counts)
    states, counts = states[order], counts[order]
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
    del states, counts  # 16 bytes per replication fewer at the scatter below
    s, m = _unsorted(s, order), _unsorted(m, order)
    if lattice:
        extra = n * model.atom(m) / (_unsorted(ties, order) + 1.0)
    grid = np.ndim(x) > 0
    runs = []
    # each run and x gets its own contiguous 1-d v, reduced by the same 1-d
    # sums as in a scalar call on that run, so its bits are that call's
    for lo in [0] if size is None else range(0, nreps, size):
        r = slice(lo, nreps if size is None else lo + size)
        sr, mr, nr = s[r], m[r], n[r]
        sums = []
        for xi in (x if grid else [x]):
            t = np.maximum(mr, xi - sr)
            v = nr * model.tail(t)
            if lattice:
                v = v + np.where(sr + mr > xi, extra[r], 0.0)
            sums.append((float(v.sum()), float((v * v).sum())))
        runs.append(sums if grid else sums[0])
    return runs[0] if size is None else runs


def crude_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    """Count of compound-geometric samples exceeding x in the batch."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    counts = np.maximum(n, 0)
    order = np.argsort(-counts)
    states, counts = states[order], counts[order]
    del n, order  # 16 bytes per replication fewer during the draws
    w = np.zeros(nreps)  # in sorted order; the count does not see the order
    for a, b, xs in _draws(model, states, counts):
        w[a:b] += xs
    hits = float(np.count_nonzero(w > x))
    return hits, hits
