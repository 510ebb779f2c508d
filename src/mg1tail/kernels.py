"""Hot Monte Carlo kernels, vectorized with numpy over whole batches.

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
"""

import math

import numpy as np

from . import rng
from .distributions import Lattice


def _counts(rho, seed, rep0, nreps, n_offset):
    reps = (np.uint64(rep0) + np.arange(nreps, dtype=np.uint64))
    states = rng.substream_states_np(int(seed), reps)
    u0 = rng.uniforms_np(states, np.zeros(nreps, dtype=np.uint64))
    n = np.floor(np.log(u0) / math.log(rho)).astype(np.int64) + n_offset
    return states, n


def _draws(model, states, counts):
    """All summand draws, flattened, plus the replication index per draw."""
    total = int(counts.sum())
    rep_idx = np.repeat(np.arange(counts.size), counts)
    seg_start = np.cumsum(counts) - counts
    j = np.arange(total, dtype=np.int64) - seg_start[rep_idx] + 1
    us = rng.uniforms_np(states[rep_idx], j.astype(np.uint64))
    return rep_idx, model.quantile(us)


def ak_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    """Sum and sum-of-squares of conditional-estimator contributions for
    replications rep0..rep0+nreps-1.  For a sequence ``x`` the replications
    are drawn once and a list with one (sum, sum-of-squares) per x is
    returned, each bit-identical to the scalar call at that x."""
    states, n = _counts(rho, seed, rep0, nreps, n_offset)
    rep_idx, xs = _draws(model, states, np.maximum(n - 1, 0))
    s = np.bincount(rep_idx, weights=xs, minlength=nreps)
    m = np.zeros(nreps)
    np.maximum.at(m, rep_idx, xs)
    lattice = isinstance(model, Lattice)
    if lattice:
        ties = np.bincount(rep_idx, weights=(xs == m[rep_idx]), minlength=nreps)
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
    rep_idx, xs = _draws(model, states, np.maximum(n, 0))
    w = np.bincount(rep_idx, weights=xs, minlength=nreps)
    hits = float(np.count_nonzero(w > x))
    return hits, hits
