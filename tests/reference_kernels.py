"""The whole-batch kernels as they were before the kernels ran in chunks on
reused buffers, verbatim but for the names, with their own SplitMix64
finalizer and quantiles: the reference that the kernel and estimator tests
compare the package with."""

import math

import numpy as np

from mg1tail import ExponentialIntegrated, Lattice, ParetoIntegratedTail

_MASK = 0xFFFFFFFFFFFFFFFF
_INV53 = 2.0 ** -53
GOLD_U64 = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _ref_mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _ref_states(seed, reps):
    return _ref_mix64(np.uint64(seed & _MASK) + reps.astype(np.uint64) * GOLD_U64)


def _ref_uniforms(states, j):
    z = _ref_mix64(states + (j + np.uint64(1)) * GOLD_U64)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53


def _ref_quantile(model, u):
    if isinstance(model, ParetoIntegratedTail):
        return (1.0 - u) ** (-1.0 / (model.alpha - 1.0))
    if isinstance(model, ExponentialIntegrated):
        return -np.log1p(-u) / model.rate
    idx = np.searchsorted(model.cum, u, side="right")
    np.minimum(idx, model.support.size - 1, out=idx)
    return model.support[idx]


def _ref_counts(rho, seed, rep0, nreps, n_offset):
    reps = (np.uint64(rep0) + np.arange(nreps, dtype=np.uint64))
    states = _ref_states(int(seed), reps)
    u0 = _ref_uniforms(states, np.zeros(nreps, dtype=np.uint64))
    n = np.floor(np.log(u0) / math.log(rho)).astype(np.int64) + n_offset
    return states, n


def _ref_draws(model, states, counts):
    total = int(counts.sum())
    rep_idx = np.repeat(np.arange(counts.size), counts)
    seg_start = np.cumsum(counts) - counts
    j = np.arange(total, dtype=np.int64) - seg_start[rep_idx] + 1
    us = _ref_uniforms(states[rep_idx], j.astype(np.uint64))
    return rep_idx, _ref_quantile(model, us)


def _ref_ak_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    states, n = _ref_counts(rho, seed, rep0, nreps, n_offset)
    rep_idx, xs = _ref_draws(model, states, np.maximum(n - 1, 0))
    s = np.bincount(rep_idx, weights=xs, minlength=nreps)
    m = np.zeros(nreps)
    np.maximum.at(m, rep_idx, xs)
    lattice = isinstance(model, Lattice)
    if lattice:
        ties = np.bincount(rep_idx, weights=(xs == m[rep_idx]), minlength=nreps)
        extra = n * model.atom(m) / (ties + 1.0)
    grid = np.ndim(x) > 0
    sums = []
    for xi in (x if grid else [x]):
        t = np.maximum(m, xi - s)
        v = np.where(n >= 1, n * model.tail(t), 0.0)
        if lattice:
            v = v + np.where((n >= 1) & (s + m > xi), extra, 0.0)
        sums.append((float(v.sum()), float((v * v).sum())))
    return sums if grid else sums[0]


def _ref_crude_batch(model, rho, x, seed, rep0, nreps, n_offset=0):
    states, n = _ref_counts(rho, seed, rep0, nreps, n_offset)
    rep_idx, xs = _ref_draws(model, states, np.maximum(n, 0))
    w = np.bincount(rep_idx, weights=xs, minlength=nreps)
    hits = float(np.count_nonzero(w > x))
    return hits, hits


def _ref_sums(model, rho, seed, rep0, nreps, n_offset, drop):
    """Per-replication sums of the reference draws (drop 1: conditional
    estimator, drop 0: crude)."""
    states, n = _ref_counts(rho, seed, rep0, nreps, n_offset)
    rep_idx, xs = _ref_draws(model, states, np.maximum(n - drop, 0))
    return np.bincount(rep_idx, weights=xs, minlength=nreps)
