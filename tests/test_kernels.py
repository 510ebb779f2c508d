import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mg1tail import (
    ExponentialIntegrated,
    Lattice,
    ParetoIntegratedTail,
    sample_x,
    tail_prob,
)
from mg1tail import kernels, rng
from reference_kernels import (
    _M1,
    _M2,
    _MASK,
    _ref_ak_batch,
    _ref_counts,
    _ref_crude_batch,
    _ref_mix64,
    _ref_sums,
)

MODELS = [
    ParetoIntegratedTail(alpha=3.5),
    ExponentialIntegrated(rate=1.0),
    Lattice(h=0.5, mass=[0.0, 0.25, 0.5, 0.25]),
]
LATTICE = MODELS[2]

continuous_models = st.one_of(
    st.floats(2.01, 10.0).map(ParetoIntegratedTail),
    st.floats(0.1, 10.0).map(ExponentialIntegrated),
)
unit_floats = st.lists(st.floats(2.0**-53, 1.0 - 2.0**-53), min_size=1, max_size=50)
tail_points = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50)
lattice_points = st.lists(
    st.one_of(st.sampled_from(list(LATTICE.support)), st.floats(-1.0, 3.0)),
    min_size=1, max_size=50,
)


def _masked_pareto_tail(model, t):
    # the Pareto vector tail as it was before the np.maximum form, verbatim
    out = np.ones_like(t)
    big = t >= 1.0
    out[big] = t[big] ** (-(model.alpha - 1.0))
    return out


# The vector methods are numpy's pow/exp/log1p, the scalar functions libm's;
# the two differ by at most 2 ulp on the inputs measured.
@settings(max_examples=50, deadline=None)
@given(model=continuous_models, us=unit_floats, ts=tail_points)
def test_vector_methods_match_scalar_continuous(model, us, ts):
    np.testing.assert_array_max_ulp(
        model.quantile(np.array(us)), np.array([sample_x(model, u) for u in us]),
        maxulp=4)
    np.testing.assert_array_max_ulp(
        model.tail(np.array(ts)), np.array([tail_prob(model, t) for t in ts]),
        maxulp=4)
    if isinstance(model, ParetoIntegratedTail):
        t = np.array(ts + [0.0, 1.0, 0.999999, 1e300, math.inf])
        assert np.array_equal(model.tail(t), _masked_pareto_tail(model, t))


@settings(max_examples=50, deadline=None)
@given(us=unit_floats, ts=lattice_points.map(lambda v: [abs(t) for t in v]),
       vs=lattice_points)
def test_vector_methods_match_scalar_lattice(us, ts, vs):
    assert np.array_equal(LATTICE.quantile(np.array(us)),
                          [sample_x(LATTICE, u) for u in us])
    assert np.array_equal(LATTICE.tail(np.array(ts)),
                          [tail_prob(LATTICE, t) for t in ts])
    assert np.array_equal(LATTICE.atom(np.array(vs)),
                          [LATTICE.atom_prob(v) for v in vs])


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(MODELS), split=st.integers(0, 4_000))
def test_batch_partitioning_is_invisible(model, split):
    whole = kernels.ak_batch(model, 0.8, 5.0, 7, 0, 4_000)
    first = kernels.ak_batch(model, 0.8, 5.0, 7, 0, split)
    second = kernels.ak_batch(model, 0.8, 5.0, 7, split, 4_000 - split)
    assert math.isclose(whole[0], first[0] + second[0], rel_tol=1e-12)
    assert math.isclose(whole[1], first[1] + second[1], rel_tol=1e-12)
    hits = kernels.crude_batch(model, 0.8, 1.0, 7, 0, 4_000)[0]
    assert hits == (kernels.crude_batch(model, 0.8, 1.0, 7, 0, split)[0]
                    + kernels.crude_batch(model, 0.8, 1.0, 7, split, 4_000 - split)[0])


def test_kernels_bit_deterministic():
    model = ExponentialIntegrated(rate=2.0)
    a = kernels.ak_batch(model, 0.6, 1.0, 99, 0, 10_000)
    b = kernels.ak_batch(model, 0.6, 1.0, 99, 0, 10_000)
    assert a == b
    c1 = kernels.crude_batch(model, 0.6, 1.0, 99, 0, 2_000)
    c2 = kernels.crude_batch(model, 0.6, 1.0, 99, 0, 2_000)
    assert c1 == c2


def test_count_offset_shifts_geometric_count():
    # jumps are >= 1 for this model, so with n_offset=1 every replication's
    # sum reaches 1 > x; with n_offset=0 some replications have no jump
    model = ParetoIntegratedTail(alpha=4.0)
    x = 1.0 - 1e-9
    hits0, _ = kernels.crude_batch(model, 0.5, x, 5, 0, 20_000)
    hits1, _ = kernels.crude_batch(model, 0.5, x, 5, 0, 20_000, n_offset=1)
    assert hits0 < 20_000
    assert hits1 == 20_000


@pytest.mark.parametrize("model", MODELS, ids=["pareto", "exp", "lattice"])
def test_replications_with_at_most_one_jump_sum_to_plus_zero(model):
    # every draw-0 uniform is at least 2^-54 > rho, so N = n_offset; the
    # per-x step multiplies N = 0 by the tail unmasked, and at x = 1e300
    # every model's tail is 0
    rho = 2.0**-60
    for n_offset, xs in ((0, [0.0, 3.25, 1e300]), (1, [1e300])):
        assert kernels._counts(rho, 7, 0, 5_000, n_offset)[1].max() <= 1
        sums = kernels.ak_batch(model, rho, xs, 7, 0, 5_000, n_offset)
        assert [(s.hex(), q.hex()) for s, q in sums] == [("0x0.0p+0",) * 2] * len(xs)


# lattices with several points of positive mass, so the maxima tie often
random_lattices = st.builds(
    lambda h, w: Lattice(h=h, mass=np.array(w, dtype=float) / sum(w)),
    st.sampled_from([0.25, 0.5, 1.0, 0.3]),
    st.lists(st.integers(0, 5), min_size=1, max_size=6).map(lambda w: w + [1]),
)
any_model = st.one_of(
    st.floats(2.05, 8.0).map(ParetoIntegratedTail),
    st.floats(0.1, 10.0).map(ExponentialIntegrated),
    random_lattices,
)
x_values = st.one_of(st.floats(0.0, 60.0), st.integers(0, 80).map(lambda k: 0.25 * k))


# With a chunk of a few draws, a batch spans many chunks and most
# replications straddle a chunk edge; ties between a lattice maximum found
# in one chunk and draws in the next are counted across the edge.  The x
# include 2S per replication (then x - S = S is exact, so the tail sees the
# last bit of S) and the crude sums of the first three replications, so a
# sum taken in another order than one pass over its draws shows.
@settings(max_examples=80, deadline=None)
@given(model=any_model,
       rho=st.one_of(st.floats(0.01, 0.999), st.sampled_from([0.9, 0.99, 0.999])),
       seed=st.integers(0, 2**64 - 1), rep0=st.integers(0, 2**40),
       nreps=st.integers(0, 12), n_offset=st.sampled_from([0, 1]),
       chunk=st.integers(1, 24), x=x_values, xs=st.lists(x_values, max_size=5))
def test_chunked_kernels_equal_whole_batch_reference(model, rho, seed, rep0, nreps,
                                                     n_offset, chunk, x, xs):
    args = (model, rho)
    tail = (seed, rep0, nreps, n_offset)
    xs = xs + [2.0 * v for v in _ref_sums(*args, *tail, 1)]
    crude_xs = [x] + list(_ref_sums(*args, *tail, 0)[:3])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_DRAWS", chunk)
        got = (kernels.ak_batch(*args, x, *tail), kernels.ak_batch(*args, xs, *tail),
               [kernels.crude_batch(*args, xi, *tail) for xi in crude_xs])
    assert got == (_ref_ak_batch(*args, x, *tail), _ref_ak_batch(*args, xs, *tail),
                   [_ref_crude_batch(*args, xi, *tail) for xi in crude_xs])


# One call drawing several runs of replications gives each run the bits of a
# separate call on it; the examples are estimator batches of 10^4.
@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), rho=st.sampled_from([0.5, 0.9, 0.99]),
       x=st.one_of(x_values, st.lists(x_values, min_size=1, max_size=4)),
       seed=st.integers(0, 2**64 - 1), rep0=st.integers(0, 2**40),
       nreps=st.integers(0, 130), size=st.integers(1, 40),
       n_offset=st.sampled_from([0, 1]))
@example(MODELS[0], 0.9, [0.0, 5.0], 7, 0, 0, 10_000, 0)
@example(MODELS[1], 0.9, 3.0, 7, 5, 1, 10_000, 0)
@example(MODELS[2], 0.9, [0.5, 3.0, 40.0], 7, 0, 9_999, 10_000, 0)
@example(MODELS[0], 0.9, 5.0, 2**64 - 1, 10_000, 10_000, 10_000, 1)
@example(MODELS[1], 0.9, [0.0, 3.0, 40.0], 11, 0, 30_017, 10_000, 0)
@example(MODELS[2], 0.9, 3.0, 11, 10_000, 30_017, 10_000, 1)
def test_runs_of_one_call_equal_separate_calls(model, rho, x, seed, rep0, nreps, size,
                                               n_offset):
    runs = [(rep0 + lo, min(size, nreps - lo)) for lo in range(0, nreps, size)]
    got = kernels.ak_batch(model, rho, x, seed, rep0, nreps, n_offset, size=size)
    assert got == [kernels.ak_batch(model, rho, x, seed, r, nr, n_offset) for r, nr in runs]
    # the estimators add up crude hits over runs; integer-valued, so exactly
    cx = x if np.ndim(x) == 0 else x[-1]
    hits = kernels.crude_batch(model, rho, cx, seed, rep0, nreps, n_offset)[0]
    assert hits == sum(kernels.crude_batch(model, rho, cx, seed, r, nr, n_offset)[0]
                       for r, nr in runs)


@pytest.mark.parametrize("model", MODELS, ids=["pareto", "exp", "lattice"])
def test_full_chunks_equal_whole_batch_reference(model):
    # about 2.5e5 draws: two full chunks of the default size and a partial one
    for rho, nreps in ((0.999, 250), (0.9, 30_000)):
        for n_offset in (0, 1):
            a = (model, rho, [0.0, 3.0, 40.0], 2**64 - 1, 5, nreps, n_offset)
            assert kernels.ak_batch(*a) == _ref_ak_batch(*a)
            c = (model, rho, 40.0, 11, 5, nreps, n_offset)
            assert kernels.crude_batch(*c) == _ref_crude_batch(*c)


# Column-order edge cases: a lattice with all mass at 0 (every draw ties at a
# maximum of 0; at x = -1 every atom term counts, so the tie counts show), two
# points that tie half the time, and one replication of 3238 draws (seed 11),
# so every column is one draw.
@pytest.mark.parametrize("chunk", [kernels.CHUNK_DRAWS, 1], ids=["default-chunk", "chunk-1"])
@pytest.mark.parametrize("model, rho, seed, nreps", [
    (Lattice(h=1.0, mass=[1.0]), 0.95, 5, 300),
    (Lattice(h=0.5, mass=[0.5, 0.5]), 0.95, 5, 300),
    (MODELS[0], 0.999, 11, 1),
    (MODELS[2], 0.999, 11, 1),
], ids=["lattice-at-0", "two-point", "one-rep-pareto", "one-rep-lattice"])
def test_column_edge_cases_equal_whole_batch_reference(model, rho, seed, nreps, chunk,
                                                       monkeypatch):
    if nreps == 1:
        assert _ref_counts(rho, seed, 0, 1, 0)[1][0] == 3238
    monkeypatch.setattr(kernels, "CHUNK_DRAWS", chunk)
    for n_offset in (0, 1):
        a = (model, rho, [-1.0, 0.0, 0.5, 3.0, 40.0], seed, 0, nreps, n_offset)
        assert kernels.ak_batch(*a) == _ref_ak_batch(*a)
        for x in (-1.0, 0.5, 40.0):
            c = (model, rho, x, seed, 0, nreps, n_offset)
            assert kernels.crude_batch(*c) == _ref_crude_batch(*c)


def test_threads_get_serial_results(monkeypatch):
    # each thread has its own buffers; shared ones would mix the threads' draws
    monkeypatch.setattr(kernels, "CHUNK_DRAWS", 64)
    jobs = [(model, 0.95, [1.0, 10.0], seed, 0, 200)
            for seed in range(4) for model in MODELS]
    serial = [kernels.ak_batch(*job) for job in jobs]
    results = [None] * 4
    errors = []

    def work(k):
        try:
            results[k] = [kernels.ak_batch(*job) for job in jobs]
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert results == [serial] * 4


# about 1e7 Pareto / 1e6 lattice draws, where whole-batch arrays would take
# ~56 bytes per draw; and a call of the estimators' size at point-mc's model
@pytest.mark.parametrize("model, rho, nreps, size, per_rep", [
    (MODELS[0], 0.9999, 1_000, None, 256),
    (MODELS[2], 0.999, 1_000, None, 256),
    (MODELS[1], 0.9, 40_000, 10_000, 64),
], ids=["pareto", "lattice", "exp-call"])
def test_batch_memory_is_bounded_by_the_chunk(model, rho, nreps, size, per_rep,
                                              monkeypatch):
    monkeypatch.setattr(kernels, "_local", threading.local())  # fresh buffers
    tracemalloc.start()
    try:
        kernels.ak_batch(model, rho, [1.0, 10.0], 3, 0, nreps, size=size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * kernels.CHUNK_DRAWS + per_rep * nreps


def test_tail_column_bookkeeping_is_bounded(monkeypatch):
    # one replication of ~32k draws, so every column is one draw: without the
    # cap on pieces per chunk, one chunk would hold ~32k of them
    monkeypatch.setattr(kernels, "_local", threading.local())  # fresh buffers
    tracemalloc.start()
    try:
        kernels.ak_batch(MODELS[0], 0.9999, [1.0, 10.0], 11, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _ref_counts(0.9999, 11, 0, 1, 0)[1][0] > 30_000
    assert peak < 24 * kernels.CHUNK_DRAWS + 150 * kernels.CHUNK_PIECES + 2**16


def test_top_uniform_maps_to_top_lattice_point():
    # cum[-1] is exactly 1.0, so a u < 1 never passes the last point ...
    lat = Lattice(h=0.1, mass=[0.1] * 10)
    assert lat.cum[-1] == 1.0
    assert sample_x(lat, 1.0 - 2.0**-53) == lat.support[-1]
    # ... and the largest kernel uniform, from the counter whose mixed value
    # is all ones (found by undoing the finalizer), is capped below 1.0
    z = _MASK
    for shift, mult in ((31, None), (27, int(_M2)), (30, int(_M1))):
        if mult is not None:
            z = z * pow(mult, -1, 2**64) & _MASK
        y = z
        for _ in range(64 // shift + 1):
            y = z ^ (y >> shift)
        z = y
    assert _ref_mix64(np.array([z], dtype=np.uint64))[0] == _MASK
    z = np.array([z], dtype=np.uint64)
    u = rng.uniforms_inplace(z, np.empty_like(z))
    assert u[0] == 1.0 - 2.0**-53
    assert lat.quantile(u)[0] == lat.support[-1]
    for model in MODELS[:2]:
        assert np.isfinite(model.quantile(u.copy())[0])
