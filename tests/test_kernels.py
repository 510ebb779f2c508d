import math

import numpy as np
from hypothesis import given, settings, strategies as st

from mg1tail import (
    ExponentialIntegrated,
    Lattice,
    ParetoIntegratedTail,
    sample_x,
    tail_prob,
)
from mg1tail import kernels

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
