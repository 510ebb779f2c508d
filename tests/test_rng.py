import numpy as np

from mg1tail.rng import mix64_inplace, substream_states_np, uniforms_inplace, uniforms_np

# (seed, rep, j, j-th uniform of replication rep) from a scalar SplitMix64
# reference implementation of the same stream layout
KNOWN = [
    (2024, 3, 0, "0x1.c9fa2d9c12e6ap-1"),
    (2024, 3, 1, "0x1.ead11414cd76ep-1"),
    (2024, 3, 2, "0x1.214abf5a0c532p-3"),
    (2024, 3, 3, "0x1.52e4ae92f4f40p-1"),
    (0, 0, 0, "0x1.c4415072f63bap-1"),
    (0, 0, 1, "0x1.b9e279aa86e59p-2"),
    (2**63 + 12345, 0, 0, "0x1.64f2625b95468p-1"),
    (2**63 + 12345, 0, 1, "0x1.a0ac26b7c7a04p-1"),
    (2**63 + 12345, 7, 5, "0x1.6705cd06f96b7p-2"),
    (2**64 - 1, 2**40, 0, "0x1.52f0551ced158p-1"),
]


def uniform(seed, rep, j):
    state = substream_states_np(seed, np.array([rep], dtype=np.uint64))
    return float(uniforms_np(state, np.array([j], dtype=np.uint64))[0])


def test_uniforms_are_deterministic():
    a = uniform(12345, 7, 3)
    assert a == uniform(12345, 7, 3)
    assert uniform(12345, 7, 4) != a
    assert uniform(12345, 8, 3) != a
    assert uniform(12346, 7, 3) != a


def test_numpy_twin_matches_scalar():
    assert int(substream_states_np(2024, np.array([3], dtype=np.uint64))[0]) == 0x4C6F7CBF58DBA57F
    for seed, rep, j, u in KNOWN:
        assert uniform(seed, rep, j) == float.fromhex(u)
    # one substream, many draw indices at once
    states = substream_states_np(2024, np.full(4, 3, dtype=np.uint64))
    got = uniforms_np(states, np.arange(4, dtype=np.uint64))
    assert [v.hex() for v in got] == [u for s, r, j, u in KNOWN[:4]]


def test_uniforms_strictly_inside_unit_interval():
    states = substream_states_np(7, np.arange(1000, dtype=np.uint64))
    u = uniforms_np(states, np.zeros(1000, dtype=np.uint64))
    assert u.min() > 0.0
    assert u.max() < 1.0
    # the extreme counters: mixed value all zeros and all ones (the latter
    # found by undoing the finalizer, as in
    # test_kernels::test_top_uniform_maps_to_top_lattice_point)
    z = np.array([0, 0xCF9A04AFFA6BADC0], dtype=np.uint64)
    mixed = z.copy()
    mix64_inplace(mixed, np.empty_like(mixed))
    assert mixed.tolist() == [0, 2**64 - 1]
    u = uniforms_inplace(z, np.empty_like(z))
    assert u.tolist() == [2.0**-54, 1.0 - 2.0**-53]


def test_uniform_moments():
    n = 100_000
    states = substream_states_np(31337, np.zeros(n, dtype=np.uint64))
    u = uniforms_np(states, np.arange(n, dtype=np.uint64))
    # mean 1/2 with sd 1/sqrt(12 n); 5 sigma band
    assert abs(u.mean() - 0.5) < 5 * (1.0 / 12.0) ** 0.5 / 316.2
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_large_seed_accepted():
    big = 2**63 + 12345
    a = uniform(big, 0, 0)
    assert 0.0 < a < 1.0
    assert a == uniform(big, 0, 0)
