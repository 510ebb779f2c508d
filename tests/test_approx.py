import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import mg1tail
from mg1tail import (
    ExponentialIntegrated,
    GeomModel,
    Lattice,
    ParetoIntegratedTail,
    QueueModel,
    UnsupportedModelError,
    approximation_grid,
    approximation_point,
    big_m,
    corrected_heavy_traffic,
    cramer_lundberg_tail,
    gamma_factor,
    geom_gamma,
    geom_tail_approx,
    geometric_term,
    h_approx,
    h_clt,
    heavy_tail,
    heavy_traffic,
    j_approx,
    pk_truncated,
    regime_classify,
    s_sum,
    subexp_sum_approx,
    t_tail,
    t_tail_grid,
    t_tail_z,
    tail_prob,
    threshold_x,
)
from mg1tail import approx
from mg1tail.approx import (
    _QUAD_NODES,
    _TERM_FLOOR,
    _Z_ENDS,
    _exact_dot,
    _sigma,
)

Q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)


def test_heavy_traffic_value():
    # exp(-(1-rho) x / mu) with mu = 5/3
    assert math.isclose(heavy_traffic(Q, 10.0), math.exp(-1.2), rel_tol=1e-14)
    assert math.isclose(heavy_traffic(Q, 10.0), 0.3011942, rel_tol=1e-6)
    assert heavy_traffic(Q, 0.0) == 1.0


def test_heavy_tail_value():
    assert math.isclose(heavy_tail(Q, 10.0), 4.0 * 10.0 ** -2.5, rel_tol=1e-14)
    # unclamped below the scale: rho/(1-rho) * 1
    assert math.isclose(heavy_tail(Q, 0.5), 4.0, rel_tol=1e-14)


def test_big_m_examples():
    # floor((x - x^beta)/mu), beta = 1/min(2, alpha-1)
    assert big_m(Q, 100.0) == 54  # beta=1/2: (100-10)/(5/3)
    q25 = QueueModel(model=ParetoIntegratedTail(alpha=2.5), rho=0.8)
    assert big_m(q25, 64.0) == 16  # beta=2/3, mu=3: (64-16)/3
    assert big_m(Q, 0.5) == 0  # clamped at zero


def test_h_decomposition():
    for x in (0.5, 3.0, 17.0, 60.0):
        assert math.isclose(h_approx(Q, x), s_sum(Q, x) + geometric_term(Q, x), rel_tol=1e-14)


def test_geometric_term():
    assert math.isclose(geometric_term(Q, 10.0), 0.8 ** 6.0, rel_tol=1e-14)


def test_gamma_factor_value():
    assert math.isclose(gamma_factor(Q, 10.0), 0.4232832, rel_tol=1e-6)
    assert gamma_factor(Q, 0.0) == 0.0


def test_gamma_factor_range():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        rho = rng.uniform(0.01, 0.99)
        x = rng.uniform(0.0, 500.0)
        q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=rho)
        g = gamma_factor(q, x)
        assert 0.0 <= g < 1.0


def test_j_value():
    assert math.isclose(j_approx(Q, 10.0), 0.2674981, rel_tol=1e-6)


def test_j_structure():
    x = 10.0
    expect = 4.0 * gamma_factor(Q, x) * tail_prob(Q.model, x) + geometric_term(Q, x)
    assert math.isclose(j_approx(Q, x), expect, rel_tol=1e-14)


def test_h_monotone_in_x():
    xs = np.linspace(0.0, 200.0, 400)
    vals = [h_approx(Q, float(x)) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_j_monotone_in_x():
    # near-monotone: a hairline float wiggle of order 1e-8 can appear just
    # below the model scale at high rho, so allow that much
    for rho, alpha in ((0.8, 3.5), (0.99, 3.1)):
        q = QueueModel(model=ParetoIntegratedTail(alpha=alpha), rho=rho)
        xs = np.linspace(0.0, 50.0, 500)
        vals = [j_approx(q, float(x)) for x in xs]
        assert all(a >= b - 1e-7 for a, b in zip(vals, vals[1:]))


def test_values_at_zero():
    # the truncated sum is empty at x=0, leaving just the geometric term
    assert s_sum(Q, 0.0) == 0.0
    assert h_approx(Q, 0.0) == 1.0
    assert j_approx(Q, 0.0) == 1.0


def test_t_tail_truncation_matches_brute_force():
    rho, mu = Q.rho, 5.0 / 3.0
    sigma = math.sqrt(20.0 / 9.0)
    x = 12.0
    brute = 0.0
    for n in range(1, 5000):
        u = (x - n * mu) / (sigma * math.sqrt(n))
        brute += (1 - rho) * rho ** n * 0.5 * math.erfc(u / math.sqrt(2.0))
    assert math.isclose(t_tail(Q, x), brute, rel_tol=1e-10)


def test_t_dual_forms_agree():
    for rho in (0.5, 0.8, 0.95):
        q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=rho)
        for x in (0.7, 5.0, 33.0):
            assert abs(t_tail(q, x) - t_tail_z(q, x)) <= 1e-6


@functools.cache
def _quad_nodes():
    """Every quadrature node z_i = Phi^{-1}((i + 0.5)/K), by scipy."""
    return ndtri((np.arange(_QUAD_NODES) + 0.5) / _QUAD_NODES)


def _t_tail_z_per_node(q, x):
    """Reference: t_tail_z with the exponent of every node, from the nodes
    themselves; the sum over the exponent histogram is exact, rounded once."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    z = _quad_nodes()
    a = sigma / (2.0 * mu)
    t = np.sqrt(x / mu + (a * z) ** 2) - a * z
    expo, counts = np.unique(np.floor(t * t) + 1.0, return_counts=True)
    log_rho = math.log(rho)
    vals = [0.0 if e < -745.0 else math.exp(e) for e in (expo * log_rho).tolist()]
    # exact: every value is a whole multiple of 2^-1074, n/d with d a power of 2
    scaled = 0
    for v, count in zip(vals, counts.tolist()):
        n, d = v.as_integer_ratio()
        scaled += (count * n) << (1075 - d.bit_length())
    return float(Fraction(scaled, 1 << 1074)) / _QUAD_NODES


@settings(max_examples=25, deadline=None)
@given(
    model=st.one_of(st.floats(3.05, 8.0).map(ParetoIntegratedTail),
                    st.floats(0.1, 10.0).map(ExponentialIntegrated)),
    rho=st.floats(0.01, 0.9999),
    x=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
)
# a subnormal result, where a change to the -745 clamp shows in the bits
@example(model=ParetoIntegratedTail(3.5), rho=0.5, x=1960.0)
# x = 0: a computed t dips to -1 ulp, so the lower bound on t^2 must be 0
@example(model=ParetoIntegratedTail(3.125), rho=0.5, x=0.0)
@example(model=ParetoIntegratedTail(3.5), rho=0.5, x=5e-324)
# every block open
@example(model=ParetoIntegratedTail(3.01), rho=0.8, x=1e6)
# every block open and every value live (T is about 1.69e-22)
@example(model=ParetoIntegratedTail(3.01), rho=0.9999, x=1e6)
# x/mu = 3: node K//2 (z = 0) sits on the crossing t^2 = 3
@example(model=ExponentialIntegrated(1.0), rho=0.5, x=3.0)
# a one-point law: sigma = 0, so every node has w = 0 and one exponent
@example(model=Lattice(h=1.0, mass=[0.0, 1.0]), rho=0.5, x=2.0)
# every value underflows, and t is +inf at every node
@example(model=ParetoIntegratedTail(3.5), rho=0.5, x=1e12)
@example(model=ParetoIntegratedTail(3.5), rho=0.5, x=math.inf)
# sigma/mu = 100: 2.0M exponent steps, more than the nodes
@example(model=Lattice(h=1.0, mass=[0.9999] + [0.0] * 9999 + [0.0001]), rho=0.9999,
         x=4e6)
@example(model=ParetoIntegratedTail(3.5), rho=0.8, x=10.0)
@example(model=ParetoIntegratedTail(3.5), rho=0.95, x=75.0)
@example(model=ParetoIntegratedTail(3.01), rho=0.9, x=2000.0)
def test_t_tail_z_bit_identical_to_per_node_form(model, rho, x):
    q = QueueModel(model=model, rho=rho)
    assert t_tail_z(q, x) == _t_tail_z_per_node(q, x)


@settings(max_examples=25, deadline=None)
@given(
    # exact means 1, 2 and 4, so x = (x/mu) mu is exact
    rate=st.sampled_from([1.0, 0.5, 0.25]),
    rho=st.floats(0.01, 0.9999),
    c=st.integers(0, 10_000),
)
# the golden points on the tie: x = 10 and 40 at rate 0.3, x/mu = 3 and 12
@example(rate=0.3, rho=0.3, c=3)
@example(rate=0.3, rho=0.99, c=12)
def test_t_tail_z_tie_at_integral_x_over_mu(rate, rho, c):
    # node K//2 has z = 0 and lies on the crossing t^2 = x/mu: t_tail_z counts
    # it with the exponent its float t = fl(sqrt(x/mu)) gives
    q = QueueModel(model=ExponentialIntegrated(rate), rho=rho)
    x = c / rate
    assert x / q.model.mean() == c
    assert t_tail_z(q, x) == _t_tail_z_per_node(q, x)


def test_end_nodes_have_scipy_bits():
    # t_tail_z takes its end exponents from these two z; a node's z is
    # ndtri((i + 0.5)/K)
    want = ndtri(np.array([0.5, _QUAD_NODES - 0.5]) / _QUAD_NODES).tolist()
    assert [z.hex() for z in _Z_ENDS] == [z.hex() for z in want]


@pytest.mark.parametrize("model, rho, x", [
    (ParetoIntegratedTail(3.5), 0.8, 10.0),
    (ParetoIntegratedTail(3.5), 0.95, 75.0),
    (ExponentialIntegrated(1.0), 0.5, 3.0),
    (ParetoIntegratedTail(3.5), 0.5, 1960.0),
    (ParetoIntegratedTail(3.01), 0.9, 2000.0),
])
@pytest.mark.parametrize("estimate", ["random", "none"])
def test_t_tail_z_exact_whatever_the_crossing_estimates(monkeypatch, model, rho, x, estimate):
    # the end nodes estimate which crossings t^2 = k hold nodes; a wider
    # estimate walks crossings with no node, whose counts must come out zero.
    # "none" walks every crossing from 1 to where rho^k underflows
    rng = np.random.default_rng(5)
    if estimate == "random":
        ends = (_Z_ENDS[0] - rng.uniform(0.0, 10.0), _Z_ENDS[1] + rng.uniform(0.0, 10.0))
    else:
        ends = (-1e6, 1e6)
    monkeypatch.setattr(approx, "_Z_ENDS", ends)
    q = QueueModel(model=model, rho=rho)
    assert t_tail_z(q, x) == _t_tail_z_per_node(q, x)


def _random_runs(n, seed):
    """n whole counts up to the node count, and values down to the subnormals."""
    rng = np.random.default_rng(seed)
    return (rng.integers(1, _QUAD_NODES + 1, n).astype(float).tolist(),
            np.exp(-rng.uniform(0.0, 745.0, n)).tolist())


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(
    st.tuples(st.integers(1, _QUAD_NODES).map(float),
              st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0),
                        st.floats(0.0, 2.0 ** -1022, exclude_max=True))),
    min_size=1, max_size=300).map(lambda r: tuple(map(list, zip(*r)))))
# one run whose exact product lies 2^-53 above a rounding midpoint, so a
# product that is not exact shows in the bits
@example(runs=([float(_QUAD_NODES)], [float.fromhex("0x1.666666665bb81p-1")]))
@example(runs=_random_runs(40_000, seed=0))
def test_exact_dot_rounds_once(runs):
    counts, vals = runs
    want = float(sum(Fraction(c) * Fraction(v) for c, v in zip(counts, vals)))
    # in one pair and in two
    h = len(counts) // 2
    assert _exact_dot([(np.array(counts), np.array(vals))]) == want
    assert _exact_dot([(np.array(counts[:h]), np.array(vals[:h])),
                       (np.array(counts[h:]), np.array(vals[h:]))]) == want


def test_t_tail_step_limit_and_overflow_without_warnings():
    # a one-point law: 1 - Phi((x - n mu)/0) is 0 for n mu < x and 1 for
    # n mu > x, and the term at n mu = x is dropped, as in t_tail_z
    q = QueueModel(model=Lattice(h=1.0, mass=[0.0, 1.0]), rho=0.5)
    big = QueueModel(model=ExponentialIntegrated(10.0), rho=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (2.0, 2.5):
            assert abs(t_tail(q, x) - t_tail_z(q, x)) <= 1e-12
            assert abs(t_tail(q, x) - 0.125) <= 1e-12
        # x / mu overflows to inf
        assert t_tail(big, 1.7e308) == 0.0
        # the same on a grid
        assert t_tail_grid(q, [2.0, 2.5]) == [t_tail(q, 2.0), t_tail(q, 2.5)]
        assert t_tail_grid(big, [1.7e308] * 2) == [0.0] * 2


def test_infinite_x_gives_zero_tail_terms():
    for fn in (heavy_tail, t_tail, t_tail_z):
        assert fn(Q, math.inf) == 0.0


@pytest.mark.parametrize("q, x", [
    *(pytest.param(Q, x, id=str(x)) for x in (0.5, 100.0, 1e4, 1e6)),
    pytest.param(QueueModel(model=ParetoIntegratedTail(3.01), rho=0.8), 1e6,
                 id="every-block-open"),
    pytest.param(QueueModel(ParetoIntegratedTail(3.01), rho=0.9999), 1e6,
                 id="every-block-open-live"),
])
def test_t_tail_z_memory_is_bounded(q, x):
    tracemalloc.start()
    try:
        t_tail_z(q, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no node is built: the nodes are counted a chunk of crossings at a time,
    # and the sum lists the products of one half of one chunk's values at a
    # time, one per exponent
    assert peak <= 5 * 2**20


def _brute_t_tail(q, x):
    """T by math.fsum over every term from n = 1, each weight by pow, until libm's
    erfc is 2, where the rest sum to rho^n, or rho^n underflows; and how many
    terms have z_n < 27, the live terms.  At sigma = 0, z_n is +-inf, and the
    term at n mu = x (NaN) is dropped."""
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    terms, live = [], 1
    for n in itertools.count(1):
        d = x - n * mu
        if sigma:
            z = d / (sigma * math.sqrt(n)) / math.sqrt(2.0)
        else:
            z = math.copysign(math.inf, d) if d else math.nan
        half = 0.0 if math.isnan(z) else 0.5 * math.erfc(z)
        weight = rho ** n
        if half == 1.0 or weight == 0.0:
            return math.fsum([*terms, weight]), live
        terms.append((1.0 - rho) * weight * half)
        live += z < 27.0


def _assert_near_brute(q, x, value):
    want, live = _brute_t_tail(q, x)
    # a few ulp per live term, and the terms before the first z_n <= 27
    # (below 0.5 erfc(27)) and subnormal roundings in absolute terms
    tol = live * (4 * 2**-53 * want + 2**-1074) + 0.5 * math.erfc(27.0)
    assert abs(value - want) <= tol, (x, value, want, live)


@pytest.mark.parametrize("model, rho, x", [
    # most of T at n past log(1e-12)/log(rho), and one row at x = 10
    (ParetoIntegratedTail(8.0), 0.95, 1000.0),
    (ExponentialIntegrated(1.0), 0.95, 1000.0),
    (ParetoIntegratedTail(3.5), 0.8, 300.0),
    (ParetoIntegratedTail(3.5), 0.5, 100.0),
    (ExponentialIntegrated(1.0), 0.5, 100.0),
    (ParetoIntegratedTail(3.5), 0.8, 10.0),
])
def test_t_tail_matches_brute_force_to_1e_14(model, rho, x):
    q = QueueModel(model=model, rho=rho)
    want = _brute_t_tail(q, x)[0]
    assert abs(t_tail(q, x) - want) <= 1e-14 * want


@settings(max_examples=40, deadline=None)
@given(
    model=st.one_of(st.floats(3.05, 8.0).map(ParetoIntegratedTail),
                    st.floats(0.1, 10.0).map(ExponentialIntegrated)),
    rho=st.floats(0.01, 0.9999),
    # unsorted, with repeats and 0
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e4)), min_size=1, max_size=8),
)
# x/mu = 300, past log(1e-12)/log(rho) = 23: T = 2.6e-111
@example(model=ExponentialIntegrated(0.3), rho=0.3, xs=[1000.0])
# T = 2.7e-310, subnormal
@example(model=ParetoIntegratedTail(3.5), rho=0.5, xs=[2100.0])
# one x's window of about 21,000 terms spans two blocks
@example(model=ExponentialIntegrated(1.0), rho=0.9999, xs=[2e5])
# a one-point law (sigma = 0), with x on and off n mu
@example(model=Lattice(h=1.0, mass=[0.0, 1.0]), rho=0.5, xs=[0.0, 2.0, 2.5])
# a 64-point grid where erfc saturates at 2 (z <= -6) and is skipped (z >= 27)
@example(model=ParetoIntegratedTail(3.5), rho=0.99, xs=np.geomspace(1.0, 4600.0, 64).tolist())
@example(model=ParetoIntegratedTail(3.5), rho=0.8, xs=[math.inf, 0.0, 7.5, 7.5, 3.0])
# where T falls past 1e-300: its largest terms have z in (20, 27)
@example(model=ParetoIntegratedTail(3.5), rho=0.5, xs=[402.0, 408.0])
@example(model=ParetoIntegratedTail(3.5), rho=0.5, xs=np.linspace(395.0, 415.0, 41).tolist())
def test_t_tail_grid_matches_brute_force(model, rho, xs):
    q = QueueModel(model=model, rho=rho)
    got = t_tail_grid(q, xs)
    assert t_tail(q, xs[0]) == got[0]
    for x, value in zip(xs, got):
        _assert_near_brute(q, x, value)


def test_t_tail_near_rho_one_is_quick(time_limit):
    # a window of 70 terms at any rho, where rho^n < 1e-12 takes 2.8e7 terms
    q = QueueModel(model=ParetoIntegratedTail(3.5), rho=1.0 - 1e-6)
    with time_limit(0.2):
        value = t_tail(q, 10.0)
    _assert_near_brute(q, 10.0, value)


def test_erfc_saturation_that_t_tail_grid_assumes():
    low = np.concatenate([np.linspace(-60.0, -6.0, 200_001),
                          -np.geomspace(60.0, 1.7e308, 20_001)]).tolist() + [-math.inf]
    bad = [z for z in low if math.erfc(z) != 2.0]
    assert not bad, (f"libm erfc(z) != 2 at z <= -6 (at {bad[:3]}): "
                     "the saturated-erfc shortcut is wrong")
    high = np.concatenate([np.linspace(27.0, 60.0, 200_001),
                           np.geomspace(60.0, 1.7e308, 20_001)]).tolist() + [math.inf]
    bad = [z for z in high if not 0.25 * math.erfc(z) < 1e-300]
    assert not bad, (f"0.25 erfc(z) >= 1e-300 at z >= 27 (at {bad[:3]}): "
                     "the skipped-erfc shortcut is wrong")


@pytest.mark.parametrize("rho", [0.8, 0.99, 0.9999])
def test_t_tail_grid_memory_is_bounded(rho):
    q = QueueModel(model=ParetoIntegratedTail(3.5), rho=rho)
    xs = np.geomspace(0.5, 4600.0, 400).tolist()
    tracemalloc.start()
    try:
        t_tail_grid(q, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, x) block of terms and its temporaries at a time, at any rho
    assert peak <= 2**20


def test_first_t_tail_z_call_is_small_and_scipy_free():
    # no node table: the first call in a fresh process adds little RSS, and
    # neither the package, its CLI nor the call loads scipy
    probe = ("import resource, sys, mg1tail, mg1tail.cli; "
             "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
             "mg1tail.t_tail_z(mg1tail.QueueModel(mg1tail.ParetoIntegratedTail(3.5), 0.8), 5.0); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, "
             "'scipy' in sys.modules)")
    added_kib, scipy_loaded = _fresh_python(probe).split()
    assert int(added_kib) <= 3 * 1024
    assert scipy_loaded == "False"


def _fresh_python(probe):
    """stdout of `python -c probe` in a fresh interpreter that imports this
    mg1tail."""
    src = str(pathlib.Path(mg1tail.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src)).stdout


def test_h_clt_decomposition():
    x = 7.0
    assert math.isclose(h_clt(Q, x), s_sum(Q, x) + t_tail(Q, x), rel_tol=1e-14)


def test_infinite_variance_rejected():
    q = QueueModel(model=ParetoIntegratedTail(alpha=2.5), rho=0.8)
    with pytest.raises(UnsupportedModelError):
        t_tail(q, 5.0)
    with pytest.raises(UnsupportedModelError):
        h_clt(q, 5.0)


def test_subexp_sum_approx():
    d = ParetoIntegratedTail(alpha=3.5)
    mu = 5.0 / 3.0
    assert math.isclose(subexp_sum_approx(d, 4, 100.0), 4.0 * (100.0 - 3 * mu) ** -2.5, rel_tol=1e-14)
    # argument clamps at zero, so small x gives exactly n
    assert subexp_sum_approx(d, 3, 1.0) == 3.0


def test_approximation_point_bundle():
    pt = approximation_point(Q, 10.0)
    assert pt.x == 10.0
    # S(rho, x) is computed once for both columns, with the same bits
    assert pt.h == h_approx(Q, 10.0)
    assert math.isclose(pt.j, j_approx(Q, 10.0), rel_tol=1e-14)
    assert pt.h_clt == h_clt(Q, 10.0)
    q25 = QueueModel(model=ParetoIntegratedTail(alpha=2.5), rho=0.8)
    assert approximation_point(q25, 10.0).h_clt is None
    # a grid gives the points of one-x calls, with and without h_clt
    xs = np.geomspace(0.5, 100.0, 37).tolist()
    for q in (Q, q25):
        assert approximation_grid(q, xs) == [approximation_point(q, x) for x in xs]


def test_h_and_j_converge_to_heavy_tail():
    # far beyond the threshold both merge into the one-jump asymptote
    for q in (Q, QueueModel(model=ParetoIntegratedTail(alpha=3.1), rho=0.95)):
        x = 100.0 * threshold_x(q)
        tl = heavy_tail(q, x)
        assert math.isclose(h_approx(q, x), tl, rel_tol=0.03)
        assert math.isclose(j_approx(q, x), tl, rel_tol=1e-6)


def test_exponential_model_supported():
    q = QueueModel(model=ExponentialIntegrated(rate=1.0), rho=0.5)
    assert 0.0 < h_approx(q, 3.0) < 1.0
    assert 0.0 < j_approx(q, 3.0) < 1.0
    assert h_clt(q, 3.0) > 0.0


def test_negative_x_rejected():
    for fn in (heavy_traffic, heavy_tail, h_approx, j_approx, gamma_factor,
               geometric_term, t_tail, t_tail_z):
        with pytest.raises(ValueError):
            fn(Q, -1.0)


_G = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=0.2)
_EXP = ExponentialIntegrated(rate=1.0)
_NAN_GUARDED = {
    "tail_prob": lambda x: tail_prob(Q.model, x),
    "heavy_traffic": lambda x: heavy_traffic(Q, x),
    "heavy_tail": lambda x: heavy_tail(Q, x),
    "big_m": lambda x: big_m(Q, x),
    "geometric_term": lambda x: geometric_term(Q, x),
    "gamma_factor": lambda x: gamma_factor(Q, x),
    "t_tail": lambda x: t_tail(Q, x),
    "t_tail_grid": lambda x: t_tail_grid(Q, [1.0, x]),
    "t_tail_z": lambda x: t_tail_z(Q, x),
    "subexp_sum_approx": lambda x: subexp_sum_approx(Q.model, 2, x),
    "pk_truncated": lambda x: pk_truncated(Q, x),
    "regime_classify": lambda x: regime_classify(Q, x),
    "geom_gamma": lambda x: geom_gamma(_G, x),
    "geom_tail_approx": lambda x: geom_tail_approx(_G, x),
    "cramer_lundberg_tail": lambda x: cramer_lundberg_tail(_EXP, 0.5, x),
    "corrected_heavy_traffic": lambda x: corrected_heavy_traffic(_EXP, 0.5, x),
}


@pytest.mark.parametrize("name", sorted(_NAN_GUARDED))
def test_nan_x_rejected(name):
    with pytest.raises(ValueError, match="must be nonnegative, got nan"):
        _NAN_GUARDED[name](math.nan)


def _ref_s_sum(q, x):
    """The s_sum loop before its early stop, verbatim."""
    m = big_m(q, x)
    mu = q.model.mean()
    rho = q.rho
    total = 0.0
    comp = 0.0
    weight = (1.0 - rho) * rho  # (1-rho) rho^n at n=1
    for n in range(1, m + 1):
        term = weight * n * tail_prob(q.model, x - (n - 1) * mu)
        weight *= rho
        if term < _TERM_FLOOR:
            continue
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# integer weights keep the mean at 1/6 or more, so M(x) stays small enough
# for the reference loop
_lattices = st.lists(st.integers(1, 5), min_size=2, max_size=8).map(
    lambda w: Lattice(h=1.0, mass=np.array(w) / sum(w)))


@settings(max_examples=300, deadline=None)
@given(
    model=st.one_of(st.floats(2.05, 8.0).map(ParetoIntegratedTail),
                    st.floats(0.2, 5.0).map(ExponentialIntegrated),
                    _lattices),
    rho=st.floats(0.01, 0.999),
    x=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 5000.0)),
)
@example(model=ParetoIntegratedTail(3.5), rho=0.5, x=5000.0)
# the first terms underflow to 0 and later ones count
@example(model=ExponentialIntegrated(1.0), rho=0.9, x=3000.0)
def test_s_sum_equals_full_loop(model, rho, x):
    q = QueueModel(model=model, rho=rho)
    assert s_sum(q, x).hex() == _ref_s_sum(q, x).hex()


def test_s_sum_at_huge_x_returns_quickly(time_limit):
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    with time_limit(10):
        value = h_approx(q, 1e12)
    assert 0.0 < value < 1e-25
