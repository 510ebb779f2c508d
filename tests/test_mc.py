import argparse
import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mg1tail import (
    ExponentialIntegrated,
    GeomModel,
    Lattice,
    Method,
    ParetoIntegratedTail,
    QueueModel,
    ResourceBudgetError,
    SimulationEstimate,
    ak_estimate,
    ak_estimate_grid,
    approximation_grid,
    approximation_point,
    big_m,
    convolve_tail,
    convolve_tail_grid,
    corrected_heavy_traffic,
    cramer_lundberg_tail,
    crude_mc,
    gamma_factor,
    geom_crude_mc,
    geom_gamma,
    geom_threshold,
    geometric_term,
    heavy_tail,
    heavy_traffic,
    j_approx,
    lattice_brackets,
    pk_truncated,
    regime_classify,
    s_sum,
    subexp_sum_approx,
    t_tail,
    t_tail_grid,
    t_tail_z,
    tail_prob,
    threshold_rho,
    threshold_x,
)
from mg1tail import kernels, mc
from mg1tail.cli import _sweep_grid
from reference_kernels import _ref_ak_batch

TWO_POINT = Lattice(h=1.0, mass=[0.0, 0.5, 0.5])


def test_convolve_tail_hand_values():
    # S_2 over {1,2}: P(S_2 > 2.5) = 1 - P(1,1) = 3/4
    assert convolve_tail(TWO_POINT, 2, 2.5) == 0.75
    # S_3 > 3.5 misses only (1,1,1)
    assert convolve_tail(TWO_POINT, 3, 3.5) == 0.875
    assert convolve_tail(TWO_POINT, 1, 0.5) == 1.0
    assert convolve_tail(TWO_POINT, 2, 4.0) == 0.0
    assert convolve_tail(TWO_POINT, 2, 3.9) == 0.25


def test_convolve_tail_grid_matches_scalar():
    for xs in ([0.0, 1.0, 2.5, 3.0, 5.5, 9.0], []):
        grid = convolve_tail_grid(TWO_POINT, 4, xs)
        assert grid.dtype == np.float64 and grid.shape == (len(xs),)
        for x, v in zip(xs, grid):
            assert v == convolve_tail(TWO_POINT, 4, x)


# --- reference: the per-x cap lookup of convolve_tail_grid, verbatim ------


def _ref_cap_index(x: float, h: float) -> int:
    """Smallest m with m*h > x (float-robust)."""
    m = int(math.floor(x / h)) + 1
    while m > 0 and (m - 1) * h > x:
        m -= 1
    while m * h <= x:
        m += 1
    return m


def _ref_convolve_tail_grid(dist, n, xs):
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    x_max = float(xs.max())
    if x_max < 0:
        return np.ones_like(xs)
    m = _ref_cap_index(x_max, dist.h)
    pmf = mc._capped_pmf(dist.mass, m)
    cur = pmf.copy()
    for _ in range(n - 1):
        cur = np.convolve(cur, pmf)
        if cur.size > m + 1:
            cur[m] += cur[m + 1 :].sum()
            cur = cur[: m + 1]
    suffix = np.concatenate([np.cumsum(cur[::-1])[::-1], [0.0]])
    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        if x < 0:
            out[i] = 1.0
        else:
            k = _ref_cap_index(float(x), dist.h)
            out[i] = suffix[min(k, m)]
    return out


@settings(max_examples=200, deadline=None)
@given(
    h=st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0, 1.1]),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(
        lambda w: sum(w) > 0),
    n=st.integers(1, 5),
    ks=st.lists(st.integers(-3, 45), max_size=5),
    others=st.lists(st.floats(-3.0, 45.0), max_size=5),
)
def test_convolve_tail_grid_equals_per_x_loop(h, weights, n, ks, others):
    dist = Lattice(h=h, mass=np.array(weights) / sum(weights))
    # lattice points k*h, their float neighbours, and arbitrary x
    xs = [k * h for k in ks] + others
    xs += [math.nextafter(k * h, d) for k in ks for d in (-math.inf, math.inf)]
    if not xs:
        xs = [0.0]
    got = convolve_tail_grid(dist, n, xs)
    want = _ref_convolve_tail_grid(dist, n, xs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_convolve_tail_against_binomial():
    # S_n - n over {0,1} jumps is Binomial(n, 1/2)
    from math import comb

    n, x = 8, 12.5
    expect = sum(comb(n, k) for k in range(5, n + 1)) / 2.0 ** n
    assert math.isclose(convolve_tail(TWO_POINT, n, x), expect, rel_tol=1e-13)


def test_convolve_budget_guard():
    lat = Lattice(h=0.01, mass=np.full(1000, 1e-3))
    with pytest.raises(ResourceBudgetError):
        convolve_tail(lat, 300_000, 5.0)


def test_lattice_brackets_sandwich_continuous_tail():
    model = ParetoIntegratedTail(alpha=3.5)
    lo, hi = lattice_brackets(model, 0.25, 30.0)
    assert math.isclose(float(np.sum(lo.mass)), 1.0, rel_tol=1e-12)
    assert math.isclose(float(np.sum(hi.mass)), 1.0, rel_tol=1e-12)
    for x in (0.4, 1.0, 2.3, 7.7, 19.0):
        assert tail_prob(lo, x) <= tail_prob(model, x) + 1e-15
        assert tail_prob(hi, x) >= tail_prob(model, x) - 1e-15


def test_lattice_brackets_sandwich_erlang_tail():
    # independent oracle: S_3 of Exp(1) is Erlang(3)
    model = ExponentialIntegrated(rate=1.0)
    n, x = 3, 5.0
    exact = math.exp(-x) * (1.0 + x + x * x / 2.0)
    lo, hi = lattice_brackets(model, 0.02, 40.0)
    t_lo = convolve_tail(lo, n, x)
    t_hi = convolve_tail(hi, n, x)
    assert t_lo <= exact <= t_hi
    assert t_hi - t_lo < 0.02


def test_pk_brackets_mm1():
    q = QueueModel(model=ExponentialIntegrated(rate=1.0), rho=0.5)
    exact = 0.5 * math.exp(-0.5 * 2.0)
    pk = pk_truncated(q, 2.0, h=0.01)
    assert pk.lower <= exact <= pk.upper
    assert pk.upper - pk.lower < 2e-3
    assert abs(pk.value - exact) < 1e-3
    # no series remainder: tol is validated but changes nothing
    assert pk_truncated(q, 2.0, tol=1e-3, h=0.01) == pk
    assert pk.lattice_spacing == 0.01


def test_pk_value_at_zero_is_rho():
    # X >= 1, so both brackets have f_0 = 0 and Fbar_0 = 1: T_0 = rho exactly
    for rho in (0.3, 0.8, 0.95):
        q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=rho)
        pk = pk_truncated(q, 0.0)
        assert pk.lower == pk.value == pk.upper == rho


def test_pk_narrows_with_spacing():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    w1 = (lambda p: p.upper - p.lower)(pk_truncated(q, 10.0, h=0.1))
    w2 = (lambda p: p.upper - p.lower)(pk_truncated(q, 10.0, h=0.05))
    assert w2 < w1


def test_pk_lattice_model_uses_own_spacing():
    q = QueueModel(model=TWO_POINT, rho=0.5)
    pk = pk_truncated(q, 2.5, h=0.33)
    assert pk.lattice_spacing == 1.0
    assert pk.lower == pk.value == pk.upper
    # direct series: sum (1-rho) rho^n P(S_n > 2.5)
    expect = sum(0.5 ** (n + 1) * convolve_tail(TWO_POINT, n, 2.5) for n in range(1, 40))
    assert math.isclose(pk.value, expect, rel_tol=1e-9)


def test_pk_independent_of_blas_threads():
    # m = 12,001 lattice points: the longest recursion dots pass OpenBLAS's
    # 10**4-element threading cutoff unless they are sliced
    probe = ("import mg1tail as m; "
             "q = m.QueueModel(m.ParetoIntegratedTail(alpha=4.0), rho=0.95); "
             "pk = m.pk_truncated(q, 600.0, h=0.05); "
             "print(pk.lower.hex(), pk.upper.hex())")
    src = str(pathlib.Path(mc.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", probe], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("h", [-0.05, 0.0, math.nan, math.inf])
def test_pk_rejects_bad_spacing(h, time_limit):
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    with time_limit(10), pytest.raises(ValueError, match="spacing must be positive"):
        pk_truncated(q, 1.0, h=h)


def test_pk_budget_guard(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("the budget is checked before the lattice is built")

    monkeypatch.setattr(mc, "lattice_brackets", no_lattice)
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    with pytest.raises(ResourceBudgetError):
        pk_truncated(q, 1e7, h=0.001)


# --- reference: the series evaluation that the renewal recursion replaced,
# verbatim but for the returned pair ----------------------------------------


def _ref_pk_series(pmf, m, rho, n_terms):
    acc = 0.0
    weight = (1.0 - rho) * rho
    cur = pmf.copy()
    for n in range(1, n_terms + 1):
        acc += weight * cur[m]
        weight *= rho
        if n < n_terms:
            cur = np.convolve(cur, pmf)
            cur[m] += cur[m + 1 :].sum()
            cur = cur[: m + 1]
    return acc


def _ref_pk_truncated(q, x, tol=1e-10, h=0.05):
    rho = q.rho
    n_terms = math.ceil(math.log(tol) / math.log(rho))
    bound = rho ** (n_terms + 1)
    lattice = isinstance(q.model, Lattice)  # a lattice is its own bracket
    if lattice:
        h = q.model.h
    m = mc._cap_index(x, h)
    if lattice:
        lo = _ref_pk_series(mc._capped_pmf(q.model.mass, m), m, rho, n_terms)
        up = lo + bound
    else:
        lat_lo, lat_up = lattice_brackets(q.model, h, x)
        lo = _ref_pk_series(lat_lo.mass, m, rho, n_terms)
        up = _ref_pk_series(lat_up.mass, m, rho, n_terms) + bound
    return lo, up


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(st.floats(2.5, 8.0).map(ParetoIntegratedTail),
                    st.floats(0.2, 5.0).map(ExponentialIntegrated)),
    rho=st.floats(0.05, 0.95),
    x=st.floats(0.0, 40.0),
    h=st.sampled_from([0.05, 0.1, 0.25]),
)
def test_pk_recursion_inside_series_bracket(model, rho, x, h):
    q = QueueModel(model=model, rho=rho)
    pk = pk_truncated(q, x, h=h)
    lo, up = _ref_pk_truncated(q, x, h=h)
    assert lo * (1.0 - 1e-12) <= pk.lower <= pk.value <= pk.upper <= up * (1.0 + 1e-12)


def test_ak_estimate_covers_pk():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    pk = pk_truncated(q, 100.0)
    est = ak_estimate(q, 100.0, seed=123)
    assert est.converged
    assert est.method is Method.ASMUSSEN_KROESE
    assert abs(est.estimate - pk.value) <= est.half_width + (pk.upper - pk.lower)


def test_ak_estimate_on_lattice_model_is_unbiased():
    # ties between the running max and fresh jumps need the atom correction;
    # against the exact series the corrected estimator stays centered
    q = QueueModel(model=TWO_POINT, rho=0.7)
    pk = pk_truncated(q, 6.5)
    est = ak_estimate(q, 6.5, target_rel_err=0.02, seed=42)
    assert abs(est.estimate - pk.value) <= est.half_width + (pk.upper - pk.lower)


def test_crude_mc_mm1():
    q = QueueModel(model=ExponentialIntegrated(rate=1.0), rho=0.5)
    exact = 0.5 * math.exp(-0.5 * 2.0)
    est = crude_mc(q, 2.0, 200_000, seed=3)
    assert est.method is Method.CRUDE
    assert est.n_samples == 200_000
    assert abs(est.estimate - exact) <= est.half_width


def test_estimates_are_deterministic():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    assert ak_estimate(q, 25.0, seed=9) == ak_estimate(q, 25.0, seed=9)
    assert crude_mc(q, 5.0, 50_000, seed=9) == crude_mc(q, 5.0, 50_000, seed=9)
    assert ak_estimate(q, 25.0, seed=9) != ak_estimate(q, 25.0, seed=10)


def test_integral_float_sample_counts_are_accepted():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    assert crude_mc(q, 5.0, 1e5, seed=9) == crude_mc(q, 5.0, 100_000, seed=9)
    # 14 batches and a part batch: an unconverted float would reach the kernel
    got = ak_estimate(q, 200.0, target_rel_err=1e-9, seed=9, max_samples=1.45e5)
    assert got == ak_estimate(q, 200.0, target_rel_err=1e-9, seed=9, max_samples=145_000)
    assert got.n_samples == 145_000 and type(got.n_samples) is int
    # an integral float seed is recorded as the int it draws with
    for est in (crude_mc(q, 5.0, 1e5, seed=9.0), ak_estimate(q, 25.0, seed=9.0)):
        assert est.seed == 9 and type(est.seed) is int


def test_ak_stop_rule():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    est = ak_estimate(q, 10.0, target_rel_err=0.05, seed=1)
    assert est.converged
    assert est.n_samples >= 100_000
    assert est.n_samples % 10_000 == 0
    assert est.rel_err <= 0.05
    capped = ak_estimate(q, 10.0, target_rel_err=1e-9, seed=1, max_samples=60_000)
    assert not capped.converged
    assert capped.n_samples == 60_000


def _ak_estimate_per_x(q, x, target_rel_err=0.05, confidence=0.99, seed=0,
                       max_samples=50_000_000):
    """Reference: the single-x estimator loop with its own stopping rule."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if not target_rel_err > 0:
        raise ValueError(f"target_rel_err must be positive, got {target_rel_err}")
    if max_samples < 2:
        raise ValueError(f"max_samples must be at least 2, got {max_samples}")
    z = mc._z_value(confidence)
    s1 = 0.0
    s2 = 0.0
    n = 0
    converged = False
    while n < max_samples:
        nb = min(mc.BATCH_SIZE, max_samples - n)
        b1, b2 = _ref_ak_batch(q.model, q.rho, x, seed, n, nb)
        s1 += b1
        s2 += b2
        n += nb
        if n >= mc.MIN_SAMPLES_BEFORE_CHECK:
            mean = s1 / n
            if mean > 0.0:
                var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
                half = z * math.sqrt(var / n)
                if half <= target_rel_err * mean:
                    converged = True
                    break
    mean = s1 / n
    var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
    half = z * math.sqrt(var / n)
    rel = half / mean if mean > 0 else math.inf
    return SimulationEstimate(
        estimate=mean,
        half_width=half,
        rel_err=rel,
        n_samples=n,
        seed=seed,
        method=Method.ASMUSSEN_KROESE,
        converged=converged,
    )


_lattices = st.builds(
    lambda h, w: Lattice(h=h, mass=np.array(w, dtype=float) / sum(w)),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.lists(st.integers(0, 5), min_size=1, max_size=4).map(lambda w: w + [1]),
)


@settings(max_examples=60, deadline=None)
@given(
    model=st.one_of(st.floats(3.05, 8.0).map(ParetoIntegratedTail),
                    st.floats(0.1, 10.0).map(ExponentialIntegrated),
                    _lattices),
    rho=st.floats(0.05, 0.95),
    xs=st.lists(st.one_of(st.just(0.0),
                          st.integers(0, 40).map(lambda k: 0.25 * k),
                          st.floats(0.0, 20.0)), min_size=1, max_size=6),
    target_rel_err=st.floats(0.005, 0.1),
    seed=st.integers(0, 2**64 - 1),
    # past 10^5 the stopping rule runs, and x drop out at different batches
    max_samples=st.one_of(st.integers(2, 30_000), st.integers(100_000, 250_000)),
)
# x that stop at the first check, inside a window of 4 batches drawn ahead
# (at 3.5e5 and 3.6e5) and at a cap of 41 batches, the last one partial
@example(ParetoIntegratedTail(alpha=7.011834754310252), 0.39, [0.25, 3.25, 16.25],
         0.0201, 105, 401_234)
@example(ExponentialIntegrated(rate=4.132231759454984), 0.34, [1.25, 9.75, 20.0],
         0.0219, 213, 401_234)
def test_ak_estimate_grid_equals_per_x_estimates(model, rho, xs, target_rel_err,
                                                 seed, max_samples):
    q = QueueModel(model=model, rho=rho)
    got = ak_estimate_grid(q, xs, target_rel_err=target_rel_err, seed=seed,
                           max_samples=max_samples)
    assert len(got) == len(xs)
    for x, est in zip(xs, got):
        want = _ak_estimate_per_x(q, x, target_rel_err=target_rel_err,
                                  seed=seed, max_samples=max_samples)
        for f in dataclasses.fields(SimulationEstimate):
            a, b = getattr(est, f.name), getattr(want, f.name)
            assert a == b and type(a) is type(b), (x, f.name, a, b)


# (model, rho, xs, target_rel_err, seed, the estimates' sample counts)
_DRAW_CASES = {
    "all-stop-at-check": (ParetoIntegratedTail(alpha=3.5), 0.5, [1.0, 2.0], 0.5, 1,
                          [100_000, 100_000]),
    "stop-inside-window": (ParetoIntegratedTail(alpha=7.011834754310252), 0.39, [3.25],
                           0.0201, 105, [360_000]),
    "stop-and-cap": (ParetoIntegratedTail(alpha=7.011834754310252), 0.39,
                     [0.25, 3.25, 16.25], 0.0201, 105, [100_000, 360_000, 401_234]),
}


@pytest.mark.parametrize("name", sorted(_DRAW_CASES))
def test_ak_estimate_grid_draws_ahead_at_most_one_batch_in_8(name, monkeypatch):
    model, rho, xs, target_rel_err, seed, n_samples = _DRAW_CASES[name]
    drawn = []
    batch = kernels.ak_batch

    def counting_batch(*args, **kwargs):
        drawn.append(args[5])
        return batch(*args, **kwargs)

    monkeypatch.setattr(kernels, "ak_batch", counting_batch)
    got = ak_estimate_grid(QueueModel(model=model, rho=rho), xs,
                           target_rel_err=target_rel_err, seed=seed, max_samples=401_234)
    assert [est.n_samples for est in got] == n_samples
    most = max(n_samples)
    if most == mc.MIN_SAMPLES_BEFORE_CHECK:
        assert sum(drawn) == most  # nothing past the first check before it runs
    else:
        assert most <= sum(drawn) <= most * 9 / 8


def test_geom_crude_mc_matches_conditioned_queue():
    # the geometric sum with count >= 1 is the queue sum given N >= 1:
    # P(Z > x) = P(W > x) / (1 - p) for x >= 0
    model = ParetoIntegratedTail(alpha=4.0)
    g = GeomModel(y_model=model, p=0.2)
    q = QueueModel(model=model, rho=0.8)
    x = 12.0
    pk = pk_truncated(q, x)
    est = geom_crude_mc(g, x, 400_000, seed=5)
    assert abs(est.estimate - pk.value / 0.8) <= est.half_width + (pk.upper - pk.lower)


def test_input_validation():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    with pytest.raises(ValueError):
        crude_mc(q, 1.0, 50)
    with pytest.raises(ValueError):
        geom_crude_mc(GeomModel(ParetoIntegratedTail(4.0), 0.2), 1.0, 50)
    with pytest.raises(ValueError):
        ak_estimate(q, -1.0)
    # NaN fails every comparison, so it must not slip past `x < 0`
    with pytest.raises(ValueError):
        ak_estimate(q, math.nan)
    with pytest.raises(ValueError):
        ak_estimate_grid(q, [1.0, math.nan])
    with pytest.raises(ValueError):
        crude_mc(q, math.nan, 100)
    with pytest.raises(ValueError):
        geom_crude_mc(GeomModel(ParetoIntegratedTail(4.0), 0.2), math.nan, 100)
    with pytest.raises(ValueError):
        geom_crude_mc(GeomModel(ParetoIntegratedTail(4.0), 0.2), -5.0, 100, seed=1)
    for too_few in (0, 1):
        with pytest.raises(ValueError):
            ak_estimate(q, 1.0, max_samples=too_few)
    with pytest.raises(ValueError):
        pk_truncated(q, -1.0)
    with pytest.raises(ValueError):
        convolve_tail(TWO_POINT, 0, 1.0)


_Q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
_G = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=0.2)
_EXP = ExponentialIntegrated(rate=1.0)
_NEG_X = r"^x must be nonnegative, got -1\.0$"
_INF_X = r"^x must be finite, got inf$"
_FRAC_SEED = r"^seed must be an integer, got 1\.5$"


def _grid_args(x_min=1.0, x_max=10.0):
    return argparse.Namespace(points=3, x_min=x_min, x_max=x_max, log_grid=False)


# the anchored cases pin each argument check's full message, and the "order"
# cases which of two failing checks a function runs first
_ARGUMENT_CHECKS = {
    "threshold_rho-c0": (lambda: threshold_rho(_Q.model, 10.0, c=0.0),
                         r"^c must be positive, got 0\.0$"),
    "threshold_rho-c-neg": (lambda: threshold_rho(_Q.model, 10.0, c=-1.0),
                            r"^c must be positive, got -1\.0$"),
    "threshold_rho-c-nan": (lambda: threshold_rho(_Q.model, 10.0, c=math.nan),
                            r"^c must be positive, got nan$"),
    "threshold_rho-order": (lambda: threshold_rho(_Q.model, 0.5, c=0.0),
                            r"^x must exceed 1, got 0\.5$"),
    "threshold_rho-x-inf": (lambda: threshold_rho(_Q.model, math.inf), _INF_X),
    "threshold_x-c0": (lambda: threshold_x(_Q, c=0.0),
                       r"^c must be positive, got 0\.0$"),
    "geom_threshold-c0": (lambda: geom_threshold(_G, c=0.0),
                          r"^c must be positive, got 0\.0$"),
    "ExponentialIntegrated-rate0": (lambda: ExponentialIntegrated(rate=0.0),
                                    r"^rate must be positive, got 0\.0$"),
    "tail_prob-x-neg": (lambda: tail_prob(_Q.model, -1.0), _NEG_X),
    "heavy_traffic-x-neg": (lambda: heavy_traffic(_Q, -1.0), _NEG_X),
    "heavy_tail-x-neg": (lambda: heavy_tail(_Q, -1.0), _NEG_X),
    "big_m-x-neg": (lambda: big_m(_Q, -1.0), _NEG_X),
    "big_m-x-inf": (lambda: big_m(_Q, math.inf), _INF_X),
    "s_sum-x-inf": (lambda: s_sum(_Q, math.inf), _INF_X),
    "approximation_point-x-inf": (lambda: approximation_point(_Q, math.inf), _INF_X),
    "approximation_grid-x-inf": (lambda: approximation_grid(_Q, [1.0, math.inf]), _INF_X),
    "j_approx-x-inf": (lambda: j_approx(_Q, math.inf), _INF_X),
    "gamma_factor-x-inf": (lambda: gamma_factor(_Q, math.inf), _INF_X),
    "geom_gamma-x-inf": (lambda: geom_gamma(_G, math.inf), _INF_X),
    "sweep-x_max-inf": (lambda: _sweep_grid(_grid_args(x_max=math.inf)),
                        r"^--x-max must be finite, got inf$"),
    "sweep-x_max-nan": (lambda: _sweep_grid(_grid_args(x_max=math.nan)),
                        r"^--x-max must be finite, got nan$"),
    "sweep-x_min-nan": (lambda: _sweep_grid(_grid_args(x_min=math.nan)),
                        r"^--x-min must be finite, got nan$"),
    "s_sum-x-neg": (lambda: s_sum(_Q, -1.0), _NEG_X),
    "geometric_term-x-neg": (lambda: geometric_term(_Q, -1.0), _NEG_X),
    "j_approx-x-neg": (lambda: j_approx(_Q, -1.0), _NEG_X),
    "geom_gamma-x-neg": (lambda: geom_gamma(_G, -1.0), _NEG_X),
    "t_tail-x-neg": (lambda: t_tail(_Q, -1.0), _NEG_X),
    "t_tail_grid-x-neg": (lambda: t_tail_grid(_Q, [1.0, -1.0]), _NEG_X),
    "t_tail_z-x-neg": (lambda: t_tail_z(_Q, -1.0), _NEG_X),
    "subexp_sum_approx-x-neg": (lambda: subexp_sum_approx(_Q.model, 2, -1.0), _NEG_X),
    "subexp_sum_approx-n-nan": (lambda: subexp_sum_approx(_Q.model, math.nan, 5.0),
                                "n must be a positive integer"),
    "subexp_sum_approx-n-frac": (lambda: subexp_sum_approx(_Q.model, 2.5, 5.0),
                                 "n must be a positive integer"),
    "subexp_sum_approx-order": (lambda: subexp_sum_approx(_Q.model, 2.5, -1.0),
                                r"^n must be a positive integer, got 2\.5$"),
    "cramer_lundberg_tail-x-neg": (lambda: cramer_lundberg_tail(_EXP, 0.5, -1.0), _NEG_X),
    "corrected_heavy_traffic-x_scaled-neg": (
        lambda: corrected_heavy_traffic(_EXP, 0.5, -1.0),
        r"^x_scaled must be nonnegative, got -1\.0$"),
    "corrected_heavy_traffic-x_scaled-inf": (
        lambda: corrected_heavy_traffic(_EXP, 0.5, math.inf),
        r"^x_scaled must be finite, got inf$"),
    "corrected_heavy_traffic-order": (
        lambda: corrected_heavy_traffic(_EXP, 1.5, -1.0),
        r"^x_scaled must be nonnegative, got -1\.0$"),
    "convolve_tail_grid-n-frac": (lambda: convolve_tail_grid(TWO_POINT, 2.5, [1.0]),
                                  "n must be a positive integer"),
    "regime_classify-x-neg": (lambda: regime_classify(_Q, -1.0), _NEG_X),
    "regime_classify-delta-neg": (lambda: regime_classify(_Q, 5.0, delta=-5.0),
                                  r"^delta must be nonnegative, got -5\.0$"),
    "regime_classify-order": (lambda: regime_classify(_Q, -1.0, delta=-5.0), _NEG_X),
    "lattice_brackets-cap-neg": (lambda: lattice_brackets(_Q.model, 0.1, -1.0),
                                 r"^cap must be nonnegative, got -1\.0$"),
    "lattice_brackets-cap-nan": (lambda: lattice_brackets(_Q.model, 0.1, math.nan),
                                 r"^cap must be nonnegative, got nan$"),
    "convolve_tail-x-nan": (lambda: convolve_tail(TWO_POINT, 2, math.nan),
                            "x must not be NaN"),
    "convolve_tail-x-inf": (lambda: convolve_tail(TWO_POINT, 2, math.inf),
                            r"x must not be NaN or \+inf"),
    "lattice_brackets-cap-inf": (lambda: lattice_brackets(_Q.model, 0.1, math.inf),
                                 r"^cap must be finite, got inf$"),
    "pk_truncated-x-inf": (lambda: pk_truncated(_Q, math.inf), _INF_X),
    "pk_truncated-x-neg": (lambda: pk_truncated(_Q, -1.0), _NEG_X),
    "pk_truncated-tol0": (lambda: pk_truncated(_Q, 1.0, tol=0.0),
                          r"^tol must be positive, got 0\.0$"),
    "pk_truncated-order": (lambda: pk_truncated(_Q, -1.0, tol=0.0), _NEG_X),
    "ak_estimate-max_samples-nan": (lambda: ak_estimate(_Q, 1.0, max_samples=math.nan),
                                    "max_samples must be at least 2"),
    "ak_estimate-max_samples-frac": (
        lambda: ak_estimate(_Q, 1.0, max_samples=145_000.5),
        r"^max_samples must be an integer, got 145000\.5$"),
    "ak_estimate-max_samples-inf": (lambda: ak_estimate(_Q, 1.0, max_samples=math.inf),
                                    r"^max_samples must be an integer, got inf$"),
    "ak_estimate-x-inf": (lambda: ak_estimate(_Q, math.inf), _INF_X),
    "ak_estimate-target_rel_err0": (lambda: ak_estimate(_Q, 1.0, target_rel_err=0.0),
                                    r"^target_rel_err must be positive, got 0\.0$"),
    "ak_estimate-order": (lambda: ak_estimate(_Q, -1.0, target_rel_err=0.0), _NEG_X),
    "ak_estimate_grid-x-neg": (lambda: ak_estimate_grid(_Q, [1.0, -1.0]), _NEG_X),
    "crude_mc-n_samples-nan": (lambda: crude_mc(_Q, 1.0, n_samples=math.nan),
                               "need at least 100 samples"),
    "crude_mc-x-neg": (lambda: crude_mc(_Q, -1.0, 100), _NEG_X),
    "crude_mc-x-inf": (lambda: crude_mc(_Q, math.inf, 100), _INF_X),
    "crude_mc-n_samples-frac": (lambda: crude_mc(_Q, 1.0, n_samples=100.5),
                                r"^n_samples must be an integer, got 100\.5$"),
    "crude_mc-n_samples-inf": (lambda: crude_mc(_Q, 1.0, n_samples=math.inf),
                               r"^n_samples must be an integer, got inf$"),
    "crude_mc-order": (lambda: crude_mc(_Q, -1.0, 50),
                       r"^need at least 100 samples, got 50$"),
    "geom_crude_mc-x-neg": (lambda: geom_crude_mc(_G, -1.0, 100), _NEG_X),
    "geom_crude_mc-x-inf": (lambda: geom_crude_mc(_G, math.inf, 100), _INF_X),
    "ak_estimate-seed-frac": (lambda: ak_estimate(_Q, 1.0, seed=1.5), _FRAC_SEED),
    "ak_estimate_grid-seed-frac": (lambda: ak_estimate_grid(_Q, [1.0, 2.0], seed=1.5),
                                   _FRAC_SEED),
    "crude_mc-seed-frac": (lambda: crude_mc(_Q, 1.0, 100, seed=1.5), _FRAC_SEED),
    "geom_crude_mc-seed-frac": (lambda: geom_crude_mc(_G, 1.0, 100, seed=1.5), _FRAC_SEED),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_checks(name):
    call, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call()

