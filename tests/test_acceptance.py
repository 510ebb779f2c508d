"""Acceptance suite.

Each test checks one numbered acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line for it (run with ``pytest -s`` to see all lines).
Criteria 3 and 7 compare finite-x approximations against Monte Carlo at
points where the asymptotics have not set in yet; their per-point
diagnostics are printed alongside the verdict.
"""

import math

import numpy as np
import pytest

from mg1tail import (
    ExponentialIntegrated,
    GeomModel,
    ParetoIntegratedTail,
    QueueModel,
    ak_estimate,
    ak_estimate_grid,
    convolve_tail_grid,
    cramer_lundberg_tail,
    crude_mc,
    gamma_factor,
    geom_crude_mc,
    geom_tail_approx,
    geom_threshold,
    h_approx,
    heavy_tail,
    heavy_traffic,
    j_approx,
    lattice_brackets,
    pk_truncated,
    subexp_sum_approx,
    t_tail,
    t_tail_z,
    threshold_x,
)
from mg1tail.cli import main as cli_main


def _verdict(ok: bool, num: int, summary: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {summary}")


def test_criterion_1_positive_wait_probability():
    # P(W > 0) = rho: exact brackets within 1e-9, both estimators within CI
    model = ParetoIntegratedTail(alpha=3.5)
    worst_pk = 0.0
    ok = True
    notes = []
    for rho in (0.3, 0.8, 0.95):
        q = QueueModel(model=model, rho=rho)
        pk = pk_truncated(q, 0.0, tol=1e-12)
        worst_pk = max(worst_pk, abs(pk.value - rho))
        if abs(pk.value - rho) > 1e-9:
            ok = False
            notes.append(f"pk off at rho={rho}: {pk.value!r}")
        cr = crude_mc(q, 0.0, 200_000, seed=11)
        if abs(cr.estimate - rho) > cr.half_width:
            ok = False
            notes.append(f"crude CI misses rho={rho}")
        ak = ak_estimate(q, 0.0, target_rel_err=0.01, seed=11)
        if abs(ak.estimate - rho) > ak.half_width:
            ok = False
            notes.append(f"ak CI misses rho={rho}")
    _verdict(ok, 1, f"P(W>0)=rho; max pk deviation {worst_pk:.2e}; "
                    f"crude and ak CIs cover at rho in {{0.3, 0.8, 0.95}}")
    assert ok, notes


@pytest.mark.slow
def test_criterion_2_mm1_exactness():
    # exp service: exact tail rho*exp(-(1-rho)x); CI coverage in >= 18/20 runs
    model = ExponentialIntegrated(rate=1.0)
    ok = True
    notes = []
    worst_cover = 20
    quantiles = (1e-1, 1e-2, 1e-3, 1e-4)
    for rho in (0.5, 0.9):
        q = QueueModel(model=model, rho=rho)
        xs = [math.log(rho / quantile) / (1.0 - rho) for quantile in quantiles]
        covered = [0] * len(xs)
        # the quantiles share each seed, and a grid call gives every x the
        # estimate of its own ak_estimate call, field for field
        for k in range(20):
            ests = ak_estimate_grid(q, xs, target_rel_err=0.05, confidence=0.99,
                                    seed=1000 + k)
            for i, (x, est) in enumerate(zip(xs, ests)):
                exact = rho * math.exp(-(1.0 - rho) * x)
                if abs(est.estimate - exact) <= est.half_width:
                    covered[i] += 1
        for quantile, cov in zip(quantiles, covered):
            worst_cover = min(worst_cover, cov)
            if cov < 18:
                ok = False
                notes.append(f"coverage {cov}/20 at rho={rho}, q={quantile}")
        for x in (0.5, 2.0, 10.0):
            exact = rho * math.exp(-(1.0 - rho) * x)
            ratio = exact / cramer_lundberg_tail(model, rho, x)
            if not math.isclose(ratio, rho, rel_tol=1e-10):
                ok = False
                notes.append(f"CL ratio {ratio!r} != rho at rho={rho}, x={x}")
    _verdict(ok, 2, f"M/M/1 CI coverage worst case {worst_cover}/20; "
                    f"exact/CL ratio equals rho to 1e-10")
    assert ok, notes


def test_criterion_3_regime_profiles_vs_mc():
    # 40-point log grid to 4*threshold: |H/MC-1|<=0.15 everywhere,
    # |HT/MC-1|<=0.15 below 0.5*threshold, |HTail/MC-1|<=0.15 above 2*threshold
    failures = []
    checked = 0
    for alpha, rho in ((3.1, 0.95), (3.5, 0.8)):
        q = QueueModel(model=ParetoIntegratedTail(alpha=alpha), rho=rho)
        xhat = threshold_x(q)
        xs = np.geomspace(1.0, 4.0 * xhat, 40)
        mcs = ak_estimate_grid(q, [float(x) for x in xs], target_rel_err=0.05,
                               seed=20240814)
        for x, mc in zip(xs, mcs):
            if not mc.converged:
                continue
            clauses = [("H", h_approx(q, float(x)), True)]
            clauses.append(("HT", heavy_traffic(q, float(x)), x <= 0.5 * xhat))
            clauses.append(("HTail", heavy_tail(q, float(x)), x >= 2.0 * xhat))
            for name, value, active in clauses:
                if not active:
                    continue
                checked += 1
                dev = abs(value / mc.estimate - 1.0)
                if dev > 0.15:
                    failures.append((alpha, rho, float(x), name, dev))
    for alpha, rho, x, name, dev in failures:
        print(f"  - alpha={alpha} rho={rho} x={x:.4g}: "
              f"|{name}/MC - 1| = {dev:.3f} > 0.15")
    _verdict(not failures, 3,
             f"{checked - len(failures)}/{checked} clause evaluations within "
             f"15% of Monte Carlo on both (alpha, rho) profiles")
    assert not failures, f"{len(failures)} grid clauses exceed 15%"


@pytest.mark.slow
def test_criterion_4_deviation_shrinks_toward_saturation():
    # worst |approx/MC - 1| over its regime's grid is nonincreasing in rho
    model = ParetoIntegratedTail(alpha=3.5)
    rhos = (0.9, 0.95, 0.99)
    worst_ht = []
    worst_htail = []
    for rho in rhos:
        q = QueueModel(model=model, rho=rho)
        xhat = threshold_x(q)
        xs_ht = [float(frac * xhat) for frac in np.geomspace(0.02, 0.5, 12)]
        xs_htail = [float(frac * xhat) for frac in np.geomspace(2.0, 4.0, 5)]
        mcs = ak_estimate_grid(q, xs_ht + xs_htail, target_rel_err=0.02, seed=77)
        dev = 0.0
        for x, mc in zip(xs_ht, mcs):
            dev = max(dev, abs(heavy_traffic(q, x) / mc.estimate - 1.0))
        worst_ht.append(dev)
        dev = 0.0
        for x, mc in zip(xs_htail, mcs[len(xs_ht):]):
            dev = max(dev, abs(heavy_tail(q, x) / mc.estimate - 1.0))
        worst_htail.append(dev)
    ok = all(a >= b for a, b in zip(worst_ht, worst_ht[1:])) and \
        all(a >= b for a, b in zip(worst_htail, worst_htail[1:]))
    _verdict(ok, 4,
             "worst deviations nonincreasing in rho: "
             f"HT {[round(d, 4) for d in worst_ht]}, "
             f"HTail {[round(d, 4) for d in worst_htail]}")
    assert ok, (worst_ht, worst_htail)


def test_criterion_5_convolution_vs_subexponential_form():
    # n-fold convolution tail vs n*P(X1 > x) on both lattice brackets
    model = ParetoIntegratedTail(alpha=3.5)
    mu = model.mean()
    ok = True
    lo_ratio, hi_ratio = math.inf, -math.inf
    notes = []
    for n in (2, 5, 10):
        lo = max(50.0, 5.0 * n * mu)
        xs = np.geomspace(lo, 8.0 * lo, 25)
        lower, upper = lattice_brackets(model, 0.05, cap=float(xs.max()) + 0.05)
        for latt in (lower, upper):
            conv = convolve_tail_grid(latt, n, xs)
            for x, c in zip(xs, conv):
                ratio = c / subexp_sum_approx(latt, n, float(x))
                lo_ratio = min(lo_ratio, ratio)
                hi_ratio = max(hi_ratio, ratio)
                if not 0.95 <= ratio <= 1.05:
                    ok = False
                    notes.append(f"n={n} x={x:.4g}: ratio {ratio:.4f}")
    _verdict(ok, 5, f"convolution/single-big-jump ratio within "
                    f"[{lo_ratio:.4f}, {hi_ratio:.4f}] for n in {{2, 5, 10}}")
    assert ok, notes


def test_criterion_6_refinement_dual_forms():
    # series form vs quadrature form of the normal-refined tail term
    model = ParetoIntegratedTail(alpha=3.5)
    worst = 0.0
    for rho in (0.5, 0.8, 0.95):
        q = QueueModel(model=model, rho=rho)
        for x in np.geomspace(0.5, 100.0, 20):
            worst = max(worst, abs(t_tail(q, float(x)) - t_tail_z(q, float(x))))
    ok = worst <= 1e-6
    _verdict(ok, 6, f"max |series - quadrature| = {worst:.2e} <= 1e-6")
    assert ok, worst


def test_criterion_7_geometric_sum_vs_mc():
    # two-term approximation within 10% of 1e7-sample crude MC at y/2, y, 2y
    failures = []
    checked = 0
    for p in (0.1, 0.05):
        g = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=p)
        y = geom_threshold(g)
        for x in (0.5 * y, y, 2.0 * y):
            mc = geom_crude_mc(g, x, 10_000_000, seed=9)
            approx = geom_tail_approx(g, x)
            dev = abs(approx / mc.estimate - 1.0)
            checked += 1
            if dev > 0.10:
                failures.append((p, x / y, dev))
    for p, frac, dev in failures:
        print(f"  - p={p} x={frac:g}*y(p): |approx/MC - 1| = {dev:.3f} > 0.10")
    _verdict(not failures, 7,
             f"{checked - len(failures)}/{checked} points within 10% of MC "
             f"at p in {{0.1, 0.05}}")
    assert not failures, failures


def test_criterion_8_invariants(tmp_path):
    ok = True
    notes = []
    # gamma factor stays in [0, 1) over 10^4 random (rho, x)
    rng = np.random.default_rng(8)
    alphas = (2.5, 3.1, 3.5, 4.5)
    for i in range(10_000):
        q = QueueModel(model=ParetoIntegratedTail(alpha=alphas[i % 4]),
                       rho=float(rng.uniform(0.005, 0.995)))
        g = gamma_factor(q, float(rng.uniform(0.0, 400.0)))
        if not 0.0 <= g < 1.0:
            ok = False
            notes.append(f"gamma {g!r} out of range")
            break
    # geometric-sum mapping reproduces j exactly (same algebra)
    worst_gap = 0.0
    for alpha in (3.5, 4.0):
        for rho in (0.1, 0.5, 0.8, 0.95):
            q = QueueModel(model=ParetoIntegratedTail(alpha=alpha), rho=rho)
            g = GeomModel(y_model=ParetoIntegratedTail(alpha=alpha), p=1.0 - rho)
            for x in np.geomspace(0.5, 200.0, 15):
                gap = abs(geom_tail_approx(g, float(x)) - j_approx(q, float(x)))
                worst_gap = max(worst_gap, gap)
    if worst_gap > 1e-12:
        ok = False
        notes.append(f"geom/j identity gap {worst_gap:.2e}")
    # seeded determinism: estimator fields and emitted files are identical
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    a = ak_estimate(q, 10.0, target_rel_err=0.05, seed=123)
    b = ak_estimate(q, 10.0, target_rel_err=0.05, seed=123)
    if (a.estimate, a.half_width, a.n_samples) != (b.estimate, b.half_width, b.n_samples):
        ok = False
        notes.append("ak_estimate not deterministic under fixed seed")
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
            "--x-min", "1", "--x-max", "40", "--points", "5", "--log-grid",
            "--simulate", "--rel-err", "0.1", "--seed", "5"]
    assert cli_main(argv + ["--out", str(fa)]) == 0
    assert cli_main(argv + ["--out", str(fb)]) == 0
    if fa.read_bytes() != fb.read_bytes():
        ok = False
        notes.append("seeded sweep files differ")
    # halving the lattice spacing narrows the brackets
    ratios = []
    for q2, x in ((QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8), 10.0),
                  (QueueModel(model=ExponentialIntegrated(rate=1.0), rho=0.5), 2.0)):
        wide = pk_truncated(q2, x, h=0.1)
        narrow = pk_truncated(q2, x, h=0.05)
        ratios.append(float((wide.upper - wide.lower) / (narrow.upper - narrow.lower)))
    if not all(r > 1.0 for r in ratios):
        ok = False
        notes.append(f"bracket widths did not narrow: {ratios}")
    _verdict(ok, 8,
             f"gamma in [0,1) on 10^4 draws; geom/j gap {worst_gap:.1e} <= 1e-12; "
             f"seeded outputs identical; bracket narrowing ratios "
             f"{[round(r, 2) for r in ratios]}")
    assert ok, notes
