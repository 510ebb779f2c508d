import math

import numpy as np
import pytest

from mg1tail import (
    ExponentialIntegrated,
    GeomModel,
    Lattice,
    ParetoIntegratedTail,
    QueueModel,
    UnsupportedModelError,
    geom_gamma,
    geom_tail_approx,
    gamma_factor,
    geom_threshold,
    j_approx,
)

# summand tail index 3, mean 3/2
G = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=0.1)


def test_tau():
    assert math.isclose(G.tau, 3.0, rel_tol=1e-14)
    g = GeomModel(y_model=ParetoIntegratedTail(alpha=3.5), p=0.05)
    assert math.isclose(g.tau, 2.5, rel_tol=1e-14)


def test_gamma_examples():
    assert geom_gamma(G, 0.0) == 0.0
    # 1 - 0.9^{20/3} (1 + 2/3), hand value 0.17447
    assert math.isclose(geom_gamma(G, 10.0), 0.17447, rel_tol=1e-3)
    assert math.isclose(
        geom_gamma(G, 10.0), 1.0 - 0.9 ** (10.0 / 1.5) * (1.0 + 0.1 * 10.0 / 1.5), rel_tol=1e-14
    )


def test_gamma_vanishes_as_p_to_zero():
    for p in (1e-3, 1e-6):
        g = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=p)
        assert geom_gamma(g, 10.0) < 3 * p


def test_gamma_range_randomized():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=float(rng.uniform(0.01, 0.99)))
        assert 0.0 <= geom_gamma(g, float(rng.uniform(0.0, 300.0))) < 1.0


def test_tail_approx_example():
    # 9 * gamma * 10^-3 + 0.9^{20/3}; the 0.49689 reference rounds its
    # intermediate to 5 digits, so it is only good to ~2e-4 itself
    assert math.isclose(geom_tail_approx(G, 10.0), 0.49689, rel_tol=3e-4)
    base = 0.9 ** (10.0 / 1.5)
    exact = 9.0 * (1.0 - base * (1.0 + 2.0 / 3.0)) * 1e-3 + base
    assert math.isclose(geom_tail_approx(G, 10.0), exact, rel_tol=1e-14)
    assert geom_tail_approx(G, 0.0) == 1.0


def test_threshold_examples():
    g = GeomModel(y_model=ParetoIntegratedTail(alpha=3.5), p=0.05)
    assert math.isclose(geom_threshold(g), 149.787, rel_tol=1e-5)
    assert math.isclose(geom_threshold(g, c=2.0), 2.0 * geom_threshold(g), rel_tol=1e-14)
    ge = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=1.0 / math.e)
    assert math.isclose(geom_threshold(ge), 3.0 * math.e, rel_tol=1e-12)


def test_matches_queue_approximation():
    # rho <-> 1-p maps the geometric-sum formula onto the queue formula
    model = ParetoIntegratedTail(alpha=3.5)
    for rho in (0.5, 0.8, 0.95):
        q = QueueModel(model=model, rho=rho)
        g = GeomModel(y_model=model, p=1.0 - rho)
        for x in (0.0, 1.3, 10.0, 77.0):
            assert abs(geom_tail_approx(g, x) - j_approx(q, x)) <= 1e-12


def test_same_formula_as_queue_at_dyadic_p():
    # at dyadic p, 1-(1-p) == p, so both sides get the same (r, s) pair and
    # one formula gives the same bits
    model = ParetoIntegratedTail(alpha=3.5)
    for p in (0.5, 0.25, 0.125):
        assert 1.0 - (1.0 - p) == p
        q = QueueModel(model=model, rho=1.0 - p)
        g = GeomModel(y_model=model, p=p)
        for x in (0.0, 1.3, 10.0, 77.0):
            assert geom_tail_approx(g, x) == j_approx(q, x)
            assert geom_gamma(g, x) == gamma_factor(q, x)


def test_summand_model_restrictions():
    with pytest.raises(UnsupportedModelError):
        GeomModel(y_model=ExponentialIntegrated(rate=1.0), p=0.1)
    with pytest.raises(UnsupportedModelError):
        GeomModel(y_model=Lattice(h=1.0, mass=[0.5, 0.5]), p=0.1)
    with pytest.raises(ValueError):
        GeomModel(y_model=ParetoIntegratedTail(alpha=2.9), p=0.1)  # index 1.9 <= 2
    with pytest.raises(ValueError):
        GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=0.0)


def test_negative_x_rejected():
    with pytest.raises(ValueError):
        geom_gamma(G, -1.0)
    with pytest.raises(ValueError):
        geom_tail_approx(G, -0.5)
