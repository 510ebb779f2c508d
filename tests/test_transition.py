import math
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from mg1tail import (
    ExponentialIntegrated,
    NoCrossingError,
    ParetoIntegratedTail,
    QueueModel,
    Regime,
    UnsupportedModelError,
    heavy_tail,
    heavy_traffic,
    crossing_point,
    kappa,
    regime_classify,
    threshold_rho,
    threshold_x,
)
from mg1tail.transition import band_regime


def test_kappa_is_alpha_minus_one():
    # mu (alpha-2) collapses to alpha-1 for this family
    assert math.isclose(kappa(ParetoIntegratedTail(alpha=3.5)), 2.5, rel_tol=1e-14)
    assert math.isclose(kappa(ParetoIntegratedTail(alpha=3.1)), 2.1, rel_tol=1e-12)
    with pytest.raises(UnsupportedModelError):
        kappa(ExponentialIntegrated(rate=1.0))


def test_threshold_x_examples():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.1), rho=0.95)
    assert math.isclose(threshold_x(q), 125.8208, rel_tol=1e-6)
    q2 = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    assert math.isclose(threshold_x(q2), 20.118, rel_tol=1e-4)


def test_threshold_x_scales_linearly_in_c():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    assert math.isclose(threshold_x(q, c=2.0), 2.0 * threshold_x(q), rel_tol=1e-14)
    with pytest.raises(ValueError):
        threshold_x(q, c=0.0)


def test_threshold_rho_example():
    rt = threshold_rho(ParetoIntegratedTail(alpha=3.5), 100.0)
    assert math.isclose(rt.value, 0.8848707, rel_tol=1e-6)
    assert rt.in_range


def test_threshold_rho_out_of_range():
    # kappa/e > 1 pushes the expression negative at x = e
    rt = threshold_rho(ParetoIntegratedTail(alpha=10.0), math.e)
    assert rt.value < 0.0
    assert not rt.in_range


def test_threshold_rho_needs_x_above_one():
    with pytest.raises(ValueError):
        threshold_rho(ParetoIntegratedTail(alpha=3.5), 1.0)


def test_regime_classification():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    xh = threshold_x(q)
    assert regime_classify(q, 2.0).regime is Regime.HEAVY_TRAFFIC
    assert regime_classify(q, xh).regime is Regime.TRANSITION
    assert regime_classify(q, 60.0).regime is Regime.HEAVY_TAIL
    rep = regime_classify(q, xh)
    assert math.isclose(rep.c_value, 1.0, rel_tol=1e-12)
    assert math.isclose(rep.threshold_x, xh, rel_tol=1e-14)


def test_regime_band_width():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    xh = threshold_x(q)
    # delta widens the transition band
    assert regime_classify(q, 0.85 * xh, delta=0.1).regime is Regime.HEAVY_TRAFFIC
    assert regime_classify(q, 0.85 * xh, delta=0.2).regime is Regime.TRANSITION


def test_band_regime_edges():
    # the geom report's band edges 0.9 and 1.1 are 1 -/+ delta at delta = 0.1,
    # the same doubles, and both edges belong to the transition band
    assert (1.0 - 0.1, 1.0 + 0.1) == (0.9, 1.1)
    for c, regime in ((math.nextafter(0.9, 0.0), Regime.HEAVY_TRAFFIC),
                      (0.9, Regime.TRANSITION), (1.1, Regime.TRANSITION),
                      (math.nextafter(1.1, 2.0), Regime.HEAVY_TAIL)):
        assert band_regime(c) is regime


def test_crossing_point_location():
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    cp = crossing_point(q)
    assert 79.0 < cp < 80.0
    assert math.isclose(heavy_traffic(q, cp), heavy_tail(q, cp), rel_tol=1e-9)


def test_crossing_point_is_largest_root():
    # beyond the crossing the polynomial tail dominates for good
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    cp = crossing_point(q)
    for f in (1.01, 2.0, 10.0):
        assert heavy_traffic(q, cp * f) < heavy_tail(q, cp * f)


def test_crossing_point_unsupported_model():
    q = QueueModel(model=ExponentialIntegrated(rate=1.0), rho=0.8)
    with pytest.raises(UnsupportedModelError):
        crossing_point(q)


def _crossing_ref(beta, mu, rho):
    """The root x >= beta mu/(1-rho) of -(1-rho) x/mu - log(rho/(1-rho))
    + beta log x = 0 at the exact floats, in decimal at 50 digits: Newton's
    method on y - log y = L, x = y beta mu/(1-rho), to a step below 1e-45 y."""
    with localcontext(Context(prec=50)):
        beta, mu, rho = Decimal(beta), Decimal(mu), Decimal(rho)
        scale = beta * mu / (1 - rho)
        big_l = scale.ln() - (rho / (1 - rho)).ln() / beta
        y, step = big_l + big_l.ln(), 1
        while abs(step) > y * Decimal(10) ** -45:
            step = (y - y.ln() - big_l) / (1 - 1 / y)
            y -= step
        return scale * y, scale


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(2.0, 50.0, exclude_min=True),
       rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(alpha=3.5, rho=0.8)
# the search returned 1.57e13, half way between its cap and the peak beyond it
@example(alpha=2.2798355090099407, rho=0.999999999999813)
def test_crossing_point_within_8u(alpha, rho):
    # within 8u of the exact root, at or beyond the peak beta mu/(1-rho) of the
    # log difference, and NoCrossingError only where the root passes 1e9 mu
    model = ParetoIntegratedTail(alpha)
    ref, peak = _crossing_ref(model.tail_index(), model.mean(), rho)
    cap = Decimal(1e9 * model.mean())
    try:
        cp = Decimal(crossing_point(QueueModel(model=model, rho=rho)))
    except NoCrossingError:
        assert ref > cap * (1 - Decimal(8 * 2.0 ** -53))
        return
    assert cp >= peak
    assert abs(cp - ref) <= Decimal(8 * 2.0 ** -53) * ref
