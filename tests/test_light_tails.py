import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from mg1tail import (
    ExponentialIntegrated,
    ParetoIntegratedTail,
    QueueModel,
    UnsupportedModelError,
    adjustment_coefficient,
    corrected_heavy_traffic,
    cramer_lundberg_tail,
    heavy_traffic,
)


def test_adjustment_coefficient_closed_form():
    # rho nu/(nu - theta) = 1 has root theta = nu (1 - rho)
    for rate in (0.5, 1.0, 3.0):
        for rho in (0.1, 0.5, 0.9, 0.99):
            ac = adjustment_coefficient(ExponentialIntegrated(rate=rate), rho)
            assert ac.theta_star == rate * (1.0 - rho)
            assert abs(ac.residual) <= 1e-12
            assert ac.rho == rho
    # 1 - rho rounds to 1, so the root lands on the pole of E e^{theta V}
    ac = adjustment_coefficient(ExponentialIntegrated(rate=2.0), 1e-17)
    assert ac.theta_star == 2.0 and ac.residual == math.inf


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(1e-2, 1e2),
    rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    share=st.floats(0.0, 1.0),
)
# theta* x = 500 at rho = 0.95, where a root off by 1e-11 relative shows
@example(rate=1.0, rho=0.95, share=1.0)
def test_cramer_lundberg_rate_is_the_heavy_traffic_rate(rate, rho, share):
    # for M/M/1 theta* = (1-rho)/mu, so the two tails differ only by the
    # rounding of their exponents, a few ulps relative each, times theta* x;
    # x ranges over [0, 1e4] with theta* x <= 700
    model = ExponentialIntegrated(rate=rate)
    theta = rate * (1.0 - rho)
    x = share * min(1e4, 700.0 / theta)
    cl = cramer_lundberg_tail(model, rho, x)
    ht = heavy_traffic(QueueModel(model=model, rho=rho), x)
    assert abs(cl / ht - 1.0) <= 8 * 2.0**-53 * (1.0 + theta * x)


def test_cramer_lundberg_ratio_is_rho():
    # exact M/M/1 tail is rho e^{-theta* x}: the constant-free bound is off
    # by exactly the factor rho at every x
    rate = 1.0
    for rho in (0.5, 0.9):
        for x in np.linspace(0.0, 40.0, 9):
            exact = rho * math.exp(-rate * (1.0 - rho) * x)
            cl = cramer_lundberg_tail(ExponentialIntegrated(rate=rate), rho, float(x))
            assert abs(exact / cl - rho) <= 1e-10


def test_uniform_gap_peaks_at_zero():
    # sup_x |P(W>x) - e^{-theta* x}| = 1 - rho, attained at x = 0
    rate, rho = 1.0, 0.8
    xs = np.linspace(0.0, 60.0, 2001)
    gaps = [
        abs(rho * math.exp(-rate * (1.0 - rho) * x)
            - cramer_lundberg_tail(ExponentialIntegrated(rate=rate), rho, float(x)))
        for x in xs
    ]
    assert math.isclose(max(gaps), 1.0 - rho, rel_tol=1e-12)
    assert gaps[0] == max(gaps)


def test_corrected_heavy_traffic_value():
    # rate 1: EV=1, EV2=2, EV3=6 -> exponent -x/(1-rho) + x.(3/4)
    v = corrected_heavy_traffic(ExponentialIntegrated(rate=1.0), 0.9, 0.1)
    assert math.isclose(v, math.exp(-0.95), rel_tol=1e-12)


def test_corrected_heavy_traffic_exponent_linearity():
    m = ExponentialIntegrated(rate=2.0)
    v1 = corrected_heavy_traffic(m, 0.8, 0.3)
    v2 = corrected_heavy_traffic(m, 0.8, 0.6)
    assert math.isclose(v2, v1 * v1, rel_tol=1e-12)


def test_light_tail_requires_exponential():
    with pytest.raises(UnsupportedModelError):
        adjustment_coefficient(ParetoIntegratedTail(alpha=3.5), 0.8)
    with pytest.raises(UnsupportedModelError):
        cramer_lundberg_tail(ParetoIntegratedTail(alpha=3.5), 0.8, 1.0)
    with pytest.raises(UnsupportedModelError):
        corrected_heavy_traffic(ParetoIntegratedTail(alpha=3.5), 0.8, 1.0)


def test_argument_validation():
    m = ExponentialIntegrated(rate=1.0)
    with pytest.raises(ValueError):
        adjustment_coefficient(m, 0.0)
    with pytest.raises(ValueError):
        adjustment_coefficient(m, 1.0)
    with pytest.raises(ValueError):
        cramer_lundberg_tail(m, 0.5, -1.0)
    with pytest.raises(ValueError):
        corrected_heavy_traffic(m, 0.5, -0.1)
