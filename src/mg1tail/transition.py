"""Where the exponential regime hands over to the power-law regime.

For a Pareto-type integrated tail with index alpha the pivot scale is
kappa = mu (alpha - 2) and the threshold curve is

    x_hat(rho) = c kappa (1-rho)^{-1} log((1-rho)^{-1}),

with the dual form rho_hat(x) = 1 - c kappa log(x)/x.  A point (rho, x) is
classified by its implied c value; the exact equal-value crossing of the two
raw approximations is found by bisection on the log difference, which is
unimodal in x.
"""

from dataclasses import dataclass
from enum import Enum
import math

from .distributions import IntegratedTailModel, QueueModel
from .errors import (NoCrossingError, UnsupportedModelError, check_finite,
                     check_nonnegative, check_positive)


class Regime(Enum):
    HEAVY_TRAFFIC = "heavy-traffic"
    TRANSITION = "transition"
    HEAVY_TAIL = "heavy-tail"


@dataclass(frozen=True)
class RegimeReport:
    c_value: float
    regime: Regime
    threshold_x: float
    kappa: float


@dataclass(frozen=True)
class RhoThreshold:
    value: float
    in_range: bool


def kappa(model: IntegratedTailModel) -> float:
    """mu (alpha-2), with alpha-1 the tail index (raises for variants without
    one); for the built-in Pareto family this equals alpha-1."""
    return model.mean() * (model.tail_index() - 1.0)


def threshold_x(q: QueueModel, c: float = 1.0) -> float:
    check_positive("c", c)
    k = kappa(q.model)
    inv = 1.0 / (1.0 - q.rho)
    return c * k * inv * math.log(inv)


def threshold_rho(model: IntegratedTailModel, x, c: float = 1.0) -> RhoThreshold:
    """1 - c kappa log(x)/x, flagged when it escapes (0,1)."""
    if not x > 1:
        raise ValueError(f"x must exceed 1, got {x}")
    check_positive("c", c)
    check_finite("x", x)
    k = kappa(model)
    value = 1.0 - c * k * math.log(x) / x
    return RhoThreshold(value=value, in_range=0.0 < value < 1.0)


def regime_classify(q: QueueModel, x, delta: float = 0.1) -> RegimeReport:
    """Implied c = x(1-rho)/(kappa log((1-rho)^{-1})); heavy traffic below
    1-delta, heavy tail above 1+delta, transition otherwise."""
    check_nonnegative("x", x)
    check_nonnegative("delta", delta)
    k = kappa(q.model)
    inv = 1.0 / (1.0 - q.rho)
    c_value = x * (1.0 - q.rho) / (k * math.log(inv))
    if c_value < 1.0 - delta:
        regime = Regime.HEAVY_TRAFFIC
    elif c_value > 1.0 + delta:
        regime = Regime.HEAVY_TAIL
    else:
        regime = Regime.TRANSITION
    return RegimeReport(
        c_value=c_value,
        regime=regime,
        threshold_x=threshold_x(q),
        kappa=k,
    )


_X_CAP_MULTIPLE = 1e9


def crossing_point(q: QueueModel) -> float:
    """Largest x with heavy_traffic(x) = heavy_tail(x), by bisection on the
    log difference d(x), which increases up to x_peak = (alpha-1) mu /(1-rho)
    and decreases afterwards."""
    try:
        index = q.model.tail_index()
    except UnsupportedModelError:
        raise UnsupportedModelError("crossing requires a power-law tail") from None
    mu = q.model.mean()
    rho = q.rho

    def log_diff(x):
        # log heavy_traffic - log heavy_tail, valid for x >= 1
        return (
            -(1.0 - rho) * x / mu
            - math.log(rho / (1.0 - rho))
            + index * math.log(x)
        )

    x_hi = _X_CAP_MULTIPLE * mu
    x_peak = index * mu / (1.0 - rho)
    lo = max(1.0, x_peak)
    if log_diff(lo) <= 0.0:
        raise NoCrossingError(
            f"exponential curve never exceeds the power curve on "
            f"[{lo:g}, {x_hi:g}] (rho={rho}, alpha={q.model.alpha})"
        )
    if log_diff(x_hi) > 0.0:
        raise NoCrossingError(f"no sign change before x={x_hi:g}")
    hi = x_hi
    # bisect well past the reported tolerance so the values, not just the
    # abscissa, agree to 1e-9 relative
    while hi - lo > 1e-12 * lo:
        mid = 0.5 * (lo + hi)
        if log_diff(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
