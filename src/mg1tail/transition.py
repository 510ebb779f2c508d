"""Where the exponential regime hands over to the power-law regime.

For a Pareto-type integrated tail with index alpha the pivot scale is
kappa = mu (alpha - 2) and the threshold curve is

    x_hat(rho) = c kappa (1-rho)^{-1} log((1-rho)^{-1}),

with the dual form rho_hat(x) = 1 - c kappa log(x)/x.  A point (rho, x) is
classified by its implied c value; the exact equal-value crossing of the two
raw approximations is a root of Lambert's W, taken by a fixed Newton
iteration.
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
    """Implied c = x(1-rho)/(kappa log((1-rho)^{-1})) and its band_regime."""
    check_nonnegative("x", x)
    check_nonnegative("delta", delta)
    k = kappa(q.model)
    inv = 1.0 / (1.0 - q.rho)
    c_value = x * (1.0 - q.rho) / (k * math.log(inv))
    return RegimeReport(
        c_value=c_value,
        regime=band_regime(c_value, delta),
        threshold_x=threshold_x(q),
        kappa=k,
    )


def band_regime(c_value: float, delta: float = 0.1) -> Regime:
    """The regime of a point whose x is c_value times the threshold: heavy
    traffic below 1-delta, heavy tail above 1+delta, transition otherwise."""
    if c_value < 1.0 - delta:
        return Regime.HEAVY_TRAFFIC
    if c_value > 1.0 + delta:
        return Regime.HEAVY_TAIL
    return Regime.TRANSITION


def crossing_point(q: QueueModel) -> float:
    """Largest x with heavy_traffic(x) = heavy_tail(x): with beta the tail index,
    c = (1-rho)/mu and K = rho/(1-rho), x = (beta/c) y, y >= 1 the root of y - log y
    = L = log(beta/c) - log(K)/beta on Lambert's W_{-1} branch (Corless et al. 1996),
    by Newton's method from L + log L (y - log y is increasing and convex on y > 1).
    For the Pareto family beta mu >= 4, so L > log 4: the root exists, at x >= beta
    mu/(1-rho) >= 4.  Within 8u (u = 2^-53) of it; NoCrossingError past 1e9 mu."""
    try:
        beta = q.model.tail_index()
    except UnsupportedModelError:
        raise UnsupportedModelError("crossing requires a power-law tail") from None
    mu = q.model.mean()
    rho = q.rho
    scale = beta * mu / (1.0 - rho)  # beta/c, where the log difference peaks
    big_l = math.log(beta * mu) - math.log(rho) / beta - (1.0 - 1.0 / beta) * math.log1p(-rho)
    y = big_l + math.log(big_l)
    for _ in range(6):
        y += y * (big_l - y + math.log(y)) / (y - 1.0)
    x = scale * y
    if not x <= 1e9 * mu:
        raise NoCrossingError(f"no sign change before x={1e9 * mu:g}")
    return x
