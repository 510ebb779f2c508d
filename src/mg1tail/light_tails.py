"""Exponential-service companions: adjustment coefficient and light-tail
asymptotics.

Only the exponential variant has a finite moment generating function, so all
three operations reject power-law models; that rejection is the whole point
of the contrast with the heavy-tailed machinery.
"""

from dataclasses import dataclass
import math

from .distributions import ExponentialIntegrated
from .errors import UnsupportedModelError, check_nonnegative

_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class AdjustmentCoefficient:
    theta_star: float
    rho: float
    residual: float


def _require_exponential(model):
    if not isinstance(model, ExponentialIntegrated):
        raise UnsupportedModelError(
            "operation needs a finite moment generating function; only the "
            "exponential variant has one"
        )


def adjustment_coefficient(model, rho) -> AdjustmentCoefficient:
    """Root theta* of rho E[e^{theta V}] = 1 on (0, rate), by bisection to
    residual <= 1e-12.  For exponential service the root is rate*(1-rho)."""
    _require_exponential(model)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    nu = model.rate

    def f(theta):
        # rho * E e^{theta V} - 1 with E e^{theta V} = nu/(nu - theta)
        return rho * nu / (nu - theta) - 1.0

    lo, hi = 0.0, nu * (1.0 - 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if abs(val) <= _RESIDUAL_TOL:
            return AdjustmentCoefficient(theta_star=mid, rho=rho, residual=abs(val))
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return AdjustmentCoefficient(theta_star=mid, rho=rho, residual=abs(f(mid)))


def cramer_lundberg_tail(model, rho, x) -> float:
    """exp(-theta* x): exact decay rate, constant-free (the exact M/M/1
    prefactor is rho, approached only as rho tends to 1)."""
    check_nonnegative("x", x)
    theta = adjustment_coefficient(model, rho).theta_star
    return math.exp(-theta * x)


def corrected_heavy_traffic(model, rho, x_scaled) -> float:
    """Second-order heavy-traffic asymptotic at tail argument
    x_scaled (1-rho)^{-2}: exp of
    -2 x (1-rho)^{-1} EV/EV2 + x EV3/(3 EV2) - (x/4) EV2/EV."""
    _require_exponential(model)
    check_nonnegative("x_scaled", x_scaled)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    mom = model.service_moments()
    x = x_scaled
    exponent = (
        -2.0 * x / (1.0 - rho) * mom.ev1 / mom.ev2
        + x * mom.ev3 / (3.0 * mom.ev2)
        - (x / 4.0) * mom.ev2 / mom.ev1
    )
    return math.exp(exponent)
