"""Exponential-service companions: adjustment coefficient and light-tail
asymptotics.

Only the exponential variant has a finite moment generating function, so all
three operations reject power-law models; that rejection is the whole point
of the contrast with the heavy-tailed machinery.
"""

from dataclasses import dataclass
import math

from .distributions import ExponentialIntegrated
from .errors import UnsupportedModelError, check_finite, check_nonnegative


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
    """Root theta* of rho E[e^{theta V}] = 1 on (0, rate).  With
    E[e^{theta V}] = nu/(nu - theta) for exponential service of rate nu the
    root is nu(1-rho), the heavy-traffic rate (1-rho)/mu itself; residual is
    the float residual of the equation there, infinite where 1 - rho rounds
    to 1 and so puts the root on the pole at nu."""
    _require_exponential(model)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    nu = model.rate
    theta = nu * (1.0 - rho)
    gap = nu - theta
    residual = abs(rho * nu / gap - 1.0) if gap > 0 else math.inf
    return AdjustmentCoefficient(theta_star=theta, rho=rho, residual=residual)


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
    check_finite("x_scaled", x_scaled)
    mom = model.service_moments()
    x = x_scaled
    exponent = (
        -2.0 * x / (1.0 - rho) * mom.ev1 / mom.ev2
        + x * mom.ev3 / (3.0 * mom.ev2)
        - (x / 4.0) * mom.ev2 / mom.ev1
    )
    return math.exp(exponent)
