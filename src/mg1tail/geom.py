"""Tails of geometric random sums Z = Y_1 + ... + Y_N, where
P(N = k) = p (1-p)^{k-1} for k >= 1 and the summands have a power tail.

With the mapping rho = 1-p and X = Y this is the queueing approximation
itself (the queue-side count starts at 0, which only contributes a factor
1-p), so geom_gamma and geom_tail_approx evaluate the one two-term formula
behind gamma_factor and j_approx at (1-p, p), and tau is kappa of the summand
law.
"""

from dataclasses import dataclass, field
import math

from .approx import _two_term
from .distributions import IntegratedTailModel
from .errors import check_positive
from .transition import kappa


@dataclass(frozen=True)
class GeomModel:
    y_model: IntegratedTailModel
    p: float
    tau: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie strictly in (0,1), got {self.p}")
        beta = self.y_model.tail_index()  # rejects variants without one
        if not beta > 2:
            raise ValueError(f"summand tail index must exceed 2, got {beta}")
        object.__setattr__(self, "tau", kappa(self.y_model))


def geom_gamma(g: GeomModel, x) -> float:
    """1 - (1-p)^{x/mu} (1 + p x/mu) with mu the summand mean; in [0,1)."""
    return _two_term(g.y_model, 1.0 - g.p, g.p, x)[0]


def geom_tail_approx(g: GeomModel, x) -> float:
    """((1-p)/p) gamma(x) P(Y > x) + (1-p)^{x/mu}."""
    return _two_term(g.y_model, 1.0 - g.p, g.p, x)[1]


def geom_threshold(g: GeomModel, c: float = 1.0) -> float:
    """y(p) = c tau p^{-1} log(1/p), the scale where the exponential and
    power contributions change places."""
    check_positive("c", c)
    return c * g.tau / g.p * math.log(1.0 / g.p)
