"""Closed-form tail approximations for the stationary waiting time.

Let W be the steady-state waiting time of an M/G/1 queue at load rho whose
integrated-tail law X has mean mu and tail F̄.  The approximations here:

* heavy_traffic:  exp(-(1-rho) x / mu), the exponential limit;
* heavy_tail:     (rho/(1-rho)) F̄(x), the single-big-jump asymptote;
* s_sum / h_approx:  the finite correction  S(rho,x) + rho^{x/mu}  with
  S = sum_{n=1}^{M(x)} (1-rho) rho^n n F̄(x-(n-1)mu),
  M(x) = floor((x - x^beta)/mu), beta = 1/min(2, alpha-1);
* gamma_factor / j_approx:  the compact variant
  (rho/(1-rho)) gamma(x) F̄(x) + rho^{x/mu}  with
  gamma = 1 - rho^{x/mu}(1 + (1-rho)x/mu), provably in [0,1);
* t_tail / h_clt:  the normal-refined geometric term
  T(rho,x) = sum_{n>=1} (1-rho) rho^n (1 - Phi((x-n mu)/(sigma sqrt(n))))
  replacing rho^{x/mu}; t_tail_z evaluates the same quantity as a normal
  expectation E[rho^{floor(t(Z)^2)+1}] by deterministic quadrature;
* subexp_sum_approx:  the n-fold convolution surrogate n F̄(x-(n-1)mu).
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .distributions import IntegratedTailModel, QueueModel, tail_prob
from .errors import UnsupportedModelError, check_nonnegative

# terms below this magnitude are skipped so summation order quirks at the
# subnormal boundary cannot leak into results
_TERM_FLOOR = 1e-300
_SERIES_TOL = 1e-12


@dataclass(frozen=True)
class ApproximationPoint:
    x: float
    heavy_traffic: float
    heavy_tail: float
    h: float
    j: float
    h_clt: float | None
    geometric_term: float
    m_of_x: int


def heavy_traffic(q: QueueModel, x) -> float:
    check_nonnegative("x", x)
    mu = q.model.mean()
    return math.exp(-(1.0 - q.rho) * x / mu)


def heavy_tail(q: QueueModel, x) -> float:
    """Raw asymptote; may exceed 1 at small x (reported unclamped)."""
    check_nonnegative("x", x)
    return q.rho / (1.0 - q.rho) * tail_prob(q.model, x)


def big_m(q: QueueModel, x) -> int:
    check_nonnegative("x", x)
    try:
        beta = 1.0 / min(2.0, q.model.tail_index())
    except UnsupportedModelError:
        beta = 0.5  # light-tailed variants behave like alpha = infinity
    mu = q.model.mean()
    if x == 0.0:
        return 0
    return max(0, math.floor((x - x**beta) / mu))


def s_sum(q: QueueModel, x) -> float:
    """Compensated ascending sum of (1-rho) rho^n n F̄(x-(n-1)mu)."""
    m = big_m(q, x)
    mu = q.model.mean()
    rho = q.rho
    total = 0.0
    comp = 0.0
    weight = (1.0 - rho) * rho  # (1-rho) rho^n at n=1
    for n in range(1, m + 1):
        # x - (n-1)mu >= x^beta + mu > 0 for n <= M(x), so the model's own
        # method needs no argument check
        term = weight * n * q.model.tail_prob(x - (n - 1) * mu)
        weight *= rho
        if term < _TERM_FLOOR:
            # later terms are <= weight * m * F, F <= 1 + 1e-12: all skipped
            if 2.0 * weight * m < _TERM_FLOOR:
                break
            continue
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def geometric_term(q: QueueModel, x) -> float:
    check_nonnegative("x", x)
    mu = q.model.mean()
    return q.rho ** (x / mu)


def h_approx(q: QueueModel, x) -> float:
    return s_sum(q, x) + geometric_term(q, x)


def _two_term(model: IntegratedTailModel, r: float, s: float, x):
    """(gamma, (r/s) gamma F̄(x) + r^{x/mu}) with gamma = 1 - r^{x/mu}(1 + s x/mu),
    for r = 1-s in (0,1): the queue form at (rho, 1-rho) and the geometric-sum
    form at (1-p, p).  gamma lies in [0,1) since with t = s x/mu one has
    r^{x/mu} <= e^{-t} and e^{-t}(1+t) <= 1."""
    check_nonnegative("x", x)
    mu = model.mean()
    g = r ** (x / mu)
    # keep the half-open range when the complement underflows past 1 ulp
    gamma = min(1.0 - g - g * s * x / mu, math.nextafter(1.0, 0.0))
    return gamma, r / s * gamma * tail_prob(model, x) + g


def gamma_factor(q: QueueModel, x) -> float:
    """1 - rho^{x/mu}(1 + (1-rho)x/mu), in [0,1)."""
    return _two_term(q.model, q.rho, 1.0 - q.rho, x)[0]


def j_approx(q: QueueModel, x) -> float:
    return _two_term(q.model, q.rho, 1.0 - q.rho, x)[1]


def _sigma(q: QueueModel) -> float:
    var = q.model.variance()
    if math.isinf(var):
        raise UnsupportedModelError(
            "infinite-variance model: the normal-refined term is undefined "
            "(its stable-law counterpart is out of scope)"
        )
    return math.sqrt(var)


def _phi_tail(u: float) -> float:
    """1 - Phi(u) for scalar u."""
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def t_tail(q: QueueModel, x) -> float:
    """Series form, truncated at the smallest N with rho^{N+1} < 1e-12 (each
    remaining term is at most (1-rho) rho^n)."""
    check_nonnegative("x", x)
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    n_max = math.ceil(math.log(_SERIES_TOL) / math.log(rho))
    total = 0.0
    comp = 0.0
    weight = (1.0 - rho) * rho
    for n in range(1, n_max + 1):
        z = (x - n * mu) / (sigma * math.sqrt(n))
        term = weight * _phi_tail(z)
        weight *= rho
        if term < _TERM_FLOOR:
            continue
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# midpoint rule in the probability domain: u_i = (i+0.5)/K, z_i = Phi^{-1}(u_i);
# the outermost nodes sit at |z| = 5.03
_QUAD_NODES = 2_000_001
# nodes per chunk when t_tail_z finds its exponents
_QUAD_CHUNK = 1 << 16


@functools.cache
def _quad_nodes() -> np.ndarray:
    """The quadrature nodes z_i in increasing order, built on first use and
    shared read-only by every call; the package imports scipy only here."""
    from scipy.special import ndtri

    z = ndtri((np.arange(_QUAD_NODES) + 0.5) / _QUAD_NODES)
    z.flags.writeable = False
    return z


def t_tail_z(q: QueueModel, x) -> float:
    """Normal-expectation form E[rho^{floor(t(Z)^2)+1}] with
    t(z) = sqrt(x/mu + (sigma z/(2 mu))^2) - sigma z/(2 mu); equals the series
    exactly (Abel summation over P(floor(t(Z)^2) >= n) = Phi((x-n mu)/(sigma
    sqrt(n)))), so the two implementations cross-check each other."""
    check_nonnegative("x", x)
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    z = _quad_nodes()
    a = sigma / (2.0 * mu)
    # expo is piecewise constant along the sorted nodes, so exp runs once per
    # run of equal exponents (monotonicity is not assumed: a rounding wiggle
    # only adds a run).  The exponents are found chunk by chunk, so that the
    # only node-sized temporary is the one the sum needs; a run cut at a chunk
    # edge expands to the same values.
    starts, run_expo = [], []
    for lo in range(0, z.size, _QUAD_CHUNK):
        zc = z[lo:lo + _QUAD_CHUNK]
        t = np.sqrt(x / mu + (a * zc) ** 2) - a * zc
        expo = np.floor(t * t) + 1.0
        first = np.concatenate(([0], np.flatnonzero(expo[1:] != expo[:-1]) + 1))
        starts.append(first + lo)
        run_expo.append(expo[first])
    starts = np.concatenate(starts)
    run_expo = np.concatenate(run_expo)
    e = run_expo * math.log(rho)
    vals = np.exp(e)
    vals[e < -745.0] = 0.0
    # one value per node again: numpy's pairwise summation order depends on
    # the array length
    vals = np.repeat(vals, np.diff(starts, append=z.size))
    return float(vals.sum() / _QUAD_NODES)


def h_clt(q: QueueModel, x) -> float:
    return s_sum(q, x) + t_tail(q, x)


def subexp_sum_approx(model: IntegratedTailModel, n: int, x) -> float:
    """n F̄(max(0, x-(n-1)mu)), the one-big-jump surrogate for P(S_n > x)."""
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be a positive integer, got {n}")
    check_nonnegative("x", x)
    mu = model.mean()
    return n * tail_prob(model, max(0.0, x - (n - 1) * mu))


def approximation_point(q: QueueModel, x) -> ApproximationPoint:
    """Bundle of every closed-form value at one x (CLT column only when the
    variance is finite)."""
    try:
        clt = h_clt(q, x)
    except UnsupportedModelError:
        clt = None
    return ApproximationPoint(
        x=float(x),
        heavy_traffic=heavy_traffic(q, x),
        heavy_tail=heavy_tail(q, x),
        h=h_approx(q, x),
        j=j_approx(q, x),
        h_clt=clt,
        geometric_term=geometric_term(q, x),
        m_of_x=big_m(q, x),
    )
