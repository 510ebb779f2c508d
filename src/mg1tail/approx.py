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
  replacing rho^{x/mu}; t_tail_grid closes the series with rho^{n0} past the
  first n0 where libm's erfc is 2, and sums each x's terms exactly;
  t_tail_z evaluates the same quantity as a normal expectation
  E[rho^{floor(t(Z)^2)+1}] by the midpoint rule, its nodes counted per
  exponent in closed form and their values summed exactly;
* subexp_sum_approx:  the n-fold convolution surrogate n F̄(x-(n-1)mu).
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .distributions import IntegratedTailModel, QueueModel, tail_prob
from .errors import UnsupportedModelError, check_finite, check_nonnegative

# terms below this magnitude are skipped so summation order quirks at the
# subnormal boundary cannot leak into results
_TERM_FLOOR = 1e-300
# terms per block of one x's T series, which bounds t_tail_grid's memory
_GRID_BLOCK = 1 << 14


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
    check_finite("x", x)
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
    check_finite("x", x)
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


def t_tail_grid(q: QueueModel, xs) -> list[float]:
    """T(rho, x) at each x of xs, its series closed.  z_n = (x - n mu)/(sigma
    sqrt(2n)) falls as n grows.  The terms before the first n with z_n <= 27 sum
    below 0.5 erfc(27) < 2.7e-319, and from n0, the first n with z_n <= -6, libm's
    erfc is exactly 2, so the terms are (1-rho) rho^n and sum to rho^{n0}.  T is
    the terms between, by libm erfc and weights (1-rho) rho^n (pow at each block's
    first n, then a running product), plus rho^{n0}, rounded once by math.fsum
    (Shewchuk 1997).  Both n are stepped to in floats from a quadratic in sqrt(n):
    an x costs O(sigma sqrt(x/mu)/mu) terms at any rho, none from `dead` on, where
    rho^n underflows, and no loop of numpy's CPU dispatch touches the bits."""
    for x in xs:
        check_nonnegative("x", x)
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    dead = math.ceil(-746.0 / math.log(rho))  # rho^n underflows from here on

    def first(x, bound):
        # the first n < dead with z_n <= bound, else dead; at sigma = 0, z_n is
        # -inf exactly where n mu > x, so no term lies between the two n
        def passed(n):
            d = x - n * mu
            return d / (sigma * math.sqrt(n)) / math.sqrt(2.0) <= bound if sigma else d < 0.0
        b, c = bound * math.sqrt(2.0) * sigma / mu, x / mu
        r = math.hypot(b, 2.0 * math.sqrt(c))  # the root in sqrt(n), without cancellation
        v = 2.0 * c / (b + r) if b > 0.0 else (r - b) / 2.0
        n = int(min(dead, v * v + 1.0))  # v is NaN or inf where x/mu is inf
        while n > 1 and passed(n - 1):
            n -= 1
        while n < dead and not passed(n):
            n += 1
        return n

    return [math.fsum(itertools.chain.from_iterable(
        _blocks(x, mu, sigma, rho, first(x, 27.0), first(x, -6.0)))) for x in xs]


def _blocks(x, mu, sigma, rho, lo, n0):
    """T's terms for n in [lo, n0), by blocks, largest first (fsum's fastest), then rho^{n0}."""
    for a in range(lo, n0, _GRID_BLOCK):
        n = np.arange(a, min(a + _GRID_BLOCK, n0), dtype=float)
        z = (x - n * mu) / (sigma * np.sqrt(n)) / math.sqrt(2.0)
        w = np.full(n.size, rho)
        w[0] = (1.0 - rho) * rho ** a
        terms = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, n.size) * np.cumprod(w, out=w)
        terms[::-1].sort()
        yield terms.tolist()
    yield [rho ** n0]


def t_tail(q: QueueModel, x) -> float:
    """T(rho, x) at one x: the one-point case of t_tail_grid."""
    return t_tail_grid(q, [x])[0]


# midpoint rule in the probability domain: u_i = (i+0.5)/K, z_i = Phi^{-1}(u_i)
_QUAD_NODES = 2_000_001
# z_0 and z_{K-1}, Phi^{-1}(0.5/K) and Phi^{-1}((K-0.5)/K) as scipy.special.ndtri rounds them
_Z_ENDS = (-5.026312931989857, 5.026312931971614)
# crossings per chunk of t_tail_z's node counts, which bounds its memory
_CROSSINGS = 1 << 13


def _exact_dot(pairs):
    """sum(counts * vals) over the (counts, vals) array pairs, rounded once, for
    whole counts below 2^26 and values below 2^996 in magnitude.  Veltkamp's split
    (Dekker 1971) cuts each value into two halves of at most 26 bits, so every
    count times a half is exact, and math.fsum (Shewchuk 1997) rounds the sum of
    the products once, taking one half of one pair at a time."""
    def halves(vals):
        big = vals * 134217729.0  # 2^27 + 1
        hi = big - (big - vals)
        return hi, vals - hi
    return math.fsum(itertools.chain.from_iterable(
        (counts * half).tolist() for counts, vals in pairs for half in halves(vals)))


def _node_counts(a, c, low, top):
    """(exponents, nonzero node counts) array pairs for the exponents low to top,
    _CROSSINGS at a time.  t(w) = sqrt(c + w^2) - w falls as w grows, and t^2 = k
    at w = (c - k)/(2 sqrt(k)), so the nodes with exponent above k are the first
    floor(K Phi(v) + 1/2), v = w/a; an exponent's count is the difference of two."""
    above = float(_QUAD_NODES)  # the nodes with exponent at least k
    for lo in range(low, top, _CROSSINGS):
        k = np.arange(lo, min(lo + _CROSSINGS, top), dtype=float)
        arg = (c - k) / (2.0 * np.sqrt(k)) / a / -math.sqrt(2.0)  # Phi(v) = erfc(-v/sqrt(2))/2
        n = np.floor(np.fromiter(map(math.erfc, arg.tolist()), float, k.size)
                     * (0.5 * _QUAD_NODES) + 0.5)
        if lo <= c < lo + k.size and c % 1.0 == 0.0 and math.sqrt(c) * math.sqrt(c) < c:
            # node K//2 (z = 0, t = fl(sqrt(c))) is on crossing c: exponent c+1 iff fl(t^2) >= c
            n[int(c) - lo] -= 1.0
        counts = np.concatenate(([above], n[:-1])) - n
        yield k[counts != 0.0], counts[counts != 0.0]
        above = n[-1]
    yield np.array([float(top)]), np.array([above])


def t_tail_z(q: QueueModel, x) -> float:
    """Normal-expectation form E[rho^{floor(t(Z)^2)+1}] with
    t(z) = sqrt(x/mu + (sigma z/(2 mu))^2) - sigma z/(2 mu); equals the series
    exactly (Abel summation over P(floor(t(Z)^2) >= n) = Phi((x-n mu)/(sigma
    sqrt(n)))), so the two implementations cross-check each other.

    It is the midpoint rule over the _QUAD_NODES nodes z_i = Phi^{-1}((i +
    0.5)/K), counted in exact arithmetic by _node_counts, with Phi from libm
    erfc, and fl(sqrt(k)) at the z = 0 tie; no node is built.  Phi is taken at
    the series' own arguments, so the forms differ by the quantization to 1/K
    and by the Phi mass beyond the end nodes, |z| = 5.026, left out (-12% of T
    at an exponential law, rho = 0.5, x = 100).  Exponents from `dead` on, where
    rho^e underflows, count as one.  The values are libm exp's, and their sum is
    rounded once, so numpy's CPU dispatch does not touch the bits."""
    check_nonnegative("x", x)
    mu = q.model.mean()
    a = _sigma(q) / (2.0 * mu)
    c = x / mu
    if c == math.inf:
        return 0.0  # t is +inf at every node
    log_rho = math.log(q.rho)
    dead = math.ceil(-746.0 / log_rho)  # e log(rho) <= -746 from here on
    w = a * np.array(_Z_ENDS)
    t = np.sqrt(c + w * w) - w
    top, low = (min(math.floor(min(e, dead)) + 1, dead) for e in (t * t).tolist())
    pairs = ((n, np.array([0.0 if e < -745.0 else math.exp(e) for e in (k * log_rho).tolist()]))
             for k, n in _node_counts(a, c, low, top))
    return _exact_dot(pairs) / _QUAD_NODES


def h_clt(q: QueueModel, x) -> float:
    return s_sum(q, x) + t_tail(q, x)


def subexp_sum_approx(model: IntegratedTailModel, n: int, x) -> float:
    """n F̄(max(0, x-(n-1)mu)), the one-big-jump surrogate for P(S_n > x)."""
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be a positive integer, got {n}")
    check_nonnegative("x", x)
    mu = model.mean()
    return n * tail_prob(model, max(0.0, x - (n - 1) * mu))


def approximation_grid(q: QueueModel, xs) -> list[ApproximationPoint]:
    """Every closed-form value at each x of xs (h_clt is None at infinite variance)."""
    s = [s_sum(q, x) for x in xs]
    try:
        t = t_tail_grid(q, xs)
    except UnsupportedModelError:
        t = [None] * len(xs)
    return [ApproximationPoint(
        x=float(x),
        heavy_traffic=heavy_traffic(q, x),
        heavy_tail=heavy_tail(q, x),
        h=sx + geometric_term(q, x),
        j=j_approx(q, x),
        h_clt=None if tx is None else sx + tx,
        geometric_term=geometric_term(q, x),
        m_of_x=big_m(q, x),
    ) for x, sx, tx in zip(xs, s, t)]


def approximation_point(q: QueueModel, x) -> ApproximationPoint:
    """Every closed-form value at one x: the one-point case of approximation_grid."""
    return approximation_grid(q, [x])[0]
