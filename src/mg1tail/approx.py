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
  replacing rho^{x/mu}, summed over a whole x-grid at once by t_tail_grid;
  t_tail_z evaluates the same quantity as a normal expectation
  E[rho^{floor(t(Z)^2)+1}] by deterministic quadrature, its node values
  summed exactly and rounded once;
* subexp_sum_approx:  the n-fold convolution surrogate n F̄(x-(n-1)mu).
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .distributions import IntegratedTailModel, QueueModel, tail_prob
from .errors import UnsupportedModelError, check_finite, check_nonnegative
from .kernels import keep_heap

# terms below this magnitude are skipped so summation order quirks at the
# subnormal boundary cannot leak into results
_TERM_FLOOR = 1e-300
_SERIES_TOL = 1e-12
# elements per (n, x) block of t_tail_grid's terms, which bounds its memory
_GRID_BLOCK = 1 << 14
# shorter grids add each x's terms in a Python loop, cheaper there than numpy
_GRID_MIN = 36


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
    """T(rho, x) at each x of xs: the series to the smallest N with rho^{N+1} < 1e-12
    (each later term is at most (1-rho) rho^n), its terms built once per (n, x) block,
    then each x's terms added in order by a compensated sum (Higham 2002, sec. 4.3):
    per x in a Python loop on grids shorter than _GRID_MIN, else once per n for all x."""
    for x in xs:
        check_nonnegative("x", x)
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    n_max = math.ceil(math.log(_SERIES_TOL) / math.log(rho))
    x = np.array(xs, dtype=float)
    total, comp, ys, ts, cs = (np.zeros(x.size) for _ in range(5))
    weight = (1.0 - rho) * rho
    rows = _GRID_BLOCK // max(x.size, 1) or 1
    for lo in range(1, n_max + 1, rows):
        n = np.arange(lo, min(lo + rows, n_max + 1), dtype=float)[:, None]
        # no warnings: z is +-inf on overflow or for a one-point law, NaN there at x = n mu
        with np.errstate(all="ignore"):
            z = (x - n * mu) / (sigma * np.sqrt(n)) / math.sqrt(2.0)
        weights = np.cumprod(np.concatenate(([weight], np.full(n.size - 1, rho))))
        weight = weights[-1] * rho
        # libm's erfc is exactly 2 at z <= -6, so its half is 1; at z >= 27 it is
        # below 5.3e-319, so the term falls under _TERM_FLOOR, as it does at NaN
        terms = np.where(z <= -6.0, 1.0, 0.0)
        live = (z > -6.0) & (z < 27.0)
        terms[live] = 0.5 * np.fromiter(map(math.erfc, z[live].tolist()), float)
        terms *= weights[:, None]
        if x.size < _GRID_MIN:
            for j in range(x.size):
                s, c = float(total[j]), float(comp[j])
                for term in terms[:, j].tolist():
                    if term >= _TERM_FLOOR:
                        y = term - c
                        t = s + y
                        c = (t - s) - y
                        s = t
                total[j], comp[j] = s, c
            continue
        # a skipped term leaves its x's total and compensation as they are
        for term, keep in zip(terms, terms >= _TERM_FLOOR):
            np.subtract(term, comp, out=ys)
            np.add(total, ys, out=ts)
            np.subtract(ts, total, out=cs)
            np.subtract(cs, ys, out=cs)
            np.copyto(comp, cs, where=keep)
            np.copyto(total, ts, where=keep)
    return total.tolist()


def t_tail(q: QueueModel, x) -> float:
    """T(rho, x) at one x: the one-point case of t_tail_grid."""
    return t_tail_grid(q, [x])[0]


# midpoint rule in the probability domain: u_i = (i+0.5)/K, z_i = Phi^{-1}(u_i);
# the outermost nodes sit at |z| = 5.03
_QUAD_NODES = 2_000_001
# crossings per chunk of the nodes t_tail_z evaluates first, which bounds its memory
_GUIDE_CROSSINGS = 1 << 13

# Cephes ndtri (Moshier 1989), which scipy.special.ndtri runs: a rational in
# y - 1/2 for y in (e^-2, 1 - e^-2], else one in 1/x, x = sqrt(-2 log y) for
# the nearer tail y, whose form for x < 8 (y > e^-32) alone is ported, as every
# node has x < 5.52.  np.polyval is Horner's rule, Cephes' polevl, bit for bit;
# the Q tables carry the leading 1 that Cephes' p1evl leaves out
_E2, _S2PI = 0.13533528323661269189, 2.50662827463100050242  # e^-2, sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)


def _log(x):
    """log of each element by libm, as Cephes takes it (np.log's vector loops
    may differ by an ulp)."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(y):
    """Phi^{-1}(y) in place, for every y in (e^-32, 1 - e^-32): Cephes ndtri's
    bits."""
    mid = (y > _E2) & (y <= 1.0 - _E2)
    v = y[mid] - 0.5
    w = v * v
    v += v * (w * np.polyval(_P0, w) / np.polyval(_Q0, w))
    tail = y[~mid]
    y[mid] = v * _S2PI
    # both tails at once: the nearer one is y below 1/2 and 1 - y above it
    x = np.sqrt(-2.0 * _log(np.minimum(tail, 1.0 - tail)))
    r = 1.0 / x
    x -= _log(x) / x
    x -= r * np.polyval(_P1, r) / np.polyval(_Q1, r)
    y[~mid] = np.copysign(x, tail - 0.5)


def _nodes(i, a, c, dead):
    """Rows index, w, t and exponent of the nodes at the indices i: z =
    Phi^{-1}((i + 0.5)/K) by _ndtri, w = a z, t = sqrt(c + w^2) - w and the
    exponent floor(t^2) + 1, capped at dead."""
    w = (i + 0.5) / _QUAD_NODES
    _ndtri(w)
    w *= a
    t = np.sqrt(c + w * w) - w
    return np.vstack((i, w, t, np.minimum(np.floor(t * t) + 1.0, dead)))


def _one_exponent(w0, t0, w1, t1, c, dead):
    """Whether the nodes between two evaluated ones at w0 <= w1 share one
    capped exponent (the bound is in t_tail_z)."""
    v = np.maximum(-w0, w1)
    d = (np.sqrt(c + v * v) + v) * 2.0**-50 + 2.0**-535
    least = np.maximum(np.maximum(t1 - d, -t0 - d), 0.0)
    most = np.maximum(d - t1, t0 + d)
    return (np.minimum(np.floor(least * least) + 1.0, dead)
            == np.minimum(np.floor(most * most) + 1.0, dead))


def _tally(nodes, a, c, dead):
    """The capped exponent of each run and its node count, in pairs of arrays,
    from the first of the evaluated nodes (columns of _nodes, in increasing
    order) up to the last, not included.  A gap between evaluated nodes is one
    run if no node lies inside, if its ends have one w, or if _one_exponent
    proves it; else it is split at its middle node and at the nodes next to
    its ends, as an end may sit on a crossing."""
    left, right = nodes[:, :-1], nodes[:, 1:]
    runs = []
    while True:
        n = right[0] - left[0]
        one = (n <= 1.0) | (left[1] == right[1]) | _one_exponent(*left[1:3], *right[1:3], c, dead)
        runs.append((left[3, one], n[one]))
        if one.all():
            return runs
        left, right, n = left[:, ~one], right[:, ~one], n[~one]
        inner = left[0, :, None] + np.stack((np.ones_like(n), np.floor(n / 2.0), n - 1.0), axis=1)
        inner = _nodes(inner.ravel(), a, c, dead).reshape(4, -1, 3)
        split = np.concatenate((left[:, :, None], inner, right[:, :, None]), axis=2)
        left, right = split[:, :, :-1].reshape(4, -1), split[:, :, 1:].reshape(4, -1)


def _crossing_nodes(k, a, c):
    """The estimated node index just before each crossing t^2 = k: t(w) =
    sqrt(k) at w = (c - k)/(2 sqrt(k)), and z = w/a is node K Phi(z) - 1/2."""
    z = (c - k) / (2.0 * np.sqrt(k)) / a * -math.sqrt(0.5)
    return np.floor(np.fromiter(map(math.erfc, z.tolist()), float, z.size)
                    * (0.5 * _QUAD_NODES) - 0.5)


def _guides(a, c, bottom, top):
    """Chunks, in node order, of the nodes to evaluate first: either side of
    each crossing t^2 = k, bottom <= k < top, _GUIDE_CROSSINGS at a time; or
    every node, where the crossings outnumber half the nodes."""
    if top - bottom > _QUAD_NODES // 2:
        for j in range(0, _QUAD_NODES, 2 * _GUIDE_CROSSINGS):
            yield np.arange(j, min(j + 2 * _GUIDE_CROSSINGS, _QUAD_NODES), dtype=float)
        return
    for k in range(top - 1, bottom - 1, -_GUIDE_CROSSINGS):
        i = _crossing_nodes(np.arange(k, max(k - _GUIDE_CROSSINGS, bottom - 1), -1.0), a, c)
        yield np.concatenate((i, i + 1.0))


def _exact_dot(counts, vals):
    """sum(counts * vals) rounded once, for whole counts below 2^26 and values
    below 2^996 in magnitude.  Veltkamp's split (Dekker 1971) cuts each value
    into two halves of at most 26 bits each, so every count times a half is
    exact, and math.fsum (Shewchuk 1997) rounds the sum of those products once;
    it takes one half's products at a time, which bounds the lists."""
    big = vals * 134217729.0  # 2^27 + 1
    hi = big - (big - vals)
    return math.fsum(itertools.chain.from_iterable(
        (counts * half).tolist() for half in (hi, vals - hi)))


def t_tail_z(q: QueueModel, x) -> float:
    """Normal-expectation form E[rho^{floor(t(Z)^2)+1}] with
    t(z) = sqrt(x/mu + (sigma z/(2 mu))^2) - sigma z/(2 mu); equals the series
    exactly (Abel summation over P(floor(t(Z)^2) >= n) = Phi((x-n mu)/(sigma
    sqrt(n)))), so the two implementations cross-check each other.  The result
    is the sum of the node values, rounded once, divided by _QUAD_NODES.

    No node table is kept: a node is built from its index where needed.  With
    w = fl(a z) and c = x/mu, t(w) = sqrt(c + w^2) - w falls as w grows, and
    t^2 = k at w = (c - k)/(2 sqrt(k)).  The nodes either side of each such
    crossing are evaluated first, and each gap between evaluated nodes is
    proved to hold one exponent (_tally), so the estimates steer only the work.
    Proof: by the standard model of rounding (Higham 2002, ch. 3, u = 2^-53),
    |fl(t(w)) - t(w)| <= 3.01 u s(w), s(w) = sqrt(c + w^2) + |w|, plus 2^-537
    where w^2 underflows.  Rounding is monotone and the nodes increase, so
    between evaluated nodes w lies in [w0, w1], t(w) in [t(w1), t(w0)] and s(w)
    is at most s at the end of larger |w|.  So fl(t) lies in [fl(t1) - d,
    fl(t0) + d], d = 2 gamma u s + 2^-535 with gamma = 4 (6.02 u s for the two
    ends, the rest for rounding d and t -+ d), and floor(fl(t t)) + 1 between
    its values at the least and the greatest |t| there.  Exponents from `dead`
    on, where rho^e underflows, count as one."""
    check_nonnegative("x", x)
    sigma = _sigma(q)
    mu = q.model.mean()
    rho = q.rho
    a = sigma / (2.0 * mu)
    c = x / mu
    if c == math.inf:
        return 0.0  # t is +inf at every node
    keep_heap(1 << 19)  # freed blocks up to 512 KiB then stay on the heap
    dead = float(math.ceil(-746.0 / math.log(rho)))  # e log(rho) <= -746 from here on
    ends = _nodes(np.array([0.0, _QUAD_NODES - 1.0]), a, c, dead)
    runs = [(ends[3, 1:], np.ones(1))]  # the last node
    last = ends[:, :1]
    for guide in _guides(a, c, int(ends[3, 1]), int(ends[3, 0])):
        i = np.unique(guide)
        i = i[(i > last[0, 0]) & (i < _QUAD_NODES - 1.0)]
        nodes = np.hstack((last, _nodes(i, a, c, dead)))
        runs += _tally(nodes, a, c, dead)
        last = nodes[:, -1:]
    runs += _tally(np.hstack((last, ends[:, 1:])), a, c, dead)
    expo, counts = map(np.concatenate, zip(*runs))
    del runs  # before np.unique's temporaries
    expo, at = np.unique(expo, return_inverse=True)
    counts = np.bincount(at, weights=counts)
    e = expo * math.log(rho)
    vals = np.exp(e)
    vals[e < -745.0] = 0.0
    return _exact_dot(counts, vals) / _QUAD_NODES


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
