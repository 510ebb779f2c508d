"""Ground truth for the waiting-time tail: exact lattice evaluation of the
Pollaczek-Khinchine formula and two Monte Carlo estimators.

The waiting time is a compound geometric sum: W = X_1 + ... + X_N with
P(N = n) = (1-rho) rho^n, n >= 0.  Its tail P(W > x) is evaluated three ways:

* ``pk_truncated`` -- bracketed enclosure: the model is sandwiched between
  two lattice distributions (mass of ((k-1)h, kh] moved to kh for the upper
  bracket and to (k-1)h for the lower), each evaluated exactly by the tail
  (defective-renewal) form of Panjer's recursion,
  T_k = rho/(1 - rho f_0) (Fbar_k + sum_{j=1..k} f_j T_{k-j}), with
  T_k = P(W > kh), f the lattice pmf and Fbar_k = P(X > kh).  One pass over
  k < m gives P(W > x) = T_{m-1} with no series and no truncation term.
  Every term is positive, so there is no cancellation: the enclosure is
  rigorous up to ordinary float rounding of positive sums (no interval
  arithmetic), so treat the brackets as sharp only to that resolution;
* ``crude_mc`` -- plain indicator sampling of W;
* ``ak_estimate`` -- the conditional (max-hiding) estimator with a
  relative-error stopping rule; on lattice models an atom correction keeps it
  exactly unbiased under ties.  ``ak_estimate_grid`` runs it at every x of a
  grid from one shared set of draws.

Both Monte Carlo estimators draw up to ``CALL_BATCHES`` batches of 10^4
replications per kernel call; every estimate is that of one batch per call.

The absorbing cap is exact: summands are nonnegative, so once a partial sum
exceeds a cap C > x it can never drop back, and P(S_n > x) is unchanged by
lumping all mass >= C at C.
"""

from dataclasses import dataclass
from enum import Enum
import math
import statistics

import numpy as np

from . import kernels
from .distributions import (
    IntegratedTailModel,
    Lattice,
    QueueModel,
    tail_prob,
)
from .errors import (ResourceBudgetError, check_finite, check_integer, check_nonnegative,
                     check_positive)
from .geom import GeomModel

BATCH_SIZE = 10_000
MIN_SAMPLES_BEFORE_CHECK = 100_000
# batches drawn per kernel call: a call keeps 36 to 39 bytes per replication
# live (crude: 26 to 28), ~1.5 MiB for 4 * 10^4 next to the 1 MiB chunk buffers
CALL_BATCHES = 4
# convolution budget: product of convolution count and lattice size
_CELL_BUDGET = 200_000_000
# recursion budget: multiply-adds of both bracket passes, about m*m
_MAC_BUDGET = 4_000_000_000
# longest slice per np.dot: OpenBLAS threads ddot above 10**4 elements, and a
# threaded dot sums in another order, so longer dots go slice by slice
_DOT_MAX = 8192


class Method(Enum):
    CRUDE = "crude"
    ASMUSSEN_KROESE = "asmussen-kroese"


@dataclass(frozen=True)
class SimulationEstimate:
    estimate: float
    half_width: float
    rel_err: float
    n_samples: int
    seed: int
    method: Method
    converged: bool = True


@dataclass(frozen=True)
class PkExact:
    value: float
    lattice_spacing: float
    lower: float
    upper: float


def _z_value(confidence: float) -> float:
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    return statistics.NormalDist().inv_cdf(0.5 * (1.0 + confidence))


def _cap_index(x: float, h: float) -> int:
    """Smallest m with m*h > x (float-robust), for x >= 0 and a finite h > 0."""
    if not 0 < h < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {h}")
    m = int(math.floor(x / h)) + 1
    while m > 0 and (m - 1) * h > x:
        m -= 1
    while m * h <= x:
        m += 1
    return m


def lattice_brackets(model: IntegratedTailModel, h: float, cap: float):
    """Sandwich a model between two lattice laws with spacing h: the upper
    law rounds X up to the lattice, the lower rounds down; mass beyond
    ``cap`` is lumped at the top point."""
    if isinstance(model, Lattice):
        raise ValueError("model is already a lattice")
    check_nonnegative("cap", cap)
    check_finite("cap", cap)
    m = _cap_index(cap, h)
    tails = np.array([tail_prob(model, k * h) for k in range(m + 1)])
    upper = np.zeros(m + 1)
    upper[1:m] = tails[0 : m - 1] - tails[1:m]
    upper[m] = tails[m - 1]
    lower = np.zeros(m + 1)
    lower[0:m] = tails[0:m] - tails[1 : m + 1]
    lower[m] = tails[m]
    return Lattice(h=h, mass=lower), Lattice(h=h, mass=upper)


def _capped_pmf(mass: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m + 1)
    out[: mass.size] = mass[: m + 1]
    out[m] += mass[m + 1 :].sum()
    return out


def convolve_tail_grid(dist: Lattice, n: int, xs) -> np.ndarray:
    """Exact P(S_n > x) for every x in xs by one iterated convolution with an
    absorbing cap above max(xs)."""
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be a positive integer, got {n}")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if not (xs < math.inf).all():
        raise ValueError("x must not be NaN or +inf")
    if n * dist.mass.size > _CELL_BUDGET:
        raise ResourceBudgetError(
            f"convolution needs {n * dist.mass.size} lattice cells, "
            f"budget is {_CELL_BUDGET}"
        )
    x_max = float(xs.max(initial=-math.inf))  # an empty grid returns here
    if x_max < 0:
        return np.ones_like(xs)
    m = _cap_index(x_max, dist.h)
    pmf = _capped_pmf(dist.mass, m)
    cur = pmf.copy()
    for _ in range(int(n) - 1):
        cur = np.convolve(cur, pmf)
        if cur.size > m + 1:
            cur[m] += cur[m + 1 :].sum()
            cur = cur[: m + 1]
    suffix = np.cumsum(cur[::-1])[::-1]
    # each x's cap index, the lookup of Lattice.tail; k <= m as x <= x_max
    k = np.searchsorted(np.arange(m + 1) * dist.h, xs, side="right")
    return np.where(xs < 0, 1.0, suffix[k])


def convolve_tail(dist: Lattice, n: int, x) -> float:
    """Exact P(S_n > x) by iterated discrete convolution."""
    return float(convolve_tail_grid(dist, n, [x])[0])


def _renewal_tail(pmf: np.ndarray, rho: float) -> float:
    """P(W > (m-1)h) for the lattice pmf f capped at index m = pmf.size - 1,
    by T_k = rho/(1 - rho f_0) (Fbar_k + sum_{j=1..k} f_j T_{k-j}), k < m."""
    m = pmf.size - 1
    fbar = np.cumsum(pmf[::-1])[::-1][1:]  # fbar[k] = sum_{j>k} f_j
    f_rev = np.ascontiguousarray(pmf[m - 1 : 0 : -1])  # f_{m-1}, ..., f_1
    c = rho / (1.0 - rho * pmf[0])
    t = np.empty(m)
    for k in range(m):
        f, tk = f_rev[m - 1 - k :], t[:k]
        acc = 0.0
        for lo in range(0, k, _DOT_MAX):
            acc += np.dot(f[lo : lo + _DOT_MAX], tk[lo : lo + _DOT_MAX])
        t[k] = c * (fbar[k] + acc)
    return t[m - 1]


def pk_truncated(q: QueueModel, x, tol: float = 1e-10, h: float = 0.05) -> PkExact:
    """Bracketed evaluation of P(W > x); ``value`` is the bracket midpoint,
    ``lower``/``upper`` the rigorous enclosure.  A lattice model is its own
    bracket, so lower == upper.  ``tol`` must be positive but does not change
    the result: the recursion has no truncation term."""
    check_nonnegative("x", x)
    check_finite("x", x)
    check_positive("tol", tol)
    lattice = isinstance(q.model, Lattice)
    if lattice:
        h = q.model.h
    m = _cap_index(x, h)
    if m * m > _MAC_BUDGET:
        raise ResourceBudgetError(
            f"recursion needs {m * m} multiply-adds, budget is {_MAC_BUDGET}"
        )
    brackets = (q.model,) if lattice else lattice_brackets(q.model, h, x)
    tails = [_renewal_tail(_capped_pmf(b.mass, m), q.rho) for b in brackets]
    lo, up = tails[0], tails[-1]
    return PkExact(value=0.5 * (lo + up), lattice_spacing=h, lower=lo, upper=up)


def _estimate(mean, half, n, seed, method, converged=True) -> SimulationEstimate:
    rel_err = half / mean if mean > 0 else math.inf
    return SimulationEstimate(mean, half, rel_err, n, seed, method, converged)


def _crude(model, rho, x, n_samples, seed, n_offset) -> SimulationEstimate:
    if not n_samples >= 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    n_samples = check_integer("n_samples", n_samples)
    seed = check_integer("seed", seed)
    check_nonnegative("x", x)
    check_finite("x", x)
    # the hits are whole numbers, so their float sum is exact in any grouping
    step = CALL_BATCHES * BATCH_SIZE
    hits = 0.0
    for rep0 in range(0, n_samples, step):
        nb = min(step, n_samples - rep0)
        b1, _ = kernels.crude_batch(model, rho, x, seed, rep0, nb, n_offset)
        hits += b1
    est = hits / n_samples
    half = _z_value(0.99) * math.sqrt(est * (1.0 - est) / n_samples)
    return _estimate(est, half, n_samples, seed, Method.CRUDE)


def crude_mc(q: QueueModel, x, n_samples: int, seed: int = 0) -> SimulationEstimate:
    return _crude(q.model, q.rho, x, n_samples, seed, 0)


def geom_crude_mc(g: GeomModel, x, n_samples: int, seed: int = 0) -> SimulationEstimate:
    """Crude sampling of the geometric sum with count >= 1 (same kernels as
    the queue-side estimator, count offset by one)."""
    return _crude(g.y_model, 1.0 - g.p, x, n_samples, seed, 1)


def _mean_half(s1: float, s2: float, n: int, z: float):
    mean = s1 / n
    var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
    return mean, z * math.sqrt(var / n)


def ak_estimate_grid(
    q: QueueModel,
    xs,
    target_rel_err: float = 0.05,
    confidence: float = 0.99,
    seed: int = 0,
    max_samples: int = 50_000_000,
) -> list[SimulationEstimate]:
    """``ak_estimate`` at every x of ``xs`` from one shared set of draws: each
    batch of replications is drawn once for all x that have not stopped yet,
    and each x keeps its own sums, stopping rule and sample count, so its
    estimate equals the single-x call field for field.

    Up to ``CALL_BATCHES`` batches are drawn per kernel call and used one at
    a time, which changes no estimate: none is drawn past the first check
    before that check runs, and later at most one batch in 8 is drawn ahead
    of the stopping rule."""
    xs = list(xs)
    for x in xs:
        check_nonnegative("x", x)
        check_finite("x", x)
    check_positive("target_rel_err", target_rel_err)
    if not max_samples >= 2:
        raise ValueError(f"max_samples must be at least 2, got {max_samples}")
    max_samples = check_integer("max_samples", max_samples)
    seed = check_integer("seed", seed)
    z = _z_value(confidence)
    s1 = [0.0] * len(xs)
    s2 = [0.0] * len(xs)
    n = [0] * len(xs)
    converged = [False] * len(xs)
    active = list(range(len(xs)))
    first_check = -(-MIN_SAMPLES_BEFORE_CHECK // BATCH_SIZE)
    ahead = []  # drawn batches not yet used, the next one last: {x index: sums}
    done = 0
    while active and done < max_samples:
        if not ahead:
            batches = done // BATCH_SIZE
            k = min(CALL_BATCHES, max(1, first_check - batches, batches // 8))
            nreps = min(k * BATCH_SIZE, max_samples - done)
            runs = kernels.ak_batch(q.model, q.rho, [xs[i] for i in active], seed, done,
                                    nreps, size=BATCH_SIZE)
            ahead = [dict(zip(active, run)) for run in reversed(runs)]
        sums = ahead.pop()
        done += min(BATCH_SIZE, max_samples - done)
        still = []
        for i in active:
            b1, b2 = sums[i]
            s1[i] += b1
            s2[i] += b2
            n[i] = done
            if done >= MIN_SAMPLES_BEFORE_CHECK:
                mean, half = _mean_half(s1[i], s2[i], done, z)
                if mean > 0.0 and half <= target_rel_err * mean:
                    converged[i] = True
                    continue
            still.append(i)
        active = still
    return [
        _estimate(*_mean_half(s1[i], s2[i], n[i], z), n[i], seed,
                  Method.ASMUSSEN_KROESE, converged[i])
        for i in range(len(xs))
    ]


def ak_estimate(
    q: QueueModel,
    x,
    target_rel_err: float = 0.05,
    confidence: float = 0.99,
    seed: int = 0,
    max_samples: int = 50_000_000,
) -> SimulationEstimate:
    """Conditional-estimator run with a relative-error stopping rule: batches
    of 10^4 replications, first convergence check after 10^5, stop when the
    CI half-width at the given confidence is within target_rel_err of the
    estimate, or flag non-convergence at max_samples.  Batches are drawn up
    to ``CALL_BATCHES`` at a time, which changes no estimate."""
    return ak_estimate_grid(q, [x], target_rel_err, confidence, seed, max_samples)[0]
