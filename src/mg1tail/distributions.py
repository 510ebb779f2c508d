"""Service-related distribution models.

The central object is the integrated-tail distribution of the service time:
the stationary-excess law whose density is P(V > t)/EV.  All waiting-time
formulas downstream consume only this law's tail, mean, and variance, plus,
for power-law models, its tail index.

Variants:

* ``ParetoIntegratedTail(alpha)`` -- P(X > x) = 1 for x < 1 and x^{-(alpha-1)}
  for x >= 1, alpha > 2.  Specifies the integrated tail directly; the
  underlying service moments are not identified by it, so service-level
  accessors reject this variant.
* ``ExponentialIntegrated(rate)`` -- tail e^{-rate*x}; the integrated tail of
  an exponential service time is exponential with the same rate, which makes
  this the M/M/1 sanity model with closed-form answers.
* ``Lattice(h, mass)`` -- probability mass[j] on the point j*h.  Exists so
  convolution oracles and estimator-unbiasedness tests have exactly
  enumerable ground truth.

Each model owns its formulas side by side.  The scalar methods
(``tail_prob``, ``sample_x``, ``atom_prob``, ``mean``, ``variance``, and
``tail_index``/``service_moments`` where the model identifies them) return
Python floats; the closed-form approximations call them once per term.  The
vector methods (``quantile``, ``tail``, and ``atom`` on the lattice) use
numpy for the batch kernels.  The Pareto and exponential models keep two
forms of each formula, because one form cannot serve both: a 0-d numpy call
is ~20x slower than the libm one, and numpy's SIMD pow/exp differ from libm
by 1-2 ulp, which would change the deterministic tables.  Neither reason
holds for the lattice, whose two forms would be the same ``searchsorted``,
so its scalar methods read the vector ones.  There is no dispatch on the
model type here; ``IntegratedTailModel`` gives the defaults (no atoms, and
``UnsupportedModelError`` for a tail index or service moments the model does
not identify), and the module functions ``tail_prob``/``sample_x`` only check
their argument before calling the method.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import UnsupportedModelError, check_nonnegative, check_positive


@dataclass(frozen=True)
class ServiceMoments:
    """Raw moments of the underlying service time V."""

    ev1: float
    ev2: float
    ev3: float | None = None


class IntegratedTailModel:
    """Defaults for the integrated-tail models."""

    def atom_prob(self, v: float) -> float:
        """P(X = v); zero for the atomless variants."""
        return 0.0

    def tail_index(self) -> float:
        """The power alpha-1 governing the integrated tail; errors otherwise."""
        raise UnsupportedModelError("model has no regularly varying tail index")

    def service_moments(self) -> ServiceMoments:
        """Moments of the service time V itself (only identified for the
        exponential variant: V ~ Exp(rate))."""
        raise UnsupportedModelError(
            "service-time moments are only identified for the exponential variant"
        )


@dataclass(frozen=True)
class ParetoIntegratedTail(IntegratedTailModel):
    alpha: float

    def __post_init__(self):
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")

    def tail_prob(self, x: float) -> float:
        if x < 1.0:
            return 1.0
        return x ** (-(self.alpha - 1.0))

    def sample_x(self, u: float) -> float:
        return (1.0 - u) ** (-1.0 / (self.alpha - 1.0))

    def mean(self) -> float:
        a = self.alpha
        return (a - 1.0) / (a - 2.0)

    def variance(self) -> float:
        """math.inf marks the infinite-variance regime (2 < alpha <= 3)."""
        a = self.alpha
        if a <= 3.0:
            return math.inf
        ex2 = (a - 1.0) / (a - 3.0)
        m = (a - 1.0) / (a - 2.0)
        return ex2 - m * m

    def tail_index(self) -> float:
        return self.alpha - 1.0

    def quantile(self, u, out=None):
        out = np.subtract(1.0, u, out=out)
        return np.power(out, -1.0 / (self.alpha - 1.0), out=out)

    def tail(self, t, out=None):
        return np.power(np.maximum(t, 1.0, out=out), -(self.alpha - 1.0), out=out)


@dataclass(frozen=True)
class ExponentialIntegrated(IntegratedTailModel):
    rate: float

    def __post_init__(self):
        check_positive("rate", self.rate)

    def tail_prob(self, x: float) -> float:
        return math.exp(-self.rate * x)

    def sample_x(self, u: float) -> float:
        return -math.log1p(-u) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def service_moments(self) -> ServiceMoments:
        r = self.rate
        return ServiceMoments(ev1=1.0 / r, ev2=2.0 / r**2, ev3=6.0 / r**3)

    def quantile(self, u, out=None):
        out = np.log1p(np.negative(u, out=out), out=out)
        return np.divide(out, -self.rate, out=out)

    def tail(self, t, out=None):
        return np.exp(np.multiply(t, -self.rate, out=out), out=out)


class Lattice(IntegratedTailModel):
    """Mass vector over the points {0, h, 2h, ...}. Immutable after init."""

    def __init__(self, h: float, mass):
        if not 0 < h < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {h}")
        m = np.asarray(mass, dtype=np.float64)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("mass must be a nonempty 1-d vector")
        # written so that a NaN fails each check
        if not np.all(m >= 0):
            raise ValueError("mass entries must be nonnegative")
        if not abs(float(m.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"mass must sum to 1 within 1e-12, got {m.sum()!r}")
        self.h = float(h)
        self.mass = m.copy()
        self.mass.setflags(write=False)
        # suffix[j] = P(X >= j*h); one extra 0 so suffix[len] is valid.  Clipped
        # at 1, as the masses sum to 1 only within 1e-12: tail <= 1, cum >= 0
        self.suffix = np.minimum(np.concatenate([np.cumsum(m[::-1])[::-1], [0.0]]), 1.0)
        self.suffix.setflags(write=False)
        self.cum = 1.0 - self.suffix[1:]  # cum[j] = P(X <= j*h)
        self.cum.setflags(write=False)
        self.support = np.arange(m.size) * self.h
        self.support.setflags(write=False)

    def tail_prob(self, x: float) -> float:
        return float(self.tail(x))

    def sample_x(self, u: float) -> float:
        return float(self.quantile(u))

    def atom_prob(self, v: float) -> float:
        if math.isnan(v):
            raise ValueError("atom location must not be NaN")
        return float(self.atom(v))

    def mean(self) -> float:
        return float(np.sum(self.support * self.mass))

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.support - m) ** 2 * self.mass))

    def quantile(self, u, out=None):
        # u = cum[-1] = 1.0 would make searchsorted return size; "clip" maps
        # it to the top point (the kernels' uniforms stay below 1.0)
        idx = np.searchsorted(self.cum, u, side="right")
        return np.take(self.support, idx, out=out, mode="clip")

    def tail(self, t, out=None):
        # mass strictly above t; idx <= len(support), suffix's last index, so
        # "clip" changes no index and, unlike "raise", writes out= in place
        idx = np.searchsorted(self.support, t, side="right")
        return np.take(self.suffix, idx, out=out, mode="clip")

    def atom(self, v):
        # the last point at or below v (the first point when v lies below it)
        idx = np.maximum(np.searchsorted(self.support, v, side="right") - 1, 0)
        return np.where(self.support[idx] == v, self.mass[idx], 0.0)

    def __repr__(self):
        return f"Lattice(h={self.h}, points={self.mass.size})"

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.h == other.h
            and np.array_equal(self.mass, other.mass)
        )

    def __hash__(self):
        return hash((self.h, self.mass.tobytes()))


@dataclass(frozen=True)
class QueueModel:
    model: IntegratedTailModel
    rho: float

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie strictly in (0,1), got {self.rho}")


def tail_prob(model: IntegratedTailModel, x) -> float:
    """P(X > x) for the integrated-tail variable."""
    check_nonnegative("x", x)
    return model.tail_prob(x)


def sample_x(model: IntegratedTailModel, u: float) -> float:
    """The u-quantile of X; u near 1 probes the right tail."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0,1), got {u}")
    return model.sample_x(u)


# model kind -> its one parameter, how the error shows it, its constructor
_KINDS = {
    "pareto-it": ("alpha", "alpha=...", lambda v: ParetoIntegratedTail(alpha=float(v))),
    "exp": ("rate", "rate=...", lambda v: ExponentialIntegrated(rate=float(v))),
    "lattice": ("file", "file=PATH", lambda v: load_lattice_file(v)),
}


def parse_model(text: str) -> IntegratedTailModel:
    """Parse a model literal: pareto-it:alpha=3.5 | exp:rate=1.0 |
    lattice:file=PATH."""
    kind, _, rest = text.partition(":")
    params = []
    for piece in filter(None, rest.split(",")):
        key, _, val = piece.partition("=")
        if not val:
            raise ValueError(f"malformed model parameter {piece!r} in {text!r}")
        params.append((key.strip(), val.strip()))
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r} in {text!r}")
    key, shown, build = _KINDS[kind]
    if key not in dict(params):
        raise ValueError(f"{kind} needs {shown}, got {text!r}")
    if len(params) > 1:  # each kind takes its one parameter once
        name = next((k for k, _ in params if k != key), key)
        raise ValueError(f"{'repeated' if name == key else 'unknown'} model parameter "
                         f"{name!r} in {text!r}")
    return build(params[0][1])


def load_lattice_file(path: str) -> Lattice:
    """Two-column text file: support point and mass per line.  The spacing is
    inferred as an approximate common divisor of the support points."""
    pts = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"{path}:{line_no}: expected two columns")
            pts.append((float(cols[0]), float(cols[1])))
    if not pts:
        raise ValueError(f"{path}: no data rows")
    support = np.array([p[0] for p in pts])
    mass = np.array([p[1] for p in pts])
    if not np.all(support >= 0):  # NaN fails too
        raise ValueError(f"{path}: support points must be nonnegative")
    h = _infer_spacing(support)
    size = int(round(support.max() / h)) + 1
    full = np.zeros(size)
    for s, m in zip(support, mass):
        j = int(round(s / h))
        if abs(j * h - s) > 1e-9 * max(1.0, abs(s)):
            raise ValueError(f"{path}: point {s} is not on the inferred lattice h={h}")
        full[j] += m
    total = full.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"{path}: masses sum to {total}, expected 1")
    full /= total  # remove benign parse-level rounding before the 1e-12 gate
    return Lattice(h=h, mass=full)


def _infer_spacing(support: np.ndarray) -> float:
    """Approximate positive float GCD of the nonzero support points."""
    vals = [float(v) for v in support if v > 0]
    if not vals:
        raise ValueError("lattice support has no positive points")
    g = vals[0]
    for v in vals[1:]:
        a, b = max(g, v), min(g, v)
        while b > 1e-9 * vals[0]:
            a, b = b, a - math.floor(a / b + 1e-12) * b
        g = a
    return g
