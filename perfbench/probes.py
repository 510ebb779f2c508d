"""Per-layer probes: fixed-size calls into one layer at a time.

Every probe looks its target up when it runs.  When a later version of the
package no longer has that target, the probe's metrics are reported absent
instead of failing the run.  Micro-timings are the minimum of a few repeats;
per-draw figures divide by the expected number of uniforms a replication
consumes, 1 + E[max(N-1, 0)] for the conditional kernel and 1 + E[N] for the
crude one, with N geometric of mean rho/(1-rho).
"""

import importlib
import math
import time
import tracemalloc

import numpy as np

import workloads as W
from tracer import Tracer

BATCH = 10_000  # replications per kernel call, as in mg1tail.mc
KERNEL_UNIFORMS = 2_000_000  # expected uniforms per timed kernel sweep


class Absent(Exception):
    """The probe's target is not in the package."""


class CheckFailed(Exception):
    """The probe ran, but its outputs failed their checks."""

    def __init__(self, problems, metrics):
        super().__init__("; ".join(problems))
        self.problems = problems
        self.metrics = metrics


def lookup(path):
    modname, _, attr = path.rpartition(".")
    try:
        return getattr(importlib.import_module(modname), attr)
    except (ImportError, AttributeError):
        raise Absent(path) from None


def best_of(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def per_call(fn, block_s=0.05, repeats=5):
    """Seconds per call: calls are grouped in blocks of at least block_s."""
    k = 1
    while best_of(lambda: [fn() for _ in range(k)], 1) < block_s:
        k *= 2
    return best_of(lambda: [fn() for _ in range(k)], repeats) / k


def _models():
    mg = importlib.import_module("mg1tail")
    pareto = mg.ParetoIntegratedTail(alpha=W.SWEEP_ALPHA)
    return {
        "pareto": pareto,
        "exp": mg.ExponentialIntegrated(rate=1.0),
        "lattice": mg.lattice_brackets(pareto, 0.25, 50.0)[1],
    }


def _uniforms_per_rep(rho, conditional):
    mean_n = rho / (1.0 - rho)
    return 1.0 + (mean_n - rho if conditional else mean_n)


def probe_rng(seed, workdir):
    states_np = lookup("mg1tail.rng.substream_states_np")
    uniforms_np = lookup("mg1tail.rng.uniforms_np")
    n = 1_000_000
    states = np.repeat(states_np(seed, np.zeros(1, dtype=np.uint64)), n)
    j = np.arange(n, dtype=np.uint64)
    secs = best_of(lambda: uniforms_np(states, j), 7)
    return {"rng.ns_per_uniform": (secs / n * 1e9, "ns")}


AK_CASES = (
    ("pareto", 0.8), ("pareto", 0.95), ("pareto", 0.99), ("exp", 0.9), ("lattice", 0.8),
)


def _kernel_ns(kernel, model, rho, seed, conditional):
    per_rep = _uniforms_per_rep(rho, conditional)
    batches = max(1, math.ceil(KERNEL_UNIFORMS / (BATCH * per_rep)))

    def sweep():
        for b in range(batches):
            kernel(model, rho, 10.0, seed, b * BATCH, BATCH)

    return best_of(sweep) / (batches * BATCH * per_rep) * 1e9


def probe_kernels(seed, workdir):
    ak_batch = lookup("mg1tail.kernels.ak_batch")
    crude_batch = lookup("mg1tail.kernels.crude_batch")
    models = _models()
    out = {}
    for kind, rho in AK_CASES:
        ns = _kernel_ns(ak_batch, models[kind], rho, seed, True)
        out[f"kernels.ak_ns_per_draw.{kind}-rho{rho:g}"] = (ns, "ns")
    ns = _kernel_ns(crude_batch, models["pareto"], 0.95, seed, False)
    out["kernels.crude_ns_per_draw.pareto-rho0.95"] = (ns, "ns")
    tracemalloc.start()
    try:
        ak_batch(models["pareto"], 0.99, 10.0, seed, 0, BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws = BATCH * _uniforms_per_rep(0.99, True)
    out["kernels.ak_peak_bytes_per_draw.pareto-rho0.99"] = (peak / draws, "B")
    return out


def probe_ak_estimate(seed, workdir):
    """Self time of one ak_estimate call (M/M/1, rho=0.9, tail 1e-3, about
    340 batches): the estimator's own per-batch work between kernel calls."""
    lookup("mg1tail.ak_estimate")
    lookup("mg1tail.kernels.ak_batch")
    mg = importlib.import_module("mg1tail")
    q = mg.QueueModel(model=mg.ExponentialIntegrated(rate=1.0), rho=0.9)
    x = math.log(0.9 / 1e-3) / 0.1
    targets = (("mg1tail", "ak_estimate", "mc", False),
               ("mg1tail.kernels", "ak_batch", "kernels", False))
    with Tracer(targets) as tr:
        mg.ak_estimate(q, x, target_rel_err=0.05, seed=seed)
    return {"mc.ak_estimate.self_s": (tr.by_name()["mg1tail.ak_estimate"]["self_s"], "s")}


def probe_pk(seed, workdir):
    """The six criterion-7 brackets: seconds per call and relative width.
    Each bracket is checked as in the exact-refs workload."""
    lookup("mg1tail.pk_truncated")
    out, problems = {}, []
    for (p, frac), op in zip(W.PK_POINTS, W.exact_refs_ops(seed, workdir, W.load_refs())):
        t0 = time.perf_counter()
        res = op.call()
        secs = time.perf_counter() - t0
        label = W.pk_label(p, frac)
        out[f"mc.pk_truncated_s.{label}"] = (secs, "s")
        out[f"mc.pk_rel_width.{label}"] = ((res.upper - res.lower) / res.value, "1")
        problems += [f"{label}: {msg}" for msg in op.check(res)]
    if problems:
        raise CheckFailed(problems, out)
    return out


def probe_convolve(seed, workdir):
    """Criterion-5 shape (n = 10, alpha = 3.5, 25 x) on both brackets, at
    h = 0.1: at the test's h = 0.05 one call takes about a minute on a 2-core
    Xeon, as np.convolve slows sharply past about 10^4 points."""
    convolve_tail_grid = lookup("mg1tail.convolve_tail_grid")
    lattice_brackets = lookup("mg1tail.lattice_brackets")
    mu = W.pareto_mean(W.SWEEP_ALPHA)
    lo = max(50.0, 5.0 * 10 * mu)
    xs = np.geomspace(lo, 8.0 * lo, 25)
    mg = importlib.import_module("mg1tail")
    lats = lattice_brackets(mg.ParetoIntegratedTail(alpha=W.SWEEP_ALPHA), 0.1, float(xs.max()) + 0.1)
    secs = best_of(lambda: [convolve_tail_grid(lat, 10, xs) for lat in lats])
    return {"mc.convolve_tail_grid_s.n10-h0.1": (secs, "s")}


def probe_approx(seed, workdir):
    mg = importlib.import_module("mg1tail")
    t_tail_z = lookup("mg1tail.t_tail_z")
    t_tail = lookup("mg1tail.t_tail")
    s_sum = lookup("mg1tail.s_sum")
    approximation_point = lookup("mg1tail.approximation_point")
    model = mg.ParetoIntegratedTail(alpha=W.SWEEP_ALPHA)
    q8 = mg.QueueModel(model=model, rho=0.8)
    q99 = mg.QueueModel(model=model, rho=0.99)
    x99 = 4.0 * W.x_hat(W.SWEEP_ALPHA, 0.99)
    return {
        "approx.t_tail_z_s": (best_of(lambda: t_tail_z(q8, 10.0)), "s"),
        "approx.t_tail_s.rho0.99": (per_call(lambda: t_tail(q99, 100.0)), "s"),
        "approx.s_sum_s.rho0.99": (per_call(lambda: s_sum(q99, x99)), "s"),
        "approx.approximation_point_s.rho0.99": (per_call(lambda: approximation_point(q99, x99)), "s"),
    }


def probe_transition(seed, workdir):
    crossing_point = lookup("mg1tail.crossing_point")
    mg = importlib.import_module("mg1tail")
    q = mg.QueueModel(model=mg.ParetoIntegratedTail(alpha=W.SWEEP_ALPHA), rho=0.99)
    return {"transition.crossing_point_s": (per_call(lambda: crossing_point(q)), "s")}


def probe_distributions(seed, workdir):
    tail_prob = lookup("mg1tail.tail_prob")
    model = _models()["pareto"]
    return {"distributions.tail_prob_ns.pareto": (per_call(lambda: tail_prob(model, 10.0)) * 1e9, "ns")}


def probe_cli(seed, workdir):
    """Self time of ``cli.main`` over the curves workload's rho=0.8 table."""
    lookup("mg1tail.cli.main")
    op = W.curves_ops(seed, workdir, None)[0]
    best = math.inf
    for _ in range(3):
        with Tracer() as tr:
            op.call()
        best = min(best, tr.by_name()["cli.main"]["self_s"])
    return {"cli.self_s.curves-rho0.8": (best, "s")}


PROBES = (
    (("rng.ns_per_uniform",), probe_rng),
    (tuple(f"kernels.ak_ns_per_draw.{k}-rho{r:g}" for k, r in AK_CASES)
     + ("kernels.crude_ns_per_draw.pareto-rho0.95",
        "kernels.ak_peak_bytes_per_draw.pareto-rho0.99"), probe_kernels),
    (("mc.ak_estimate.self_s",), probe_ak_estimate),
    (tuple(f"mc.{m}.{W.pk_label(p, f)}" for p, f in W.PK_POINTS
           for m in ("pk_truncated_s", "pk_rel_width")), probe_pk),
    (("mc.convolve_tail_grid_s.n10-h0.1",), probe_convolve),
    (("approx.t_tail_z_s", "approx.t_tail_s.rho0.99", "approx.s_sum_s.rho0.99",
      "approx.approximation_point_s.rho0.99"), probe_approx),
    (("transition.crossing_point_s",), probe_transition),
    (("distributions.tail_prob_ns.pareto",), probe_distributions),
    (("cli.self_s.curves-rho0.8",), probe_cli),
)


def run_all(seed, workdir):
    """Returns (metrics, absent metric names, outcomes): metrics maps a name
    to (value, unit); outcomes lists (probe, problems) for each probe whose
    target exists, problems being empty when it ran."""
    metrics, absent, outcomes = {}, [], []
    for names, fn in PROBES:
        try:
            got = fn(seed, workdir)
        except Absent as e:
            absent.extend(f"{n} (no {e})" for n in names)
            continue
        except CheckFailed as e:
            outcomes.append((fn.__name__, e.problems))
            metrics.update(e.metrics)
            continue
        except Exception as e:  # a probe that raises is a failed operation
            outcomes.append((fn.__name__, [f"{type(e).__name__}: {e}"]))
            continue
        outcomes.append((fn.__name__, []))
        metrics.update(got)
    return metrics, absent, outcomes
