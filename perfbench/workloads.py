"""The four benchmark workloads: their inputs, their operations and the checks
that decide whether each operation's output is correct.

An operation is one CLI call, one estimator call or one oracle call.  It fails
when it raises, when a CLI call exits nonzero, when a Monte Carlo result did
not converge, or when its output disagrees with a reference.  End-to-end
operations use only ``mg1tail.cli.main`` and top-level ``mg1tail`` exports,
looked up at call time so that a traced run can wrap them.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mg1tail
import mg1tail.cli

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

SWEEP_ALPHA = 3.5
SWEEP_REL_ERR = 0.05
GEOM_ALPHA = 4.0  # summand tail exponent beta_Y = alpha - 1 = 3
MM1_RHO = 0.9
MM1_TAIL = 1e-4
GEOM_P = 0.05
GEOM_SAMPLES = 2_000_000
PK_H = 0.05
PK_TOL = 1e-10
PK_POINTS = tuple((p, f) for p in (0.1, 0.05) for f in (0.5, 1.0, 2.0))
CURVE_RHOS = (0.8, 0.95, 0.99)
CURVE_POINTS = 400
T_TAIL_RHOS = (0.5, 0.8, 0.95)
T_TAIL_XS = tuple(float(x) for x in np.geomspace(0.5, 100.0, 20))
T_TAIL_TOL = 1e-6
# a Monte Carlo value mismatches when it lies more than this many combined
# half-widths away from its reference
MISMATCH_WIDTHS = 3.0
# exact brackets are deterministic; allow float-rounding drift only
BRACKET_SLACK = 1e-9


# --- closed forms computed here, independently of the program -------------


def pareto_mean(alpha):
    """Mean of the integrated-tail Pareto law P(X > x) = x^{-(alpha-1)}."""
    return 1.0 + 1.0 / (alpha - 2.0)


def x_hat(alpha, rho):
    """Regime threshold kappa (1-rho)^{-1} log (1-rho)^{-1}, kappa = mu (alpha-2)."""
    inv = 1.0 / (1.0 - rho)
    return pareto_mean(alpha) * (alpha - 2.0) * inv * math.log(inv)


def geom_y(alpha, p):
    """Geometric-sum threshold y(p) = tau p^{-1} log(1/p), tau = (beta-1) mu."""
    return (alpha - 2.0) * pareto_mean(alpha) / p * math.log(1.0 / p)


def sweep_mc_specs():
    """(rho, x_max) of the three simulated sweeps at alpha = 3.5."""
    return (
        (0.8, 80.0),
        (0.95, x_hat(SWEEP_ALPHA, 0.95)),
        (0.99, 0.5 * x_hat(SWEEP_ALPHA, 0.99)),
    )


def mm1_x():
    """x at which the M/M/1 tail rho e^{-(1-rho) x} equals MM1_TAIL."""
    return math.log(MM1_RHO / MM1_TAIL) / (1.0 - MM1_RHO)


def pk_label(p, frac):
    return f"p{p:g}-x{frac:g}y"


def derive_seed(seed, k):
    """Program seed number k of benchmark seed ``seed``."""
    return (seed * 1_000_003 + k) % 2**31


# --- checks ---------------------------------------------------------------


def mismatch(value, half_width, ref, ref_half_width):
    """True when |value - ref| exceeds MISMATCH_WIDTHS root-sum-square
    half-widths."""
    return abs(value - ref) > MISMATCH_WIDTHS * math.hypot(half_width, ref_half_width)


def check_mc_rows(rows, refs, rel_err_target):
    """Problems of simulated sweep rows against the stored references."""
    problems = []
    if len(rows) != len(refs):
        return [f"{len(rows)} rows, expected {len(refs)}"]
    for row, ref in zip(rows, refs):
        x, est, rel = row["x"], row["mc_estimate"], row["mc_rel_err"]
        if abs(x - ref["x"]) > 1e-12 * ref["x"]:
            problems.append(f"x {x!r} != reference x {ref['x']!r}")
            continue
        if not rel <= rel_err_target:
            problems.append(f"x={x:.6g}: not converged (rel_err {rel:.4g})")
        if mismatch(est, rel * est, ref["estimate"], ref["half_width"]):
            problems.append(
                f"x={x:.6g}: estimate {est:.6g} vs reference "
                f"{ref['estimate']:.6g} +- {ref['half_width']:.3g}"
            )
    return problems


def check_table_rows(rows, rho, alpha):
    """Closed-form columns of a sweep table, recomputed here."""
    problems = []
    mu = pareto_mean(alpha)
    for row in rows:
        x = row["x"]
        ht = math.exp(-(1.0 - rho) * x / mu)
        tail = rho / (1.0 - rho) * (x ** (-(alpha - 1.0)) if x >= 1.0 else 1.0)
        if not math.isclose(row["heavy_traffic"], ht, rel_tol=1e-12):
            problems.append(f"x={x:.6g}: heavy_traffic {row['heavy_traffic']!r} != {ht!r}")
        if not math.isclose(row["heavy_tail"], tail, rel_tol=1e-12):
            problems.append(f"x={x:.6g}: heavy_tail {row['heavy_tail']!r} != {tail!r}")
        for key in ("h", "j", "h_clt"):
            v = row.get(key)
            if not (isinstance(v, float) and math.isfinite(v) and v >= 0.0):
                problems.append(f"x={x:.6g}: {key} = {v!r}")
    return problems


def check_bracket(res, ref):
    """A PK bracket must hold its own value, overlap the stored seed-commit
    bracket (both enclose the same number) and be no wider than it."""
    lo, up, val = res.lower, res.upper, res.value
    problems = []
    if not lo <= val <= up:
        problems.append(f"value {val!r} outside [{lo!r}, {up!r}]")
    slack = BRACKET_SLACK * ref["upper"]
    if up < ref["lower"] - slack or lo > ref["upper"] + slack:
        problems.append(
            f"bracket [{lo:.6g}, {up:.6g}] misses reference "
            f"[{ref['lower']:.6g}, {ref['upper']:.6g}]"
        )
    width = (up - lo) / val
    if width > ref["rel_width"] * (1.0 + BRACKET_SLACK):
        problems.append(f"relative width {width:.6g} > seed-commit {ref['rel_width']:.6g}")
    return problems


# --- outputs and digests --------------------------------------------------


def estimate_fields(est):
    """The fields of a SimulationEstimate that a seed fixes."""
    method = getattr(est, "method", None)
    return [
        est.estimate,
        est.half_width,
        est.rel_err,
        est.n_samples,
        est.seed,
        getattr(method, "value", method),
        est.converged,
    ]


def bracket_fields(res):
    return [res.value, res.lower, res.upper, res.lattice_spacing]


def digest(obj):
    if isinstance(obj, bytes):
        data = obj
    else:
        data = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class CliResult:
    code: int
    stdout: str
    file_bytes: bytes
    estimates: list


def run_cli(argv, out_path=None, tap=False):
    """In-process ``mg1tail.cli.main(argv)``.  With ``tap`` the estimates the
    CLI computes are collected through a pass-through of
    ``mg1tail.cli.ak_estimate`` (a few calls; no timing)."""
    estimates = []
    saved = getattr(mg1tail.cli, "ak_estimate", None) if tap else None
    if saved is not None:

        def tapped(*args, **kwargs):
            est = saved(*args, **kwargs)
            estimates.append(est)
            return est

        mg1tail.cli.ak_estimate = tapped
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = mg1tail.cli.main(argv)
    finally:
        if saved is not None:
            mg1tail.cli.ak_estimate = saved
    file_bytes = Path(out_path).read_bytes() if out_path and code == 0 else b""
    return CliResult(code, buf.getvalue(), file_bytes, estimates)


def cli_digest(res):
    return digest(res.stdout.encode() + b"\0" + res.file_bytes)


def parse_csv_table(data):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        row = {}
        for k, v in rec.items():
            try:
                row[k] = float(v)
            except ValueError:
                row[k] = v
        rows.append(row)
    return rows


# --- operations -----------------------------------------------------------


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``check`` lists problems
    with its result, ``fingerprint`` is the sha256 recorded for determinism
    and ``samples`` the Monte Carlo samples it drew."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], str]
    samples: Callable[[Any], int] = lambda res: 0


def _cli_op(name, argv, out_path, check, tap=False, samples=lambda res: 0):
    def checked(res):
        if res.code != 0:
            return [f"exit code {res.code}"]
        return check(res)

    return Op(
        name,
        lambda: run_cli(argv, out_path, tap=tap),
        checked,
        cli_digest,
        samples,
    )


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def sweep_mc_ops(seed, workdir, refs):
    ops = []
    for i, (rho, x_max) in enumerate(sweep_mc_specs()):
        out = workdir / f"sweep-mc-rho{rho:g}.json"
        argv = [
            "sweep", "--dist", f"pareto-it:alpha={SWEEP_ALPHA:g}", "--rho", repr(rho),
            "--x-min", "1", "--x-max", repr(x_max), "--points", "10", "--log-grid",
            "--simulate", "--rel-err", repr(SWEEP_REL_ERR),
            "--seed", str(derive_seed(seed, i)), "--format", "json", "--out", str(out),
        ]
        ref_rows = refs["sweep_mc"][f"rho{rho:g}"]

        def check(res, ref_rows=ref_rows, rho=rho):
            rows = json.loads(res.file_bytes)["rows"]
            problems = check_mc_rows(rows, ref_rows, SWEEP_REL_ERR)
            problems += check_table_rows(rows, rho, SWEEP_ALPHA)
            problems += [
                f"estimate {k}: not converged"
                for k, est in enumerate(res.estimates)
                if not est.converged
            ]
            return problems

        ops.append(_cli_op(
            f"sweep-rho{rho:g}", argv, out, check, tap=True,
            samples=lambda res: sum(e.n_samples for e in res.estimates),
        ))
    return ops


def point_mc_ops(seed, workdir, refs):
    x = mm1_x()
    exact = MM1_RHO * math.exp(-(1.0 - MM1_RHO) * x)

    def mm1_call():
        q = mg1tail.QueueModel(model=mg1tail.ExponentialIntegrated(rate=1.0), rho=MM1_RHO)
        return mg1tail.ak_estimate(
            q, x, target_rel_err=0.05, confidence=0.99, seed=derive_seed(seed, 0)
        )

    def mm1_check(est):
        problems = [] if est.converged else ["not converged"]
        if mismatch(est.estimate, est.half_width, exact, 0.0):
            problems.append(f"estimate {est.estimate:.6g} +- {est.half_width:.3g} vs exact {exact:.6g}")
        return problems

    gref = refs["geom_point"]
    rho = 1.0 - GEOM_P
    ref_mid = 0.5 * (gref["lower"] + gref["upper"]) / rho
    ref_half = 0.5 * (gref["upper"] - gref["lower"]) / rho

    def geom_call():
        g = mg1tail.GeomModel(y_model=mg1tail.ParetoIntegratedTail(alpha=GEOM_ALPHA), p=GEOM_P)
        return mg1tail.geom_crude_mc(g, gref["x"], GEOM_SAMPLES, seed=derive_seed(seed, 1))

    def geom_check(est):
        if mismatch(est.estimate, est.half_width, ref_mid, ref_half):
            return [f"estimate {est.estimate:.6g} +- {est.half_width:.3g} vs bracket/rho "
                    f"{ref_mid:.6g} +- {ref_half:.3g}"]
        return []

    def fields(est):
        return digest(estimate_fields(est))

    return [
        Op("ak-mm1-rho0.9-tail1e-4", mm1_call, mm1_check, fields, lambda est: est.n_samples),
        Op("geom-crude-p0.05-x1y", geom_call, geom_check, fields, lambda est: est.n_samples),
    ]


def exact_refs_ops(seed, workdir, refs):
    """The six criterion-7 brackets.  The oracle draws no random numbers, so
    the inputs do not depend on the seed."""
    ops = []
    for p, frac in PK_POINTS:
        label = pk_label(p, frac)
        ref = refs["pk"][label]

        def call(p=p, ref=ref):
            q = mg1tail.QueueModel(model=mg1tail.ParetoIntegratedTail(alpha=GEOM_ALPHA), rho=1.0 - p)
            return mg1tail.pk_truncated(q, ref["x"], tol=PK_TOL, h=PK_H)

        ops.append(Op(
            f"pk-{label}", call, lambda res, ref=ref: check_bracket(res, ref),
            lambda res: digest(bracket_fields(res)),
        ))
    return ops


def curves_ops(seed, workdir, refs):
    """Deterministic tables: no random draws and no lattice, so the inputs do
    not depend on the seed."""
    ops = []
    model = f"pareto-it:alpha={SWEEP_ALPHA:g}"
    for rho in CURVE_RHOS:
        out = workdir / f"curves-rho{rho:g}.csv"
        argv = [
            "sweep", "--dist", model, "--rho", repr(rho), "--x-min", "1",
            "--x-max", repr(4.0 * x_hat(SWEEP_ALPHA, rho)),
            "--points", str(CURVE_POINTS), "--log-grid", "--out", str(out),
        ]

        def check(res, rho=rho):
            rows = parse_csv_table(res.file_bytes)
            if len(rows) != CURVE_POINTS:
                return [f"{len(rows)} rows, expected {CURVE_POINTS}"]
            return check_table_rows(rows, rho, SWEEP_ALPHA)

        ops.append(_cli_op(f"sweep-rho{rho:g}", argv, out, check))
    for rho in CURVE_RHOS:
        argv = ["threshold", "--dist", model, "--rho", repr(rho), "--x", "100"]
        ops.append(_cli_op(
            f"threshold-rho{rho:g}", argv, None,
            lambda res, rho=rho: check_threshold(res.stdout, rho, SWEEP_ALPHA, 100.0),
        ))
    for rho in T_TAIL_RHOS:
        for x in T_TAIL_XS:
            ops.append(_t_tail_op(rho, x))
    return ops


def check_threshold(stdout, rho, alpha, x):
    out = dict(line.split(" ", 1) for line in stdout.splitlines())
    problems = []
    want = x_hat(alpha, rho)
    got = float(out.get("threshold_x", "nan"))
    if not math.isclose(got, want, rel_tol=1e-12):
        problems.append(f"threshold_x {got!r} != {want!r}")
    xc = float(out.get("crossing_point", "nan"))
    mu = pareto_mean(alpha)
    ht = math.exp(-(1.0 - rho) * xc / mu)
    tail = rho / (1.0 - rho) * xc ** (-(alpha - 1.0))
    if not math.isclose(ht, tail, rel_tol=1e-8):
        problems.append(f"curves differ at crossing_point {xc!r}: {ht!r} vs {tail!r}")
    c = x * (1.0 - rho) / (mu * (alpha - 2.0) * math.log(1.0 / (1.0 - rho)))
    regime = "heavy-traffic" if c < 0.9 else "heavy-tail" if c > 1.1 else "transition"
    if out.get("regime") != regime:
        problems.append(f"regime {out.get('regime')!r} != {regime!r}")
    return problems


def _t_tail_op(rho, x):
    def call():
        q = mg1tail.QueueModel(model=mg1tail.ParetoIntegratedTail(alpha=SWEEP_ALPHA), rho=rho)
        return mg1tail.t_tail(q, x), mg1tail.t_tail_z(q, x)

    def check(pair):
        series, quad = pair
        if not abs(series - quad) <= T_TAIL_TOL:
            return [f"|t_tail - t_tail_z| = {abs(series - quad):.3g} > {T_TAIL_TOL:g}"]
        return []

    return Op(f"t-tail-rho{rho:g}-x{x:.6g}", call, check, lambda pair: digest(list(pair)))


OPS_BY_WORKLOAD = {
    "sweep-mc": sweep_mc_ops,
    "point-mc": point_mc_ops,
    "exact-refs": exact_refs_ops,
    "curves": curves_ops,
}


def build(workload, seed, workdir):
    """The operations of one pass of ``workload`` under ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return OPS_BY_WORKLOAD[workload](seed, workdir, load_refs())


def self_check(refs):
    """The mismatch rule must flag a deliberately biased estimate and pass an
    unbiased one.  Returns a list of problems with the checker itself."""
    ref_rows = refs["sweep_mc"]["rho0.8"]
    honest = [
        {"x": r["x"], "mc_estimate": r["estimate"], "mc_rel_err": SWEEP_REL_ERR}
        for r in ref_rows
    ]
    biased = [dict(row, mc_estimate=1.5 * row["mc_estimate"]) for row in honest]
    problems = []
    if check_mc_rows(honest, ref_rows, SWEEP_REL_ERR):
        problems.append("self-check: an unbiased estimate was counted as failed")
    if len(check_mc_rows(biased, ref_rows, SWEEP_REL_ERR)) != len(biased):
        problems.append("self-check: a +50% biased estimate was not counted as failed")
    return problems
