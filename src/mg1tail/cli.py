"""Command-line front end.

Subcommands:
  approx     one approximation value at one x, plus regime classification
  sweep      CSV/JSON table of every approximation over an x grid
  threshold  transition threshold and related diagnostics for a model
  simulate   Monte Carlo estimate of the waiting-time tail
  compare    side-by-side table of all methods against Monte Carlo
  geom       geometric-sum threshold report

Exit codes: 0 success, 2 usage error (also an input whose result overflows
a float), 3 unsupported model/method combination, 4 I/O failure (output or
config file).

The env var MG1_SEED is the default of --seed, read by the commands that
take a seed when --seed is absent.  An optional ``--config PATH`` file of
``key = value`` lines supplies defaults for the subcommand's flags (keys are
flag names with dashes or underscores; keys of other subcommands are
ignored).  Each line is parsed as ``--key=value``, or for a switch as the
bare flag (true/yes/on) or nothing (false/no/off), so a value is taken
exactly when the flag takes it.  Explicit flags win over the file, the file
over MG1_SEED and built-in defaults.

CSV sweeps open with ``# key = value`` metadata comment lines followed by a
header row; floats carry 17 significant digits so parsing reproduces the
in-memory values exactly.  Column order is fixed: x, heavy_traffic,
heavy_tail, h, j, then h_clt when the model has finite variance, then
mc_estimate and mc_rel_err when --simulate is given, then regime.  JSON
output is one object {"metadata": ..., "rows": [...]} with the same field
names.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .approx import (
    approximation_grid,
    approximation_point,
    h_approx,
    h_clt,
    heavy_tail,
    heavy_traffic,
    j_approx,
)
from .distributions import ParetoIntegratedTail, QueueModel, parse_model
from .errors import NoCrossingError, ResourceBudgetError, UnsupportedModelError, check_finite
from .geom import GeomModel, geom_gamma, geom_tail_approx, geom_threshold
from .light_tails import corrected_heavy_traffic, cramer_lundberg_tail
from .mc import ak_estimate, ak_estimate_grid, crude_mc, geom_crude_mc
from .transition import (
    crossing_point,
    kappa,
    regime_classify,
    threshold_rho,
    threshold_x,
)

_METHODS = {
    "ht": heavy_traffic,
    "tail": heavy_tail,
    "h": h_approx,
    "j": j_approx,
    "h-clt": h_clt,
    "cl": lambda q, x: cramer_lundberg_tail(q.model, q.rho, x),
    "corrected-ht": lambda q, x: corrected_heavy_traffic(q.model, q.rho, x),
    # same formula with p = 1 - rho
    "geom": lambda q, x: geom_tail_approx(
        GeomModel(y_model=q.model, p=1.0 - q.rho), x
    ),
}


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _require(args, *names):
    for n in names:
        if getattr(args, n, None) is None:
            raise ValueError(f"--{n.replace('_', '-')} is required")


def _queue(args) -> QueueModel:
    return QueueModel(model=parse_model(args.dist), rho=args.rho)


def _regime_string(q: QueueModel, x: float) -> str:
    try:
        return regime_classify(q, x).regime.value
    except UnsupportedModelError:
        return "na"


def _columns(pt) -> list:
    """(name, value) of each approximation column of a point, in the fixed
    order; h_clt only when the model has finite variance."""
    cols = [("heavy_traffic", pt.heavy_traffic), ("heavy_tail", pt.heavy_tail),
            ("h", pt.h), ("j", pt.j)]
    if pt.h_clt is not None:
        cols.append(("h_clt", pt.h_clt))
    return cols


def _print_estimate(est):
    print(f"estimate {_fmt(est.estimate)}")
    print(f"half_width {_fmt(est.half_width)}")
    print(f"rel_err {_fmt(est.rel_err)}")
    print(f"n_samples {est.n_samples}")
    print(f"seed {est.seed}")
    print(f"method {est.method.value}")
    print(f"converged {_fmt(est.converged)}")


def cmd_approx(args) -> int:
    _require(args, "dist", "rho", "x", "method")
    q = _queue(args)
    value = _METHODS[args.method](q, args.x)
    print(f"value {_fmt(value)}")
    print(f"regime {_regime_string(q, args.x)}")
    return 0


def cmd_threshold(args) -> int:
    _require(args, "dist", "rho")
    q = _queue(args)
    print(f"kappa {_fmt(kappa(q.model))}")
    print(f"threshold_x {_fmt(threshold_x(q, c=args.c))}")
    try:
        print(f"crossing_point {_fmt(crossing_point(q))}")
    except NoCrossingError:
        print("crossing_point none")
    if args.x is not None:
        rt = threshold_rho(q.model, args.x, c=args.c)
        rep = regime_classify(q, args.x)
        print(f"rho_threshold {_fmt(rt.value)}")
        print(f"rho_threshold_in_range {_fmt(rt.in_range)}")
        print(f"c_value {_fmt(rep.c_value)}")
        print(f"regime {rep.regime.value}")
    return 0


def _ak(args, q: QueueModel):
    return ak_estimate(q, args.x, target_rel_err=args.rel_err, confidence=args.confidence,
                       seed=args.seed, max_samples=args.max_samples)


def cmd_simulate(args) -> int:
    _require(args, "dist", "rho", "x")
    q = _queue(args)
    if args.method == "crude":
        est = crude_mc(q, args.x, n_samples=args.n_samples, seed=args.seed)
    else:
        est = _ak(args, q)
    _print_estimate(est)
    return 0


def _sweep_grid(args) -> np.ndarray:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    check_finite("--x-min", args.x_min)
    check_finite("--x-max", args.x_max)
    if args.x_max < args.x_min:
        raise ValueError("--x-max must be >= --x-min")
    if args.points == 1:
        return np.array([float(args.x_min)])
    if args.log_grid:
        if args.x_min <= 0:
            raise ValueError("--log-grid needs --x-min > 0")
        return np.geomspace(args.x_min, args.x_max, args.points)
    return np.linspace(args.x_min, args.x_max, args.points)


def _write_table(path: str, fmt: str, meta: dict, rows: list) -> None:
    if fmt == "json":
        text = json.dumps({"metadata": meta, "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for k, v in meta.items():
            buf.write(f"# {k} = {_fmt(v)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    with open(path, "w", newline="") as f:
        f.write(text)


def cmd_sweep(args) -> int:
    _require(args, "dist", "rho", "x_min", "x_max", "points", "out")
    q = _queue(args)
    xs = [float(x) for x in _sweep_grid(args)]
    if args.simulate:
        ests = ak_estimate_grid(q, xs, target_rel_err=args.rel_err, seed=args.seed)
    rows = []
    for i, (x, pt) in enumerate(zip(xs, approximation_grid(q, xs))):
        row = {"x": x, **dict(_columns(pt))}
        if args.simulate:
            row["mc_estimate"] = ests[i].estimate
            row["mc_rel_err"] = ests[i].rel_err
        row["regime"] = _regime_string(q, x)
        rows.append(row)
    try:
        tx = threshold_x(q)
    except UnsupportedModelError:
        tx = None
    try:
        cp = crossing_point(q)
    except (UnsupportedModelError, NoCrossingError):
        cp = None
    meta = {
        "model": args.dist,
        "rho": args.rho,
        "seed": args.seed,
        "simulate": bool(args.simulate),
        "rel_err": args.rel_err,
        "threshold_x": tx,
        "crossing_point": cp,
        "version": __version__,
    }
    _write_table(args.out, args.format, meta, rows)
    return 0


def cmd_compare(args) -> int:
    _require(args, "dist", "rho", "x")
    q = _queue(args)
    x = args.x
    est = _ak(args, q)
    entries = _columns(approximation_point(q, x))
    # x passed the estimator's check, so a ValueError here is GeomModel's
    # tail index <= 2
    for name, method in (("cramer_lundberg", "cl"), ("geom", "geom")):
        try:
            entries.append((name, _METHODS[method](q, x)))
        except (UnsupportedModelError, ValueError):
            pass
    print(f"x {_fmt(x)}")
    print(
        f"mc_estimate {_fmt(est.estimate)}  rel_err {_fmt(est.rel_err)}  "
        f"n_samples {est.n_samples}  converged {_fmt(est.converged)}"
    )
    print(f"{'method':<16}{'value':>24}{'ratio_to_mc':>16}")
    for name, value in entries:
        ratio = value / est.estimate if est.estimate > 0 else math.inf
        print(f"{name:<16}{value:>24.10g}{ratio:>16.6g}")
    return 0


def cmd_geom(args) -> int:
    _require(args, "betaY", "p")
    g = GeomModel(y_model=ParetoIntegratedTail(alpha=args.betaY + 1.0), p=args.p)
    y = geom_threshold(g, c=args.c)
    print(f"tau {_fmt(g.tau)}")
    print(f"threshold_y {_fmt(y)}")
    if args.x is not None:
        x = args.x
        ratio = x / y
        if ratio < 0.9:
            band = "below-threshold"
        elif ratio <= 1.1:
            band = "threshold-boundary"
        else:
            band = "above-threshold"
        print(f"x {_fmt(x)}")
        print(f"x_over_threshold {_fmt(ratio)}")
        print(f"band {band}")
        print(f"gamma {_fmt(geom_gamma(g, x))}")
        print(f"approx {_fmt(geom_tail_approx(g, x))}")
        if args.simulate:
            _print_estimate(geom_crude_mc(g, x, n_samples=args.n_samples, seed=args.seed))
    return 0


def build_parser(seed_default: str):
    """The parser and its subcommand parsers by name; argparse converts the
    string seed_default only when --seed is absent."""
    parser = argparse.ArgumentParser(
        prog="mg1tail",
        description="Waiting-time tail approximations for the M/G/1 queue.",
    )
    parser.add_argument(
        "--version", action="version", version=f"mg1tail {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", help="defaults file of `key = value` lines")
        return sp

    def model_flags(sp):
        sp.add_argument(
            "--dist",
            help="model literal: pareto-it:alpha=A | exp:rate=R | lattice:file=PATH",
        )
        sp.add_argument("--rho", type=float, help="traffic intensity in (0,1)")

    def ak_flags(sp):
        sp.add_argument("--rel-err", type=float, default=0.05)
        sp.add_argument("--confidence", type=float, default=0.99)
        sp.add_argument("--max-samples", type=int, default=50_000_000)
        sp.add_argument("--seed", type=int, default=seed_default)

    sp = add("approx", cmd_approx, "evaluate one approximation at one x")
    model_flags(sp)
    sp.add_argument("--x", type=float)
    sp.add_argument("--method", choices=_METHODS)

    sp = add("sweep", cmd_sweep, "write a table of approximations over an x grid")
    model_flags(sp)
    sp.add_argument("--x-min", type=float)
    sp.add_argument("--x-max", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--log-grid", action="store_true")
    sp.add_argument("--out", help="output path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument("--rel-err", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=seed_default)

    sp = add("threshold", cmd_threshold, "transition threshold diagnostics")
    model_flags(sp)
    sp.add_argument("--x", type=float)
    sp.add_argument("--c", type=float, default=1.0)

    sp = add("simulate", cmd_simulate, "Monte Carlo estimate of P(W > x)")
    model_flags(sp)
    sp.add_argument("--x", type=float)
    sp.add_argument("--method", choices=("ak", "crude"), default="ak")
    sp.add_argument("--n-samples", type=int, default=1_000_000)
    ak_flags(sp)

    sp = add("compare", cmd_compare, "all methods against Monte Carlo")
    model_flags(sp)
    sp.add_argument("--x", type=float)
    ak_flags(sp)

    sp = add("geom", cmd_geom, "geometric-sum threshold report")
    sp.add_argument("--betaY", type=float, help="summand tail index (> 2)")
    sp.add_argument("--p", type=float, help="geometric parameter in (0,1)")
    sp.add_argument("--x", type=float)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument("--n-samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=seed_default)

    return parser, sub.choices


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path) as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected `key = value`")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _config_argv(cfg: dict, sp) -> list:
    """The values of cfg that are flags of sp as a command line of sp."""
    argv = []
    for a in sp._actions:
        if a.dest not in cfg:
            continue
        flag, value = a.option_strings[0], cfg[a.dest]
        if a.nargs == 0 and value.lower() in {"true", "yes", "on"}:
            argv.append(flag)
        elif not (a.nargs == 0 and value.lower() in {"false", "no", "off"}):
            argv.append(f"{flag}={value}")
    return argv


def _parse_args(parser, commands: dict, argv: list):
    """argv parsed, a --config file's values first set as the subcommand's
    defaults by parsing them as its command line."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    cfg = _load_config(args.config)
    known = {a.dest for sp in commands.values() for a in sp._actions} - {"help"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    sp = commands[args.command]
    # parsed onto args, so an absent --seed does not convert MG1_SEED again
    given = vars(sp.parse_args(_config_argv(cfg, sp), args))
    sp.set_defaults(**{a.dest: given[a.dest] for a in sp._actions if a.dest in cfg})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser(os.environ.get("MG1_SEED", "0"))
    try:
        args = _parse_args(parser, commands, argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (UnsupportedModelError, ResourceBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"error: result overflows a float ({e})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
