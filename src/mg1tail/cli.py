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
config file); a reader that closes stdout early just ends the report.

The env var MG1_SEED is the default of --seed, read by the commands that
take a seed when --seed is absent.  An optional ``--config PATH`` file of
``key = value`` lines supplies defaults for the subcommand's flags (keys are
flag names with dashes or underscores; keys of other subcommands are
ignored).  Each line is parsed as ``--key=value``, or for a switch as the
bare flag (true/yes/on) or nothing (false/no/off), so a value is taken
exactly when the flag takes it.  The file's flags are read as if typed right
after the subcommand, so explicit flags win over the file, the file over
MG1_SEED and built-in defaults.

CSV sweeps open with ``# key = value`` metadata comment lines followed by a
header row; floats carry 17 significant digits so parsing reproduces the
in-memory values exactly.  Column order is fixed: x, heavy_traffic,
heavy_tail, h, j, then h_clt when the model has finite variance, then
mc_estimate and mc_rel_err when --simulate is given, then regime.  JSON
output is one object {"metadata": ..., "rows": [...]} with the same field
names.
"""

import argparse
from collections import namedtuple
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .approx import (approximation_grid, approximation_point, corrected_heavy_traffic,
                     cramer_lundberg_tail, h_approx, h_clt, heavy_tail, heavy_traffic, j_approx)
from .distributions import ParetoIntegratedTail, QueueModel, parse_model
from .errors import NoCrossingError, ResourceBudgetError, UnsupportedModelError, check_finite
from .geom import GeomModel, geom_gamma, geom_tail_approx, geom_threshold
from .mc import ak_estimate, ak_estimate_grid, crude_mc, geom_crude_mc
from .transition import (Regime, band_regime, crossing_point, kappa, regime_classify,
                         threshold_rho, threshold_x)

_METHODS = {
    "ht": heavy_traffic,
    "tail": heavy_tail,
    "h": h_approx,
    "j": j_approx,
    "h-clt": h_clt,
    "cl": cramer_lundberg_tail,
    "corrected-ht": corrected_heavy_traffic,
    # same formula with p = 1 - rho
    "geom": lambda q, x: geom_tail_approx(GeomModel(y_model=q.model, p=1.0 - q.rho), x),
}

# geom's band of x/threshold_y, by the regime rule at delta = 0.1
_BANDS = {Regime.HEAVY_TRAFFIC: "below-threshold", Regime.TRANSITION: "threshold-boundary",
          Regime.HEAVY_TAIL: "above-threshold"}


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


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


def _named(pairs) -> list:
    return [f"{name} {_fmt(value)}" for name, value in pairs]


def _print_lines(lines):
    """The lines to stdout in one write.  A closed pipe ends the output: the rest
    goes to the null device, where exit flushes it."""
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _estimate_lines(est) -> list:
    return [("estimate", est.estimate), ("half_width", est.half_width),
            ("rel_err", est.rel_err), ("n_samples", est.n_samples), ("seed", est.seed),
            ("method", est.method.value), ("converged", est.converged)]


def cmd_approx(args):
    q = _queue(args)
    _print_lines(_named([("value", _METHODS[args.method](q, args.x)),
                         ("regime", _regime_string(q, args.x))]))


def cmd_threshold(args):
    q = _queue(args)
    # every value before the first line, so a usage error prints none
    lines = [("kappa", kappa(q.model)), ("threshold_x", threshold_x(q, c=args.c))]
    try:
        lines.append(("crossing_point", crossing_point(q)))
    except NoCrossingError:
        lines.append(("crossing_point", None))
    if args.x is not None:
        rt = threshold_rho(q.model, args.x, c=args.c)
        rep = regime_classify(q, args.x)
        lines += [("rho_threshold", rt.value), ("rho_threshold_in_range", rt.in_range),
                  ("c_value", rep.c_value), ("regime", rep.regime.value)]
    _print_lines(_named(lines))


def _ak(args, q: QueueModel):
    return ak_estimate(q, args.x, target_rel_err=args.rel_err, confidence=args.confidence,
                       seed=args.seed, max_samples=args.max_samples)


def cmd_simulate(args):
    q = _queue(args)
    if args.method == "crude":
        est = crude_mc(q, args.x, n_samples=args.n_samples, seed=args.seed)
    else:
        est = _ak(args, q)
    _print_lines(_named(_estimate_lines(est)))


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
        # np.geomspace by libm's log10 and pow, whose numpy loops vary with the CPU
        y = np.linspace(math.log10(args.x_min), math.log10(args.x_max), args.points)
        return np.array([args.x_min, *(10.0 ** v for v in y[1:-1].tolist()), args.x_max])
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


def cmd_sweep(args):
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
    tx = cp = None  # both need a tail index; only the crossing can be out of reach
    try:
        tx = threshold_x(q)
        cp = crossing_point(q)
    except (UnsupportedModelError, NoCrossingError):
        pass
    meta = {"model": args.dist, "rho": args.rho, "seed": args.seed,
            "simulate": bool(args.simulate), "rel_err": args.rel_err, "threshold_x": tx,
            "crossing_point": cp, "version": __version__}
    _write_table(args.out, args.format, meta, rows)


def cmd_compare(args):
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
    lines = [f"x {_fmt(x)}",
             f"mc_estimate {_fmt(est.estimate)}  rel_err {_fmt(est.rel_err)}  "
             f"n_samples {est.n_samples}  converged {_fmt(est.converged)}",
             f"{'method':<16}{'value':>24}{'ratio_to_mc':>16}"]
    for name, value in entries:
        ratio = value / est.estimate if est.estimate > 0 else math.inf
        lines.append(f"{name:<16}{value:>24.10g}{ratio:>16.6g}")
    _print_lines(lines)


def cmd_geom(args):
    g = GeomModel(y_model=ParetoIntegratedTail(alpha=args.betaY + 1.0), p=args.p)
    y = geom_threshold(g, c=args.c)
    lines = [("tau", g.tau), ("threshold_y", y)]
    if args.x is not None:
        x = args.x
        ratio = x / y
        lines += [("x", x), ("x_over_threshold", ratio), ("band", _BANDS[band_regime(ratio)]),
                  ("gamma", geom_gamma(g, x)), ("approx", geom_tail_approx(g, x))]
        if args.simulate:
            lines += _estimate_lines(
                geom_crude_mc(g, x, n_samples=args.n_samples, seed=args.seed))
    _print_lines(_named(lines))


# the argparse keywords of each flag; MG1_SEED is --seed's default
_FLAGS = {
    "--config": {"help": "defaults file of `key = value` lines"},
    "--dist": {"help": "model literal: pareto-it:alpha=A | exp:rate=R | lattice:file=PATH"},
    "--rho": {"type": float, "help": "traffic intensity in (0,1)"},
    "--betaY": {"type": float, "help": "summand tail index (> 2)"},
    "--p": {"type": float, "help": "geometric parameter in (0,1)"},
    "--x": {"type": float},
    "--x-min": {"type": float},
    "--x-max": {"type": float},
    "--points": {"type": int},
    "--log-grid": {"action": "store_true"},
    "--out": {"help": "output path"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--c": {"type": float, "default": 1.0},
    "--simulate": {"action": "store_true"},
    "--n-samples": {"type": int, "default": 1_000_000},
    "--rel-err": {"type": float, "default": 0.05},
    "--confidence": {"type": float, "default": 0.99},
    "--max-samples": {"type": int, "default": 50_000_000},
    "--seed": {"type": int},
}
_MODEL = ("--dist", "--rho")
_AK = ("--rel-err", "--confidence", "--max-samples", "--seed")

# a command's function, help, flags in --help order after --config (a flag
# with keywords of its own as a (flag, keywords) pair) and required flags
_Command = namedtuple("_Command", "func help flags required")
_COMMANDS = {
    "approx": _Command(cmd_approx, "evaluate one approximation at one x",
                       (*_MODEL, "--x", ("--method", {"choices": _METHODS})),
                       (*_MODEL, "--x", "--method")),
    "sweep": _Command(cmd_sweep, "write a table of approximations over an x grid",
                      (*_MODEL, "--x-min", "--x-max", "--points", "--log-grid", "--out",
                       "--format", "--simulate", "--rel-err", "--seed"),
                      (*_MODEL, "--x-min", "--x-max", "--points", "--out")),
    "threshold": _Command(cmd_threshold, "transition threshold diagnostics",
                          (*_MODEL, "--x", "--c"), _MODEL),
    "simulate": _Command(cmd_simulate, "Monte Carlo estimate of P(W > x)",
                         (*_MODEL, "--x",
                          ("--method", {"choices": ("ak", "crude"), "default": "ak"}),
                          "--n-samples", *_AK),
                         (*_MODEL, "--x")),
    "compare": _Command(cmd_compare, "all methods against Monte Carlo",
                        (*_MODEL, "--x", *_AK), (*_MODEL, "--x")),
    "geom": _Command(cmd_geom, "geometric-sum threshold report",
                     ("--betaY", "--p", "--x", "--c", "--simulate", "--n-samples", "--seed"),
                     ("--betaY", "--p")),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _specs(command: str) -> list:
    """(flag, argparse keywords) of each flag of a command, --config first."""
    return [f if isinstance(f, tuple) else (f, _FLAGS[f])
            for f in ("--config", *_COMMANDS[command].flags)]


def build_parser(seed_default: str):
    """The parser of every command; argparse converts the string seed_default
    only when --seed is absent."""
    parser = argparse.ArgumentParser(
        prog="mg1tail", description="Waiting-time tail approximations for the M/G/1 queue.")
    parser.add_argument("--version", action="version", version=f"mg1tail {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag, keywords in _specs(name):
            sp.add_argument(flag, **keywords)
        if "--seed" in command.flags:
            sp.set_defaults(seed=seed_default)
    return parser


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


def _config_argv(cfg: dict, command: str) -> list:
    """The values of cfg that are flags of command as a command line of it."""
    argv = []
    for flag, keywords in _specs(command):
        if _dest(flag) not in cfg:
            continue
        value, switch = cfg[_dest(flag)], keywords.get("action") == "store_true"
        if switch and value.lower() in {"true", "yes", "on"}:
            argv.append(flag)
        elif not (switch and value.lower() in {"false", "no", "off"}):
            argv.append(f"{flag}={value}")
    return argv


def _parse_args(parser, argv: list):
    """argv parsed; with a --config file, parsed again with the file's values
    spliced in as flags right after the command, so that each flag of argv
    comes later and wins (argparse keeps a flag's last value)."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    cfg = _load_config(args.config)
    unknown = set(cfg) - {_dest(flag) for name in _COMMANDS for flag, _ in _specs(name)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return parser.parse_args([argv[0], *_config_argv(cfg, args.command), *argv[1:]])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(os.environ.get("MG1_SEED", "0"))
    try:
        args = _parse_args(parser, argv)
        command = _COMMANDS[args.command]
        for flag in command.required:
            if getattr(args, _dest(flag)) is None:
                raise ValueError(f"{flag} is required")
        command.func(args)
        return 0
    except SystemExit as e:
        _print_lines([])  # flush what argparse printed to stdout (--help, --version) alike
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
