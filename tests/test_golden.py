"""Outputs pinned bit for bit: kernel batch sums, estimator fields, the
quadrature form ``t_tail_z``, the bytes of ``sweep --simulate`` tables, the
``compare`` CLI output, and the closed-form scalars (model formulas, every
approximation and threshold, and the ``approx``/``threshold`` CLI output) over
a grid of models, rho and x.

The files under ``tests/golden/`` were recorded on x86-64 with Python 3.11 and
numpy 2.4; other libm or numpy builds may differ in the last bits of a pow or
exp, and so may numpy's own vector loops for log, exp and pow, which it picks
per CPU at run time (its dispatch targets).  ``tests/golden/dispatch.json``
records the numpy version and the active dispatch targets they were made with,
and a mismatch names those and the running ones.  Regenerate them only for an
intended output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import dataclasses
import enum
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import mg1tail
from mg1tail import (
    ExponentialIntegrated,
    GeomModel,
    Lattice,
    Mg1TailError,
    ParetoIntegratedTail,
    QueueModel,
    ak_estimate,
    ak_estimate_grid,
    crude_mc,
    geom_crude_mc,
    t_tail_z,
)
from mg1tail import kernels
from mg1tail.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

MODELS = {
    "pareto": ParetoIntegratedTail(alpha=3.5),
    "exp": ExponentialIntegrated(rate=1.0),
    "lattice": Lattice(h=0.5, mass=[0.0, 0.25, 0.5, 0.25]),
}

SWEEPS = {
    "pareto": ["--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
               "--x-min", "1", "--x-max", "40"],
    "exp": ["--dist", "exp:rate=1", "--rho", "0.8",
            "--x-min", "1", "--x-max", "20"],
}


def kernel_sums():
    out = {}
    for name, model in MODELS.items():
        for rho in (0.6, 0.8):
            for n_offset in (0, 1):
                args = (model, rho, 3.25, 4242, 100, 5_000, n_offset)
                out[f"{name}-rho{rho}-offset{n_offset}"] = {
                    "ak": [v.hex() for v in kernels.ak_batch(*args)],
                    "crude": [v.hex() for v in kernels.crude_batch(*args)],
                }
    return out


def _fields(est):
    return {
        "estimate": est.estimate.hex(),
        "half_width": est.half_width.hex(),
        "rel_err": est.rel_err.hex(),
        "n_samples": est.n_samples,
        "seed": est.seed,
        "method": est.method.value,
        "converged": est.converged,
    }


def estimates():
    pareto = QueueModel(model=MODELS["pareto"], rho=0.8)
    exp = QueueModel(model=MODELS["exp"], rho=0.5)
    lattice = QueueModel(model=MODELS["lattice"], rho=0.6)
    geom = GeomModel(y_model=ParetoIntegratedTail(alpha=4.0), p=0.2)
    return {
        "ak-pareto": _fields(ak_estimate(pareto, 10.0, seed=1)),
        "ak-exp": _fields(ak_estimate(exp, 2.0, seed=7)),
        "ak-lattice-capped": _fields(
            ak_estimate(lattice, 1.25, seed=3, max_samples=60_000)),
        "crude-exp": _fields(crude_mc(exp, 2.0, 100_000, seed=7)),
        "crude-lattice": _fields(crude_mc(lattice, 1.25, 30_000, seed=3)),
        "geom-crude": _fields(geom_crude_mc(geom, 12.0, 50_000, seed=5)),
    }


AK_GRID_XS = (0.0, 0.5, 1.25, 2.0, 3.25, 10.0)
AK_GRID_ARGS = {"target_rel_err": 0.01, "seed": 2024, "max_samples": 223_457}


def ak_grid_estimates(grid=False):
    """``ak_estimate`` per x (or one ``ak_estimate_grid`` call) over one grid
    per model at one seed, capped at a sample count that is not a whole
    number of batches: some x converge at the first check, others later or
    not before the cap.  On the lattice model 0.5, 2.0 and 10 are lattice
    points, where the atom term counts."""
    out = {}
    for name, model in MODELS.items():
        q = QueueModel(model=model, rho=0.8)
        if grid:
            ests = ak_estimate_grid(q, AK_GRID_XS, **AK_GRID_ARGS)
        else:
            ests = [ak_estimate(q, x, **AK_GRID_ARGS) for x in AK_GRID_XS]
        for x, est in zip(AK_GRID_XS, ests):
            out[f"{name}-x{x:g}"] = _fields(est)
    return out


def t_tail_z_values():
    """The criterion-6 grid, x=0, points where half and all of the nodes
    underflow past the -745 clamp, and an exponential-service point."""
    pareto = ParetoIntegratedTail(alpha=3.5)
    out = {}
    for rho in (0.5, 0.8, 0.95):
        q = QueueModel(model=pareto, rho=rho)
        for i, x in enumerate(np.geomspace(0.5, 100.0, 20)):
            out[f"crit6-rho{rho}-i{i:02d}"] = t_tail_z(q, float(x)).hex()
    out["x0-rho0.8"] = t_tail_z(QueueModel(model=pareto, rho=0.8), 0.0).hex()
    half = QueueModel(model=pareto, rho=0.5)
    out["clamp-half-rho0.5-x1790"] = t_tail_z(half, 1790.0).hex()
    out["clamp-rho0.5-x1e4"] = t_tail_z(half, 1e4).hex()
    exp = QueueModel(model=MODELS["exp"], rho=0.8)
    out["exp-rho0.8-x3"] = t_tail_z(exp, 3.0).hex()
    return out


SCALAR_MODELS = {
    "pareto2.7": ParetoIntegratedTail(alpha=2.7),
    "pareto3.5": ParetoIntegratedTail(alpha=3.5),
    "pareto5": ParetoIntegratedTail(alpha=5.0),
    "exp0.3": ExponentialIntegrated(rate=0.3),
    "exp1": ExponentialIntegrated(rate=1.0),
    "lattice": Lattice(h=0.3, mass=[0.05, 0.15, 0.3, 0.2, 0.2, 0.1]),
}
SCALAR_RHOS = (0.3, 0.8, 0.95, 0.99)
SCALAR_XS = (0.0, 0.5, 0.9, 0.999, 1.0, 1.5, 2.0, 3.25, 5.0, 10.0, 17.3, 40.0,
             100.0, 1000.0, 1e4)
SCALAR_US = (1e-9, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0 - 1e-9)
# lattice points and others; 0.9 is not one, since 3*0.3 is 0.8999...
SCALAR_VS = (-0.3, 0.0, 0.3, 0.6, 0.9, 0.45, 1.2, 1.5, 7.0)
QUEUE_FNS = ("heavy_traffic", "heavy_tail", "big_m", "s_sum", "geometric_term",
             "h_approx", "gamma_factor", "j_approx", "t_tail", "t_tail_z",
             "h_clt", "regime_classify")
LIGHT_TAIL_FNS = ("cramer_lundberg_tail", "corrected_heavy_traffic")
GEOM_FNS = ("geom_gamma", "geom_tail_approx")
CLI_METHODS = ("ht", "tail", "h", "j", "h-clt", "cl", "corrected-ht", "geom")


def _hexed(v):
    if dataclasses.is_dataclass(v):
        return {k: _hexed(f) for k, f in vars(v).items()}
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, float):
        return v.hex()
    return v


def _pin(fn, *args):
    """float.hex of fn(*args) (per field for a dataclass), or the error type
    and message."""
    try:
        return _hexed(fn(*args))
    except (Mg1TailError, ValueError, ArithmeticError) as e:
        return [type(e).__name__, str(e)]


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def scalar_values():
    """The model formulas, then every closed-form approximation, threshold and
    light-tail value at each rho and x, then the ``approx`` (all methods) and
    ``threshold`` CLI output."""
    out = {}
    for name, model in SCALAR_MODELS.items():
        out[f"{name}/mean"] = _pin(model.mean)
        out[f"{name}/variance"] = _pin(model.variance)
        out[f"{name}/service_moments"] = _pin(model.service_moments)
        out[f"{name}/tail_index"] = _pin(model.tail_index)
        out[f"{name}/kappa"] = _pin(mg1tail.kappa, model)
        for x in SCALAR_XS:
            out[f"{name}/tail_prob/{x!r}"] = _pin(mg1tail.tail_prob, model, x)
            out[f"{name}/threshold_rho/{x!r}"] = _pin(
                mg1tail.threshold_rho, model, x)
            for n in (1, 2, 5):
                out[f"{name}/subexp_sum_approx/{n}/{x!r}"] = _pin(
                    mg1tail.subexp_sum_approx, model, n, x)
        for u in SCALAR_US:
            out[f"{name}/sample_x/{u!r}"] = _pin(mg1tail.sample_x, model, u)
        for v in SCALAR_VS:
            out[f"{name}/atom_prob/{v!r}"] = _pin(model.atom_prob, v)
        for rho in SCALAR_RHOS:
            q = QueueModel(model=model, rho=rho)
            key = f"{name}/{rho!r}"
            out[f"{key}/threshold_x"] = _pin(mg1tail.threshold_x, q)
            out[f"{key}/crossing_point"] = _pin(mg1tail.crossing_point, q)
            out[f"{key}/adjustment_coefficient"] = _pin(
                mg1tail.adjustment_coefficient, model, rho)
            try:
                g = GeomModel(y_model=model, p=1.0 - rho)
            except (Mg1TailError, ValueError) as e:
                g = None
                out[f"{key}/geom_model"] = [type(e).__name__, str(e)]
            else:
                out[f"{key}/geom_tau"] = g.tau.hex()
                out[f"{key}/geom_threshold"] = _pin(mg1tail.geom_threshold, g)
            for x in SCALAR_XS:
                for fn in QUEUE_FNS:
                    out[f"{key}/{fn}/{x!r}"] = _pin(getattr(mg1tail, fn), q, x)
                for fn in LIGHT_TAIL_FNS:
                    out[f"{key}/{fn}/{x!r}"] = _pin(getattr(mg1tail, fn), model, rho, x)
                if g is not None:
                    for fn in GEOM_FNS:
                        out[f"{key}/{fn}/{x!r}"] = _pin(getattr(mg1tail, fn), g, x)
    for dist in ("pareto-it:alpha=3.5", "exp:rate=1"):
        model_args = ("--dist", dist, "--rho", "0.9")
        for method in CLI_METHODS:
            for x in ("0.5", "20"):
                out[f"cli/approx/{dist}/{method}/{x}"] = _cli(
                    "approx", *model_args, "--x", x, "--method", method)
        out[f"cli/threshold/{dist}"] = _cli("threshold", *model_args, "--x", "50")
    return out


# model literal, rho and x per case: finite variance with a geometric row,
# infinite variance (no h_clt row; tail index 1.7, so no geom row), the
# exponential (Cramer-Lundberg row) and a lattice file (neither extra row)
COMPARES = {
    "pareto3.5": ("pareto-it:alpha=3.5", "0.8", "10"),
    "pareto2.7": ("pareto-it:alpha=2.7", "0.9", "20"),
    "exp": ("exp:rate=1", "0.8", "3"),
    "lattice": ("lattice:file={}", "0.6", "1.25"),
}


def compare_output(directory):
    """stdout, stderr and exit code of ``compare`` per case, capped at 20,000
    samples; the lattice file is written to ``directory``."""
    lattice = pathlib.Path(directory) / "lattice.txt"
    lattice.write_text("0.5 0.25\n1.0 0.5\n1.5 0.25\n")
    return {
        name: _cli("compare", "--dist", dist.format(lattice), "--rho", rho,
                   "--x", x, "--seed", "3", "--max-samples", "20000")
        for name, (dist, rho, x) in COMPARES.items()
    }


def sweep_bytes(name, fmt, directory):
    path = pathlib.Path(directory) / f"sweep-{name}.{fmt}"
    code = main(["sweep", *SWEEPS[name], "--points", "4", "--log-grid",
                 "--simulate", "--rel-err", "0.1", "--seed", "42",
                 "--format", fmt, "--out", str(path)])
    assert code == 0
    return path.read_bytes()


# long enough that the sweep's h_clt column is built over the whole grid at
# once, and at rho=0.99, where most normal tails saturate at 1 or underflow
GRID_SWEEP = ["--dist", "pareto-it:alpha=3.5", "--rho", "0.99", "--x-min", "1",
              "--x-max", "4600", "--points", "64", "--log-grid"]


def grid_sweep_bytes(directory):
    path = pathlib.Path(directory) / "sweep-grid.csv"
    assert main(["sweep", *GRID_SWEEP, "--out", str(path)]) == 0
    return path.read_bytes()


def _load(name):
    return json.loads((GOLDEN / name).read_text())


def dispatch():
    """numpy's version and the dispatch targets active in this process (an
    environment variable such as NPY_DISABLE_CPU_FEATURES can turn some off)."""
    return {"numpy": np.__version__,
            "targets": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}


def _recorded_and_running():
    """The message of a golden mismatch: a changed dispatch target alone can
    move the last bits of a pow, exp or log."""
    return (f"goldens recorded with {_load('dispatch.json')}, running with "
            f"{dispatch()}")


def test_kernel_sums_match_golden():
    assert kernel_sums() == _load("kernels.json"), _recorded_and_running()


def test_estimates_match_golden():
    assert estimates() == _load("estimates.json"), _recorded_and_running()


def test_ak_grid_matches_golden():
    want = _load("ak_grid.json")
    assert ak_grid_estimates() == want, _recorded_and_running()
    assert ak_grid_estimates(grid=True) == want, _recorded_and_running()


def test_t_tail_z_matches_golden():
    assert t_tail_z_values() == _load("t_tail_z.json"), _recorded_and_running()


def test_scalars_match_golden():
    got, want = scalar_values(), _load("scalars.json")
    assert got.keys() == want.keys(), _recorded_and_running()
    assert [k for k in want if got[k] != want[k]] == [], _recorded_and_running()


def test_compare_matches_golden(tmp_path):
    assert compare_output(tmp_path) == _load("compare.json"), _recorded_and_running()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes_match_golden(name, fmt, tmp_path, capsys):
    got = sweep_bytes(name, fmt, tmp_path)
    assert got == (GOLDEN / f"sweep-{name}.{fmt}").read_bytes(), _recorded_and_running()


def test_grid_sweep_bytes_match_golden(tmp_path):
    want = (GOLDEN / "sweep-grid.csv").read_bytes()
    assert grid_sweep_bytes(tmp_path) == want, _recorded_and_running()


def _entries(data, fname):
    """The entries of a golden file: the top-level items of a JSON object, else
    the lines of a sweep table."""
    if fname.startswith("sweep-"):
        return dict(enumerate(data.splitlines()))
    return json.loads(data or b"{}")


if __name__ == "__main__":
    files = {fname: (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
             for fname, data in (("kernels.json", kernel_sums()),
                                 ("estimates.json", estimates()),
                                 ("ak_grid.json", ak_grid_estimates()),
                                 ("t_tail_z.json", t_tail_z_values()),
                                 ("scalars.json", scalar_values()))}
    with tempfile.TemporaryDirectory() as tmp:
        files["compare.json"] = (
            json.dumps(compare_output(tmp), indent=2, sort_keys=True) + "\n").encode()
        for name in SWEEPS:
            for fmt in ("csv", "json"):
                files[f"sweep-{name}.{fmt}"] = sweep_bytes(name, fmt, tmp)
        files["sweep-grid.csv"] = grid_sweep_bytes(tmp)
    GOLDEN.mkdir(exist_ok=True)
    for fname, data in files.items():
        path = GOLDEN / fname
        old = _entries(path.read_bytes() if path.exists() else b"", fname)
        new = _entries(data, fname)
        differ = sum(old.get(k) != new.get(k) for k in old.keys() | new.keys())
        print(f"{fname}: {differ} of {len(new)} entries differ from the file on disk")
        path.write_bytes(data)
    (GOLDEN / "dispatch.json").write_text(json.dumps(dispatch(), indent=2) + "\n")
    print(f"dispatch.json: {dispatch()}")
