"""Outputs pinned bit for bit: kernel batch sums, estimator fields, the
quadrature form ``t_tail_z``, the bytes of ``sweep --simulate`` tables, the
``compare`` CLI output, and the closed-form scalars (model formulas, every
approximation and threshold, and the ``approx``/``threshold`` CLI output) over
a grid of models, rho and x.

The files under ``tests/golden/`` were recorded on x86-64 with Python 3.11 and
numpy 2.4; other libm or numpy builds may differ in the last bits of a pow or
exp, and so may numpy's own vector loops for log, exp and pow, which it picks
per CPU at run time (its dispatch targets).  ``tests/golden/dispatch.json``
records the numpy version and the active dispatch targets they were made with.
The 7 goldens whose bits move with the dispatch targets have a second copy,
with its own dispatch record, in ``tests/golden/no-avx512/``: their bits with
numpy's AVX-512 loops turned off, which one test checks in a subprocess.  A
process whose targets are that record's checks those 7 against the second copy.

Every golden file of both copies is checked one way, by ``changed_entries``:
the bytes this process makes must equal the file's, and a mismatch names the
file, its first changed entries (JSON keys, or the lines of a sweep table) and
the recorded and running dispatch.  Regenerate the goldens, and then their
second copy, only for an intended output change:

    PYTHONPATH=src python3 tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src python3 tests/test_golden.py

With ``--check`` the script writes nothing: it checks the goldens of its
dispatch, and exits 1 with the message of each file that differs.
"""

import contextlib
import dataclasses
import enum
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
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
# the goldens whose bits move with numpy's dispatch targets, and the
# environment and directory of their second copy
DISPATCH_DEPENDENT = ("kernels.json", "estimates.json", "ak_grid.json", "compare.json",
                      "sweep-exp.csv", "sweep-exp.json", "sweep-grid.csv")
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
GOLDEN_NO_AVX512 = GOLDEN / "no-avx512"

MODELS = {
    "pareto": ParetoIntegratedTail(alpha=3.5),
    "exp": ExponentialIntegrated(rate=1.0),
    "lattice": Lattice(h=0.5, mass=[0.0, 0.25, 0.5, 0.25]),
}

# the arguments of each golden sweep: simulated 4-point tables, and one long
# enough that its h_clt column is built over the whole grid at once, at
# rho=0.99, where most normal tails saturate at 1 or underflow
SIMULATED = ["--rho", "0.8", "--x-min", "1", "--points", "4", "--log-grid", "--simulate",
             "--rel-err", "0.1", "--seed", "42"]
SWEEPS = {
    **{f"sweep-{name}.{fmt}": [*model, *SIMULATED, "--format", fmt]
       for name, model in (("pareto", ["--dist", "pareto-it:alpha=3.5", "--x-max", "40"]),
                           ("exp", ["--dist", "exp:rate=1", "--x-max", "20"]))
       for fmt in ("csv", "json")},
    "sweep-grid.csv": ["--dist", "pareto-it:alpha=3.5", "--rho", "0.99", "--x-min", "1",
                       "--x-max", "4600", "--points", "64", "--log-grid"],
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


def sweep_bytes(fname, directory):
    path = pathlib.Path(directory) / fname
    assert main(["sweep", *SWEEPS[fname], "--out", str(path)]) == 0
    return path.read_bytes()


def dispatch():
    """numpy's version and the dispatch targets active in this process (an
    environment variable such as NPY_DISABLE_CPU_FEATURES can turn some off)."""
    return {"numpy": np.__version__,
            "targets": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}


def _json(data):
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def makers(directory):
    """Per golden file, what makes its bytes in this process: ak_grid.json is made
    by the per-x and by the grid estimator, and written by the first.  The CLI
    writes its tables and the lattice file to ``directory``."""
    return {
        "kernels.json": [lambda: _json(kernel_sums())],
        "estimates.json": [lambda: _json(estimates())],
        "ak_grid.json": [lambda: _json(ak_grid_estimates()),
                         lambda: _json(ak_grid_estimates(grid=True))],
        "t_tail_z.json": [lambda: _json(t_tail_z_values())],
        "scalars.json": [lambda: _json(scalar_values())],
        "compare.json": [lambda: _json(compare_output(directory))],
        **{fname: [functools.partial(sweep_bytes, fname, directory)] for fname in SWEEPS},
    }


GOLDEN_FILES = tuple(makers(None))


def _entries(data, fname):
    """The entries of a golden file: the top-level items of a JSON object, else
    the lines of a sweep table, by line number from 1."""
    if fname.startswith("sweep-"):
        return {f"line {i}": v for i, v in enumerate(data.splitlines(), start=1)}
    return json.loads(data or b"{}")


def changed_entries(fname, data, directory=GOLDEN):
    """The entries of the golden file fname in directory that the bytes data
    change, add or drop, in file order; none exactly when the bytes are equal
    (["bytes"] where they differ outside every entry)."""
    path = directory / fname
    want = path.read_bytes() if path.exists() else b""
    if data == want:
        return []
    old, new = _entries(want, fname), _entries(data, fname)
    return [k for k in {**old, **new} if old.get(k) != new.get(k)] or ["bytes"]


def mismatch(fname, changed, directory=GOLDEN):
    """The message of a golden mismatch: the file, its first changed entries,
    and the dispatch it was recorded with and this process's, as a changed
    dispatch target alone can move the last bits of a pow, exp or log."""
    return (f"{directory / fname}: {len(changed)} entries differ, first {changed[:5]}; "
            f"goldens recorded with {json.loads((directory / 'dispatch.json').read_text())}, "
            f"running with {dispatch()}")


def golden_dir(fname):
    """The copy of the golden file fname that this process checks: the second copy
    for a dispatch-dependent file where its record has this process's targets,
    else the first."""
    second = json.loads((GOLDEN_NO_AVX512 / "dispatch.json").read_text())
    if fname in DISPATCH_DEPENDENT and second["targets"] == dispatch()["targets"]:
        return GOLDEN_NO_AVX512
    return GOLDEN


@pytest.mark.parametrize("fname", GOLDEN_FILES)
def test_golden_bytes(fname, tmp_path):
    directory = golden_dir(fname)
    for make in makers(tmp_path)[fname]:
        changed = changed_entries(fname, make(), directory)
        assert not changed, mismatch(fname, changed, directory)


def test_dispatch_dependent_goldens_match_without_avx512():
    # numpy fixes its dispatch targets at import, so the second copy is
    # checked in a fresh interpreter
    src = str(pathlib.Path(mg1tail.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, "--check"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_changed_entries_names_the_one_changed_entry(tmp_path):
    golden = {"a": "0x1.0p+0", "b": ["x", 1], "c": True}
    (tmp_path / "t.json").write_bytes(_json(golden))
    assert changed_entries("t.json", _json(golden), tmp_path) == []
    assert changed_entries("t.json", _json({**golden, "b": ["x", 2]}), tmp_path) == ["b"]
    table = b"# seed = 1\nx,h\n1,0.5\n2,0.25\n"
    (tmp_path / "sweep-t.csv").write_bytes(table)
    altered = table.replace(b"2,0.25", b"2,0.26")
    assert changed_entries("sweep-t.csv", altered, tmp_path) == ["line 4"]


if __name__ == "__main__":
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    if disabled == NO_AVX512:
        golden, names = GOLDEN_NO_AVX512, DISPATCH_DEPENDENT
    elif disabled is None:
        golden, names = GOLDEN, GOLDEN_FILES
    else:
        sys.exit(f"goldens are kept for NPY_DISABLE_CPU_FEATURES unset or "
                 f"{NO_AVX512!r}, not {disabled!r}")
    with tempfile.TemporaryDirectory() as tmp:
        made = {fname: [make() for make in makers(tmp)[fname]] for fname in names}
    if "--check" in sys.argv[1:]:
        differ = [mismatch(fname, changed, golden) for fname, datas in made.items()
                  for data in datas if (changed := changed_entries(fname, data, golden))]
        if differ:
            sys.exit("\n".join(differ))
        print(f"{golden}: {len(made)} goldens match")
        sys.exit(0)
    golden.mkdir(exist_ok=True)
    for fname, (data, *_) in made.items():
        changed = changed_entries(fname, data, golden)
        print(f"{fname}: {len(changed)} of {len(_entries(data, fname))} entries differ "
              f"from the file on disk")
        (golden / fname).write_bytes(data)
    (golden / "dispatch.json").write_text(json.dumps(dispatch(), indent=2) + "\n")
    print(f"dispatch.json: {dispatch()}")
