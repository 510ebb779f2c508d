"""Generate ``refs.json``, the stored references of the benchmark.

    python3 perfbench/make_refs.py

* ``sweep_mc``: conditional Monte Carlo at every x of the three simulated
  sweeps, with an independent seed and a tighter relative error (1%) than the
  workload's 5%.
* ``pk``: the seed-commit PK brackets at the six criterion-7 points.  Later
  brackets must overlap these and be no wider.
* ``geom_point``: the bracket at (p, y(p)) that judges the crude geometric-sum
  estimate in ``point-mc`` (divided by rho = 1 - p there).

Takes a few minutes on one core.  Run it once; rerun only when a workload's
inputs change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mg1tail  # noqa: E402
import workloads as W  # noqa: E402

REF_SEED = 2**31 + 20_100_926  # outside every seed the workloads derive
REF_REL_ERR = 0.01
REF_MAX_SAMPLES = 10**9


def sweep_refs():
    out = {}
    for i, (rho, x_max) in enumerate(W.sweep_mc_specs()):
        q = mg1tail.QueueModel(model=mg1tail.ParetoIntegratedTail(alpha=W.SWEEP_ALPHA), rho=rho)
        rows = []
        for k, x in enumerate(np.geomspace(1.0, x_max, 10)):
            est = mg1tail.ak_estimate(q, float(x), target_rel_err=REF_REL_ERR,
                                      seed=REF_SEED + 100 * i + k,
                                      max_samples=REF_MAX_SAMPLES)
            if not est.converged:
                raise SystemExit(f"reference at rho={rho}, x={x} did not converge")
            rows.append({"x": float(x), "estimate": est.estimate,
                         "half_width": est.half_width, "n_samples": est.n_samples})
            print(f"rho={rho:g} x={x:.6g} est={est.estimate:.6g} n={est.n_samples}", flush=True)
        out[f"rho{rho:g}"] = rows
    return out


def pk_refs():
    out = {}
    for p, frac in W.PK_POINTS:
        x = frac * W.geom_y(W.GEOM_ALPHA, p)
        q = mg1tail.QueueModel(model=mg1tail.ParetoIntegratedTail(alpha=W.GEOM_ALPHA), rho=1.0 - p)
        res = mg1tail.pk_truncated(q, x, tol=W.PK_TOL, h=W.PK_H)
        out[W.pk_label(p, frac)] = {
            "p": p, "x": x, "lower": res.lower, "upper": res.upper, "value": res.value,
            "rel_width": (res.upper - res.lower) / res.value,
        }
        print(f"pk {W.pk_label(p, frac)} [{res.lower:.6g}, {res.upper:.6g}]", flush=True)
    return out


def main():
    pk = pk_refs()
    geom = pk[W.pk_label(W.GEOM_P, 1.0)]
    refs = {
        "generated_by": "perfbench/make_refs.py",
        "ref_seed": REF_SEED,
        "ref_rel_err": REF_REL_ERR,
        "pk": pk,
        "geom_point": {"p": W.GEOM_P, "x": geom["x"], "lower": geom["lower"], "upper": geom["upper"]},
        "sweep_mc": sweep_refs(),
    }
    W.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
