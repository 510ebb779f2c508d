"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (distance between the first and third quartiles
as a share of the median), against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workloads sweep-mc curves --seeds 1 2 3 4 5
    python3 perfbench/spread.py --traced     # seeds 1-10, every workload

Runs are sequential, one process at a time.  With ``--traced`` each workload
also gets one traced run (first seed) for its per-layer numbers.  The summary,
with the raw wall times, the machine record and the determinism digests, is
written as JSON to ``--out`` (default ``perfbench/.work/spread.json``).
``perfbench/baseline.json`` is the ``--traced`` summary of the seed commit
with notes that compare it to earlier figures.
Exit code 1 when a run was incorrect or a spread (other than setup_s) is not
below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}


def run(spec, workload, seed, seconds, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    record = json.loads((WORK / f"run-{workload}-s{seed}-t{trace}.json").read_text())
    return json.loads(lines[-1]), record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, default=WORK / "spread.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        results, records = [], []
        for seed in args.seeds:
            result, record = run(spec, workload, seed, args.seconds, 0)
            results.append(result)
            records.append(record)
            ok &= result["correct"]
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals} "
                  f"raw wall_s {record['info']['wall_s']:.4f}", flush=True)
        summary.setdefault("machine", records[0]["machine"])
        rows = {}
        for name, bound in bounds.items():
            row = spread([r["metrics"][name]["value"] for r in results])
            row["bound"] = bound
            row["steady"] = name == "setup_s" or row["iqr_over_median"] < bound / 3
            ok &= row["steady"]
            rows[name] = row
            print(f"  {workload} {name}: median {row['median']:.6g}, spread "
                  f"{row['iqr_over_median']:.2%} (bound {bound:.0%}, "
                  f"{'ok' if row['steady'] else 'TOO WIDE'})")
        raw = spread([r["info"]["wall_s"] for r in records])
        print(f"  {workload} raw wall_s: median {raw['median']:.6g}, spread {raw['iqr_over_median']:.2%}")
        entry = {
            "end_to_end": rows,
            "raw_wall_s": raw,
            "runs": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], **{k: v["value"] for k, v in r["metrics"].items()},
                      **{k: v for k, v in rec["info"].items() if not isinstance(v, list)},
                      "loadavg_start": rec["machine"]["loadavg_start"][0],
                      "loadavg_end": rec["machine"]["loadavg_end"][0],
                      "digests": rec["digests"]}
                     for s, r, rec in zip(args.seeds, results, records)],
        }
        if args.traced:
            result, record = run(spec, workload, args.seeds[0], args.seconds, 1)
            ok &= result["correct"]
            trace = record["trace"]
            entry["traced"] = {
                "seed": args.seeds[0],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "absent": trace["absent_metrics"],
                "layer_self_s": trace["layer_self_s"],
                "overhead_ref_s": trace["overhead_ref_s"],
                **{k: v for k, v in trace.items() if k.startswith(("cli.self_s.", "mc.ak_estimate.self_s."))},
            }
            print(f"  {workload} traced: correct={result['correct']} overhead_ref_s {trace['overhead_ref_s']:.4f}")
        summary["workloads"][workload] = entry
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
