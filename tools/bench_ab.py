"""A/B benchmark of a parent revision against the working tree: alternating
pairs of perfbench runs, written to one ``BENCH_<label>.json``.

    python3 tools/bench_ab.py --parent HEAD --label my_change \\
        --case point-mc:1 --case point-mc:2 --case sweep-mc:1 --pairs 10

It benchmarks the repository it lives in.  It makes two ``git archive``
copies in a fresh temporary directory, removed at the end: the parent
revision, and the working tree as it stands, untracked files included and
ignored ones left out (a tree written through a private index, so the real
index is not touched), at paths of equal length.  Each copy has its own
``perfbench/.work``.  For every case ``WORKLOAD:SEED`` it then runs
``BENCHMARK.json``'s command in each copy,

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds RUN_SECONDS --trace 0

with ``BENCHMARK.json``'s ``run_seconds``, ``--pairs`` times, one run at a
time; the parent runs first in odd pairs (1, 3, ...) and the change first in
even ones.  The BENCH file holds, per case and end-to-end metric of
``BENCHMARK.json``, each side's values, median and quartiles (``spread`` of
``perfbench/spread.py``), the pairs the change won, the relative median
change, whether that change stays within the metric's bound, and whether the
gain is clear (won in at least 9 of 10 pairs and a median gap above the
parent's quartile spread); whether the operation digests of the two sides
agree; every run's digest line and last stdout line; and the machine record
``perfbench/run.py`` wrote for the first run.  No machine setting is changed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import spread  # noqa: E402


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree(scratch):
    """A tree object of the working tree, written through a private index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def archive(treeish, dest):
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(spec, copy, workload, seed):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln for ln in lines if ln.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
        record = json.loads((copy / "perfbench" / ".work"
                             / f"run-{workload}-s{seed}-t0.json").read_text())
    except (IndexError, OSError, json.JSONDecodeError):
        result = record = None
    return {"returncode": proc.returncode, "digest": digest,
            "last_line": lines[-1] if lines else None, "result": result,
            "machine": record and record["machine"],
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def summarize(runs, metrics):
    """Per metric: each side's spread, the pairs the change won, the relative
    median change and the two verdicts."""
    out = {}
    for m in metrics:
        name = m["name"]
        sides = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs]
                 for side in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        par = {"values": sides["parent"], **spread(sides["parent"])}
        chg = {"values": sides["change"], **spread(sides["change"])}
        rel = chg["median"] / par["median"] - 1.0
        out[name] = {
            "parent": par, "change": chg, "rel_change": rel,
            "pairs_won": f"{won}/{len(runs)}",
            "bound": m["bound"], "within_bound": sign * rel <= m["bound"],
            "clear_gain": won >= 0.9 * len(runs)
                          and sign * (par["median"] - chg["median"]) > par["q3"] - par["q1"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--case", action="append", required=True, metavar="WORKLOAD:SEED")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    try:
        cases = [(w, int(seed)) for w, seed in (c.split(":") for c in args.case)]
    except ValueError:
        ap.error("--case takes WORKLOAD:SEED")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = git("rev-parse", "--short", args.parent)
    head = git("rev-parse", "--short", "HEAD")
    report = {
        "label": args.label, "parent_commit": parent,
        "change_measured": f"the working tree on {head}, copied with git archive",
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "procedure": "two git archive copies, each with its own perfbench/.work; "
                     f"{args.pairs} pairs per case, one run at a time, the parent "
                     "first in odd pairs and the change first in even ones",
        "tool": "tools/bench_ab.py", "machine": None,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "cases": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        scratch = Path(tmp)
        # paths of one length: in an A/A run, copies at parent-<sha> and change
        # read 4% apart on curves and sweep-mc wall_ref_s, 10/10 pairs
        copies = {side: scratch / side / "repo" for side in ("parent", "change")}
        archive(parent, copies["parent"])
        archive(working_tree(scratch), copies["change"])
        for workload, seed in cases:
            runs = []
            for k in range(1, args.pairs + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                pair = {"pair": k, "first": order[0]}
                for side in order:
                    run = run_once(spec, copies[side], workload, seed)
                    report["machine"] = report["machine"] or run["machine"]
                    pair[side] = {key: v for key, v in run.items() if key != "machine"}
                    print(f"{workload} seed {seed} pair {k} {side}: "
                          f"{run['last_line']}", flush=True)
                runs.append(pair)
            ok = all(r[s]["returncode"] == 0 and r[s]["result"] and r[s]["result"]["correct"]
                     for r in runs for s in ("parent", "change"))
            digests = {s: sorted({r[s]["digest"] for r in runs}) for s in ("parent", "change")}
            report["cases"][f"{workload} seed {seed}"] = {
                "all_correct": ok,
                "digests_equal": digests["parent"] == digests["change"]
                                 and len(digests["parent"]) == 1,
                "metrics": summarize(runs, spec["end_to_end"]) if ok else None,
                "runs": runs,
            }
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
