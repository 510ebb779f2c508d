"""Benchmark of mg1tail: four workloads (three of them in BENCHMARK.json),
end-to-end metrics, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload sweep-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run it from the root of a checkout; it imports ``mg1tail`` from ``src/`` there
and fails (exit 1, no result line) when that is missing.  Each run works in a
single process on the numpy backend, with no pools and no extra threads.

A run builds the workload's inputs from ``--seed`` and repeats whole passes of
its operations, starting another pass only while the passes so far plus one
more fit in ``--seconds`` (at least one pass).  Every output is checked (see
``workloads.py``).  With ``--trace 0`` the last line of stdout is a JSON object
whose metrics are the end-to-end ones:

* ``wall_ref_s``: median seconds of one pass, tracing off, at the reference
  machine speed (``gauge.py``); the raw median ``wall_s`` is printed too;
* ``setup_s``: median over several fresh interpreters of the time from start
  to ``import mg1tail`` done and the inputs built, at the reference speed
  (raw: ``setup_raw_s``);
* ``peak_rss_mb``: the process's peak resident set size.

Also printed, not in the JSON: ``mc_samples_per_s`` (Monte Carlo samples per
raw second) on the two Monte Carlo workloads, ``failed_frac``, and
``oracle_rel_width_max`` on ``exact-refs``.

With ``--trace 1`` the run then makes one more pass with the tracer installed,
runs the per-layer probes (``probes.py``), and the JSON metrics are the
per-layer ones.  Layer self times of the traced pass and the tracing overhead
(traced pass minus the untraced median, both at reference speed) are printed
and written with all spans to ``perfbench/.work/trace-<workload>-s<seed>.json``.

Determinism: each operation's output gets a sha256.  Digests that differ
between passes, or from an earlier run with the same workload and seed in this
checkout (kept in ``perfbench/.work/digests.json``), count as failed
operations.  The machine record printed with every result says what the
machine was and that no machine setting was changed.
"""

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
DIGESTS = WORKDIR / "digests.json"
SETUP_REPEATS = 5
SETUP_GAUGE_SAMPLES = 15
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("sweep-mc", "point-mc", "exact-refs", "curves")
# workloads left out of BENCHMARK.json, and why; they still run here
UNGATED = {
    "exact-refs": "left out of BENCHMARK.json as unsteady: wall_ref_s quartile spread "
                  "10.7% of the median over ten seeds (raw wall_s 8.7%), above a third "
                  "of the 25% bound; the same oracle pass runs up to ~10% slower in "
                  "one process than in another. Its six brackets are timed, width-"
                  "measured and checked by the per-layer probes of every traced run.",
}


def import_package():
    """Import mg1tail from this checkout's src/ or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mg1tail
    except ImportError as e:
        sys.exit(f"error: cannot import mg1tail from {src}: {e}")
    if not Path(mg1tail.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: mg1tail was imported from {mg1tail.__file__}, not {src}")


def machine_record():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg_start": list(os.getloadavg()),
        "machine_settings": "none changed: no CPU pinning, no frequency control",
    }


def measure_setup(workload, seed):
    """(raw, reference-speed) seconds from interpreter start to inputs built,
    in fresh processes; the gauge samples the machine around each one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        g = Gauge()
        g.sample_now(SETUP_GAUGE_SAMPLES)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        g.sample_now(SETUP_GAUGE_SAMPLES)
        ref.append(raw[-1] * g.scale())
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed: {proc.stderr.strip()}")
    return raw, ref


def run_pass(ops, gauge=None):
    """Run every operation once; returns (wall s, [(result, error)]).  With a
    gauge open over the pass, the gauge's own time is left out."""
    results = []
    with gauge or contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in ops:
            try:
                results.append((op.call(), None))
            except Exception as e:  # an operation that raises has failed
                results.append((None, f"{type(e).__name__}: {e}"))
        wall = time.perf_counter() - t0
    return wall - (gauge.spent if gauge else 0.0), results


class Ledger:
    """Operations attempted and failed, with the reasons, digests and sample
    counts across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.samples = []

    def outcome(self, label, problems):
        """One operation attempted; it failed when ``problems`` is not empty."""
        self.attempted += 1
        self.fail(label, problems)

    def fail(self, label, problems):
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def record(self, ops, results, label):
        samples = 0
        for op, (res, err) in zip(ops, results):
            problems = [err] if err else None
            if problems is None:
                try:
                    problems = op.check(res)
                    fp = op.fingerprint(res)
                    samples += op.samples(res)
                except Exception as e:  # unreadable output is a failed check
                    problems = [f"output not checkable: {type(e).__name__}: {e}"]
            if not problems:
                seen = self.digests.setdefault(op.name, fp)
                if seen != fp:
                    problems = [f"digest {fp[:12]} differs from {seen[:12]} of an earlier pass"]
            self.outcome(f"{label} {op.name}", problems)
        self.samples.append(samples)

    def compare_cache(self, key):
        """Compare digests with earlier runs of this workload and seed here;
        an operation whose digest changed counts as failed once more."""
        cache = {}
        if DIGESTS.exists():
            cache = json.loads(DIGESTS.read_text())
        earlier = cache.get(key, {})
        for name, fp in self.digests.items():
            if name in earlier and earlier[name] != fp:
                self.fail(name, [f"digest {fp[:12]} differs from an earlier run ({earlier[name][:12]})"])
        cache[key] = {**earlier, **self.digests}
        tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, DIGESTS)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args):
    import probes
    import workloads
    from tracer import Tracer

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    setup_raw, setup_ref = measure_setup(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, WORKDIR)
    ledger = Ledger()
    checker_problems = workloads.self_check(workloads.load_refs())
    ledger.outcome("self-check", checker_problems)

    walls, scales = [], []
    start = time.perf_counter()
    while True:
        gauge = Gauge()
        wall, results = run_pass(ops, gauge)
        walls.append(wall)
        scales.append(gauge.scale())
        ledger.record(ops, results, f"pass {len(walls)}")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "wall_ref_s": (statistics.median(w * k for w, k in zip(walls, scales)), "s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # printed with the end-to-end metrics but not gated by BENCHMARK.json
    extra = {"wall_s": (wall_s, "s"), "setup_raw_s": (statistics.median(setup_raw), "s")}
    detail = {"passes": len(walls), "pass_walls_s": walls, "pass_speed_scales": scales,
              "setup_runs_s": setup_raw}
    samples = ledger.samples[0]
    if samples:
        extra[f"mc.samples.{args.workload}"] = (samples, "count")
        extra["mc_samples_per_s"] = (samples / wall_s, "1/s")
        if len(set(ledger.samples)) != 1:
            ledger.fail("mc samples", [f"sample counts differ between passes: {ledger.samples}"])

    per_layer = {}
    if args.trace:
        # spans are timed on a clock that stops while the gauge samples
        gauge = Gauge()
        with gauge, Tracer(clock=lambda: time.perf_counter() - gauge.spent) as tr:
            _, results = run_pass(ops)
        ledger.record(ops, results, "traced pass")
        traced_wall = tr.t1 - tr.t0
        names = tr.by_name()
        trace = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": wall_s,
            "overhead_ref_s": traced_wall * gauge.scale() - end_to_end["wall_ref_s"][0],
            "layer_self_s": tr.layer_self(),
            "by_name": names,
            "absent_targets": tr.absent,
        }
        if "cli.main" in names:
            trace[f"cli.self_s.{args.workload}"] = names["cli.main"]["self_s"]
        for est in ("mg1tail.ak_estimate", "cli.ak_estimate"):
            if est in names:
                trace[f"mc.ak_estimate.self_s.{args.workload}"] = names[est]["self_s"]
        per_layer, absent, outcomes = probes.run_all(args.seed, WORKDIR)
        for name, problems in outcomes:
            ledger.outcome(f"probe {name}", problems)
        trace["absent_metrics"] = absent
        record["trace"] = trace
        trace_path = WORKDIR / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps({**trace, "spans": tr.span_records()}) + "\n")

    ledger.compare_cache(f"{args.workload}/seed{args.seed}")
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    failed = min(ledger.failed, ledger.attempted)
    extra["failed_frac"] = (failed / ledger.attempted, "1")
    if args.workload == "exact-refs":
        widths = [(r.upper - r.lower) / r.value for r, err in results if err is None]
        extra["oracle_rel_width_max"] = (max(widths, default=math.nan), "1")
    info = {**{k: v for k, (v, _) in extra.items()}, **detail}
    record.update(end_to_end={k: v[0] for k, v in end_to_end.items()}, info=info,
                  per_layer={k: v[0] for k, v in per_layer.items()},
                  digests=ledger.digests, failures=ledger.problems)
    record_path = WORKDIR / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine {json.dumps(record['machine'])}")
    if args.workload in UNGATED:
        print(f"note: {args.workload} {UNGATED[args.workload]}")
    print("self_check: a +50% biased estimate counts as failed, an unbiased one does not: "
          + ("no" if checker_problems else "yes"))
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{ledger.attempted} operations attempted, {failed} failed")
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"{name} {fmt(value)} {unit}")
    for name, value in detail.items():
        print(f"{name} {[round(v, 4) for v in value] if isinstance(value, list) else value}")
    combined = workloads.digest(sorted(ledger.digests.items()))
    print(f"digest {len(ledger.digests)} operations {combined} (per operation in {record_path.name})")
    for line in ledger.problems:
        print(f"FAILED {line}")
    if args.trace:
        trace = record["trace"]
        print(f"trace overhead_ref_s {fmt(trace['overhead_ref_s'])} s at reference speed "
              f"(raw: traced {fmt(traced_wall)} s, untraced median {fmt(wall_s)} s)")
        for layer, secs in trace["layer_self_s"].items():
            print(f"trace self_s.{layer} {fmt(secs)} s")
        for key in trace:
            if key.startswith(("cli.self_s.", "mc.ak_estimate.self_s.")):
                print(f"trace {key} {fmt(trace[key])} s")
        for name, (value, unit) in per_layer.items():
            print(f"layer {name} {fmt(value)} {unit}")
        for name in absent:
            print(f"layer {name} absent")
    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit (set-up timing)")
    args = ap.parse_args()
    import_package()
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_only:
        import workloads

        workloads.build(args.workload, args.seed, WORKDIR)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
