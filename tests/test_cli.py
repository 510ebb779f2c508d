import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import mg1tail
from mg1tail import (
    ParetoIntegratedTail,
    QueueModel,
    ak_estimate,
    h_approx,
    heavy_tail,
    heavy_traffic,
    j_approx,
)
from mg1tail.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_record(out):
    rec = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        rec[key] = value
    return rec


def test_approx_ht(capsys):
    code, out = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                    "--rho", "0.8", "--x", "10", "--method", "ht")
    assert code == 0
    rec = parse_record(out)
    assert math.isclose(float(rec["value"]), 0.3011942, rel_tol=1e-6)
    assert rec["regime"] == "heavy-traffic"


def test_approx_j(capsys):
    code, out = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                    "--rho", "0.8", "--x", "10", "--method", "j")
    assert code == 0
    assert math.isclose(float(parse_record(out)["value"]), 0.2674981, rel_tol=1e-6)


def test_approx_all_methods_run(capsys):
    for method in ("ht", "tail", "h", "j", "h-clt", "geom"):
        code, _ = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                      "--rho", "0.8", "--x", "10", "--method", method)
        assert code == 0
    for method in ("cl", "corrected-ht"):
        code, _ = run(capsys, "approx", "--dist", "exp:rate=1",
                      "--rho", "0.8", "--x", "1", "--method", method)
        assert code == 0


def test_approx_cl_is_exactly_the_heavy_traffic_exponential(capsys):
    # theta* = rate (1-rho) = 0.5 in closed form, so e^{-theta* x} is e^-2
    code, out = run(capsys, "approx", "--dist", "exp:rate=1", "--rho", "0.5",
                    "--x", "4", "--method", "cl")
    assert code == 0
    assert out.splitlines()[0] == "value " + format(math.exp(-2.0), ".17g")


def test_exit_code_unsupported_combination(capsys):
    # infinite variance: no normal-refined approximation
    code, _ = run(capsys, "approx", "--dist", "pareto-it:alpha=2.5",
                  "--rho", "0.8", "--x", "10", "--method", "h-clt")
    assert code == 3
    code, _ = run(capsys, "approx", "--dist", "exp:rate=1",
                  "--rho", "0.8", "--x", "10", "--method", "geom")
    assert code == 3
    code, _ = run(capsys, "threshold", "--dist", "exp:rate=1", "--rho", "0.8")
    assert code == 3


def test_exit_code_usage(capsys):
    code, _ = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                  "--rho", "1.5", "--x", "10", "--method", "ht")
    assert code == 2
    code, _ = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                  "--rho", "0.8", "--method", "ht")  # missing --x
    assert code == 2
    code, _ = run(capsys, "approx", "--dist", "nonsense:a=1",
                  "--rho", "0.8", "--x", "1", "--method", "ht")
    assert code == 2
    assert main(["approx", "--method", "bogus"]) == 2
    code, _ = run(capsys, "approx", "--dist", "pareto-it:alpha=3.5",
                  "--rho", "0.8", "--x", "nan", "--method", "ht")
    assert code == 2
    # exp(x/(2 rate) - rate x/(1-rho)) overflows: one error line, no traceback
    assert main(["approx", "--dist", "exp:rate=0.3", "--rho", "0.3",
                 "--x", "10000", "--method", "corrected-ht"]) == 2
    assert capsys.readouterr().err == "error: result overflows a float (math range error)\n"
    for cmd in ("simulate", "compare"):
        code, _ = run(capsys, cmd, "--dist", "exp:rate=1", "--rho", "0.5",
                      "--x", "2", "--max-samples", "0")
        assert code == 2
    for method in ("ak", "crude"):
        code, _ = run(capsys, "simulate", "--dist", "exp:rate=1", "--rho", "0.5",
                      "--x", "nan", "--method", method)
        assert code == 2
    assert main(["no-such-command"]) == 2


def test_infinite_x_is_a_usage_error(tmp_path, capsys):
    for method in ("j", "h"):
        assert main(["approx", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                     "--x", "inf", "--method", method]) == 2
        assert capsys.readouterr().err == "error: x must be finite, got inf\n"
    assert main(["sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                 "--x-min", "1", "--x-max", "inf", "--points", "3",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "error: --x-max must be finite, got inf\n"
    # a usage error found after the first value is computed prints no line
    pareto = ["--dist", "pareto-it:alpha=3.5", "--rho", "0.9"]
    for argv in (["threshold", *pareto, "--x", "inf"],
                 ["threshold", *pareto, "--x", "0.5"],
                 ["threshold", *pareto, "--x", "50", "--c", "0"],
                 ["threshold", *pareto, "--c", "0"],
                 ["approx", "--dist", "exp:rate=1", "--rho", "0.5", "--x", "inf",
                  "--method", "corrected-ht"],
                 *(["geom", "--betaY", "3", "--p", "0.1", "--x", x]
                   for x in ("-1", "nan", "inf")),
                 ["geom", "--betaY", "3", "--p", "0.1", "--x", "10", "--simulate",
                  "--n-samples", "5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_nan_lattice_mass_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "lat.txt"
    p.write_text("1.0 nan\n2.0 1.0\n")
    code = main(["simulate", "--dist", f"lattice:file={p}", "--rho", "0.5",
                 "--x", "1.5", "--max-samples", "1000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {p}: masses sum to nan, expected 1\n"


def test_exit_code_io(capsys):
    code, _ = run(capsys, "sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                  "--x-min", "1", "--x-max", "10", "--points", "3",
                  "--out", "/no/such/dir/table.csv")
    assert code == 4


def test_threshold_output(capsys):
    code, out = run(capsys, "threshold", "--dist", "pareto-it:alpha=3.1", "--rho", "0.95")
    assert code == 0
    rec = parse_record(out)
    assert math.isclose(float(rec["threshold_x"]), 125.8208, rel_tol=1e-6)
    assert math.isclose(float(rec["kappa"]), 2.1, rel_tol=1e-12)
    code, out = run(capsys, "threshold", "--dist", "pareto-it:alpha=3.5",
                    "--rho", "0.8", "--x", "100")
    rec = parse_record(out)
    assert math.isclose(float(rec["rho_threshold"]), 0.8848707, rel_tol=1e-6)
    assert rec["rho_threshold_in_range"] == "true"
    assert rec["regime"] == "heavy-tail"


def test_threshold_without_crossing(capsys):
    # so close to rho = 1 the curves do not cross before the search gives up
    code, out = run(capsys, "threshold", "--dist", "pareto-it:alpha=3.5",
                    "--rho", "0.999999999999")
    assert code == 0
    assert parse_record(out)["crossing_point"] == "none"


def test_simulate_output(capsys):
    code, out = run(capsys, "simulate", "--dist", "exp:rate=1", "--rho", "0.5",
                    "--x", "2", "--seed", "7")
    assert code == 0
    rec = parse_record(out)
    exact = 0.5 * math.exp(-1.0)
    assert abs(float(rec["estimate"]) - exact) / exact < 0.05
    assert float(rec["rel_err"]) <= 0.05
    assert rec["seed"] == "7"
    assert rec["method"] == "asmussen-kroese"
    assert rec["converged"] == "true"
    assert int(rec["n_samples"]) >= 100_000


def test_simulate_crude(capsys):
    code, out = run(capsys, "simulate", "--dist", "exp:rate=1", "--rho", "0.5",
                    "--x", "2", "--seed", "7", "--method", "crude",
                    "--n-samples", "50000")
    assert code == 0
    rec = parse_record(out)
    assert rec["method"] == "crude"
    assert rec["n_samples"] == "50000"


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("MG1_SEED", "31")
    code, out = run(capsys, "simulate", "--dist", "exp:rate=1", "--rho", "0.5", "--x", "2")
    assert code == 0
    assert parse_record(out)["seed"] == "31"
    # explicit flag still wins
    code, out = run(capsys, "simulate", "--dist", "exp:rate=1", "--rho", "0.5",
                    "--x", "2", "--seed", "8")
    assert parse_record(out)["seed"] == "8"


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _ = run(capsys, "sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                  "--x-min", "1", "--x-max", "50", "--points", "8", "--log-grid",
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# model = pareto-it:alpha=3.5") for l in meta)
    assert any(l.startswith("# threshold_x = 20.117973905426258") for l in meta)
    body = [l for l in lines if not l.startswith("# ")]
    rows = list(csv.DictReader(body))
    assert len(rows) == 8
    assert list(rows[0]) == ["x", "heavy_traffic", "heavy_tail", "h", "j", "h_clt", "regime"]
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    xs = []
    for row in rows:
        x = float(row["x"])
        xs.append(x)
        # 17 significant digits reproduce the in-memory doubles exactly
        assert float(row["heavy_traffic"]) == heavy_traffic(q, x)
        assert float(row["heavy_tail"]) == heavy_tail(q, x)
        assert float(row["h"]) == h_approx(q, x)
        assert float(row["j"]) == j_approx(q, x)
    assert xs == sorted(xs)


def test_sweep_single_point_and_infinite_variance(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    code, _ = run(capsys, "sweep", "--dist", "pareto-it:alpha=2.5", "--rho", "0.8",
                  "--x-min", "3", "--x-max", "3", "--points", "1", "--out", str(out_path))
    assert code == 0
    body = [l for l in out_path.read_text().splitlines() if not l.startswith("# ")]
    rows = list(csv.DictReader(body))
    assert len(rows) == 1
    assert "h_clt" not in rows[0]  # column dropped when variance is infinite


def test_sweep_json_matches_simulation(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, _ = run(capsys, "sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                  "--x-min", "5", "--x-max", "20", "--points", "3",
                  "--simulate", "--rel-err", "0.05", "--seed", "42",
                  "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["model"] == "pareto-it:alpha=3.5"
    assert doc["metadata"]["seed"] == 42
    assert len(doc["rows"]) == 3
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    for row in doc["rows"]:
        est = ak_estimate(q, row["x"], target_rel_err=0.05, seed=42)
        assert row["mc_estimate"] == est.estimate
        assert row["mc_rel_err"] == est.rel_err


def test_sweep_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
            "--x-min", "1", "--x-max", "30", "--points", "4", "--log-grid",
            "--simulate", "--rel-err", "0.1", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_compare_table(capsys):
    code, out = run(capsys, "compare", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8",
                    "--x", "10", "--seed", "3", "--rel-err", "0.1")
    assert code == 0
    assert "ratio_to_mc" in out
    for name in ("heavy_traffic", "heavy_tail", "h", "j", "h_clt", "geom"):
        assert name in out


def test_geom_report(capsys):
    code, out = run(capsys, "geom", "--betaY", "2.5", "--p", "0.05", "--x", "149.787")
    assert code == 0
    rec = parse_record(out)
    assert math.isclose(float(rec["threshold_y"]), 149.787, rel_tol=1e-5)
    assert rec["band"] == "threshold-boundary"
    assert math.isclose(float(rec["tau"]), 2.5, rel_tol=1e-12)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ndist = pareto-it:alpha=3.5\nrho = 0.5\nx = 10\nmethod = ht\n")
    # file supplies everything
    code, out = run(capsys, "approx", "--config", str(cfg))
    assert code == 0
    q = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.5)
    assert float(parse_record(out)["value"]) == heavy_traffic(q, 10.0)
    # explicit flag beats the file
    code, out = run(capsys, "approx", "--config", str(cfg), "--rho", "0.8")
    q8 = QueueModel(model=ParetoIntegratedTail(alpha=3.5), rho=0.8)
    assert float(parse_record(out)["value"]) == heavy_traffic(q8, 10.0)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["approx", "--dist", "exp:rate=1", "--rho", "0.5", "--x", "4", "--method", "cl"],
    ["compare", "--dist", "exp:rate=1", "--rho", "0.5", "--x", "1", "--max-samples", "20000"],
    ["--help"],
], ids=["approx", "compare", "help"])
def test_closed_stdout_ends_the_output(argv, unbuffered):
    # the read end of the pipe is closed before the command starts, so its
    # first write meets it: that ends the report with exit 0, unbuffered or
    # not, and nothing on stderr
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(mg1tail.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "mg1tail", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _ = run(capsys, "approx", "--config", str(cfg), "--dist", "exp:rate=1",
                  "--rho", "0.5", "--x", "1", "--method", "ht")
    assert code == 2
    assert main(["approx", "--config", str(tmp_path / "missing.cfg")]) == 4


_SWEEP_CFG = ("dist = pareto-it:alpha=3.5\nrho = 0.8\nx_min = 1\nx-max = 10\npoints = 4\n")
_POINT_CFG = "dist = exp:rate=1\nrho = 0.5\nx = 2\n"

# a config value is taken exactly when the same text is taken by the flag;
# each case is (command, config lines, last stderr line), exit code 2
_CONFIG_REJECTS = {
    "points-float": ("sweep", _SWEEP_CFG + "points = 4.5\n",
                     "mg1tail sweep: error: argument --points: invalid int value: '4.5'"),
    "method-choice": ("approx", _POINT_CFG + "method = bogus\n",
                      "mg1tail approx: error: argument --method: invalid choice: 'bogus' "
                      "(choose from 'ht', 'tail', 'h', 'j', 'h-clt', 'cl', 'corrected-ht', "
                      "'geom')"),
    "format-choice": ("sweep", _SWEEP_CFG + "format = xml\n",
                      "mg1tail sweep: error: argument --format: invalid choice: 'xml' "
                      "(choose from 'csv', 'json')"),
    "switch-word": ("sweep", _SWEEP_CFG + "simulate = maybe\n",
                    "mg1tail sweep: error: argument --simulate: ignored explicit "
                    "argument 'maybe'"),
    "seed-float": ("simulate", _POINT_CFG + "seed = 1.5\n",
                   "mg1tail simulate: error: argument --seed: invalid int value: '1.5'"),
    "n_samples-exponent": ("simulate", _POINT_CFG + "method = crude\nn_samples = 1e5\n",
                           "mg1tail simulate: error: argument --n-samples: invalid int "
                           "value: '1e5'"),
    "help-key": ("simulate", _POINT_CFG + "help = 1\n", "error: unknown config keys: ['help']"),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_REJECTS))
def test_config_value_rejected_like_the_flag(name, tmp_path, capsys):
    command, text, message = _CONFIG_REJECTS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "table.csv"
    argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "sweep" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == message


def test_config_switch_words(tmp_path, capsys):
    argv = ["geom", "--betaY", "2.5", "--p", "0.05", "--x", "149.787", "--n-samples", "1000"]
    cfg = tmp_path / "run.cfg"
    for text, extra, simulates in (("simulate = yes\n", [], True),
                                   ("simulate = false\n", [], False),
                                   ("simulate = false\n", ["--simulate"], True)):
        cfg.write_text(text)
        code, out = run(capsys, *argv, "--config", str(cfg), *extra)
        assert code == 0
        assert ("estimate" in parse_record(out)) is simulates


def test_config_value_equals_flag_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = 10\n")
    argv = ["approx", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8", "--method", "j"]
    assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv, "--x", "10")


def test_config_sweep_bytes_equal_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # method belongs to other subcommands only, so sweep ignores it
    cfg.write_text(_SWEEP_CFG + "log-grid = yes\nsimulate = on\nrel_err = 0.1\nseed = 9\n"
                   "format = json\nmethod = ht\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--dist", "pareto-it:alpha=3.5", "--rho", "0.8", "--x-min", "1",
                 "--x-max", "10", "--points", "4", "--log-grid", "--simulate",
                 "--rel-err", "0.1", "--seed", "9", "--format", "json",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_config_flags_between_environment_and_command_line(tmp_path, capsys, monkeypatch):
    # the file's flags are read right after the command: flags typed after
    # them win, abbreviated ones too, and they win over MG1_SEED
    monkeypatch.setenv("MG1_SEED", "5")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SWEEP_CFG + "seed = 9\nrel_err = 0.2\n")
    out = tmp_path / "table.csv"
    for extra, seed, rel_err in (([], "9", "0.20000000000000001"),
                                 (["--seed", "3"], "3", "0.20000000000000001"),
                                 (["--rel", "0.5"], "9", "0.5")):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *extra]) == 0
        meta = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert f"# seed = {seed}" in meta and f"# rel_err = {rel_err}" in meta
    assert capsys.readouterr().out == ""


def test_bad_seed_environment(capsys, monkeypatch):
    monkeypatch.setenv("MG1_SEED", "abc")
    model = ["--dist", "pareto-it:alpha=3.5", "--rho", "0.8"]
    assert main(["simulate", *model, "--x", "10", "--max-samples", "1000"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "mg1tail simulate: error: argument --seed: invalid int value: 'abc'")
    # threshold takes no seed, and an explicit --seed is not the default
    assert run(capsys, "threshold", *model)[0] == 0
    code, out = run(capsys, "simulate", *model, "--x", "10", "--max-samples", "1000",
                    "--seed", "3")
    assert code == 0 and parse_record(out)["seed"] == "3"
