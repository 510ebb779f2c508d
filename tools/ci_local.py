"""Run the CI workflow's steps locally, job by job, without a runner.

    python3 tools/ci_local.py [REVISION]

It reads ``.github/workflows/tests.yml`` and, for each job, makes a fresh
``git archive`` copy of REVISION (default HEAD) in a temporary directory,
removed at the end.  It runs the job's ``run:`` steps there in order, each
through its ``shell`` (GitHub's defaults when none is given) with the
workflow's, the job's and the step's ``env`` and ``PYTHONPATH=src``, so the
package is imported from the copy and nothing is installed.  A ``uses:``
step is skipped.  A ``pip install`` step is not run: it passes when each
``name==version`` pin in it is the installed version.  It prints one line per
step, with the output's last lines under a failed one, and exits 1 when any
step failed.
"""

import importlib.metadata
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# GitHub's shell when a step names none, and its command for `shell: bash`;
# any other shell is a command line with {0} for the script
DEFAULT_SHELL = "bash -e {0}"
SHELLS = {"bash": "bash --noprofile --norc -eo pipefail {0}"}
TAIL = 20


def archive(rev, dest):
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def check_pins(command):
    """(passed, report) of the installed versions against the command's pins."""
    wrong = []
    for name, pinned in re.findall(r"([A-Za-z0-9_.\-]+)==([^\s\"']+)", command):
        try:
            installed = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            installed = None
        if installed != pinned:
            wrong.append(f"{name} {installed or 'absent'}, pinned {pinned}")
    return not wrong, "; ".join(wrong) or "pins installed"


def run_step(step, env, cwd, script):
    """(passed, output) of a run: step through its shell in cwd."""
    script.write_text(step["run"])
    shell = step.get("shell")
    template = SHELLS.get(shell, shell) if shell else DEFAULT_SHELL
    argv = [str(script) if word == "{0}" else word for word in template.split()]
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return proc.returncode == 0, proc.stdout


def main(argv):
    rev = argv[0] if argv else "HEAD"
    workflow = yaml.safe_load(WORKFLOW.read_text())
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for job_name, job in workflow["jobs"].items():
            copy = Path(tmp) / job_name
            archive(rev, copy)
            for i, step in enumerate(job["steps"], start=1):
                label = f"{job_name} / {step.get('name') or step.get('uses') or i}"
                if "uses" in step:
                    print(f"skip  {label}")
                    continue
                if "pip install" in step["run"]:
                    passed, output = check_pins(step["run"])
                else:
                    env = {**os.environ, **workflow.get("env", {}), **job.get("env", {}),
                           **step.get("env", {})}
                    env["PYTHONPATH"] = "src"
                    passed, output = run_step(step, {k: str(v) for k, v in env.items()},
                                              copy, Path(tmp) / "step.sh")
                print(f"{'pass' if passed else 'FAIL'}  {label}", flush=True)
                if not passed:
                    failed += 1
                    print("".join(f"      {line}\n" for line in output.splitlines()[-TAIL:]),
                          end="", flush=True)
    print(f"{failed} step(s) failed" if failed else "every step passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
