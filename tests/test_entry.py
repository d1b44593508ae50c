"""The program entry: ``python -m lightclock`` as a shell runs it.

The golden and CLI tests call ``cli.main`` in-process; these run the real
entry in a child process, and check the one process-wide default it sets.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lightclock.cli import ENV_CONFIG
from test_cli_golden import CASES
from test_decay import GOLDEN_TAU3_M1E5_SEED42

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "OPENBLAS_NUM_THREADS"

DECAY_CASES = [case for case in CASES if case[0][0] == "decay"]

# runs the entry as "python -m lightclock --version" does, then reports the
# variable as the process left it
ENV_PROBE = """
import os, runpy, sys
sys.argv = ["lightclock", "--version"]
try:
    runpy.run_module("lightclock", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(os.environ.get({name!r}))
"""


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in (ENV_CONFIG, BLAS_THREADS)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_module(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "lightclock", *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)


def test_golden_decay_cases_are_read():
    assert len(DECAY_CASES) >= 5


@pytest.mark.parametrize("argv, exit_code, stdout", DECAY_CASES,
                         ids=[" ".join(argv) for argv, _, _ in DECAY_CASES])
def test_decay_through_the_entry_is_pinned(argv, exit_code, stdout):
    proc = run_module(argv)
    assert (proc.returncode, proc.stdout) == (exit_code, stdout)


def test_golden_mean_and_worker_identity_through_the_entry():
    base = ["decay", "--tau-s", "3", "--samples", "100000", "--seed", "42"]
    one, two = (run_module(base + ["--workers", w]) for w in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    header, row = one.stdout.splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert float(report["tau_hat_s"]) == GOLDEN_TAU3_M1E5_SEED42


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "user-set"])
def test_entry_sets_single_thread_blas_unless_set(preset, expected):
    extra = {} if preset is None else {BLAS_THREADS: preset}
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE.format(name=BLAS_THREADS)],
                          env=child_env(**extra), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


def test_in_process_main_leaves_the_environment_alone(cli):
    before = dict(os.environ)
    result = cli(["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1"])
    assert result.exit_code == 0
    assert dict(os.environ) == before


def test_console_script_uses_the_same_entry():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^lightclock = "(.*)"$', text, re.M)[1] == "lightclock.__main__:main"
