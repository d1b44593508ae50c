"""The program entry: ``python -m lightclock`` as a shell runs it.

The golden and CLI tests call ``cli.main`` in-process; these run the real
entry in a child process, and check the process-wide state it sets: the
BLAS thread default and the collector policy.
"""

import gc
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

# runs the entry on one argv, then reports the collector as the process left
# it, just before the interpreter's exit collection
GC_PROBE = """
import gc, runpy, sys
sys.argv = ["lightclock", *{argv!r}]
try:
    runpy.run_module("lightclock", run_name="__main__")
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(code, gc.isenabled(), gc.get_freeze_count() > 0)
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


EXIT_ARGVS = [
    (["velmap", "--vmax", "0.5", "--steps", "2"], 0),
    (["decay", "--samples", "0"], 2),
    # z = -33.14: the normal approximation of the gate at one sample
    (["decay", "--tau-s", "1", "--samples", "1", "--seed", "42"], 3),
]


@pytest.mark.parametrize("argv, exit_code", EXIT_ARGVS, ids=["exit-0", "exit-2", "exit-3"])
def test_entry_runs_without_the_collector_and_freezes_the_heap(argv, exit_code):
    proc = subprocess.run([sys.executable, "-c", GC_PROBE.format(argv=argv)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{exit_code} False True"


def test_in_process_main_leaves_the_collector_alone(cli):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    for argv, exit_code in EXIT_ARGVS:
        assert cli(argv).exit_code == exit_code
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def decay_argv(samples: int, workers: int) -> list[str]:
    return ["decay", "--tau-s", "1", "--samples", str(samples), "--seed", "7",
            "--workers", str(workers)]


# each group runs one command at growing sizes
GARBAGE_GROUPS = {
    "decay-1-worker": [decay_argv(10 ** 3, 1), decay_argv(10 ** 6, 1)],
    "decay-2-workers": [decay_argv(10 ** 3, 2), decay_argv(10 ** 6, 2)],
    "velmap": [["velmap", "--vmax", "0.5", "--steps", str(n)] for n in (10, 10 ** 4)],
    "radar": [["radar", "--x0", "1", "--v", "0.5", *[f"--t1={t}" for t in range(1, n + 1)]]
              for n in (1, 100)],
    "derive": [["derive", "--v", "0.5"], ["derive", "--v", "1/3", "--exact"]],
}


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("group", list(GARBAGE_GROUPS))
def test_cyclic_garbage_does_not_grow_with_the_size(cli, collector_off, group):
    """The entry runs a command with the collector off, so memory is bounded
    only while what a command leaves in reference cycles does not grow with
    its size: a cycle per leaf, row or record fails here."""
    argvs = GARBAGE_GROUPS[group]
    cli(argvs[0])  # loads what the command imports, and the garbage of that
    found = []
    for argv in argvs:
        gc.collect()
        assert cli(argv).exit_code == 0
        found.append(gc.collect())
    assert found == [found[0]] * len(argvs), found


def test_console_script_uses_the_same_entry():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^lightclock = "(.*)"$', text, re.M)[1] == "lightclock.__main__:main"
