"""The program entry: ``python -m lightclock`` as a shell runs it.

The golden and CLI tests call ``cli.main`` in-process; these run the real
entry in a child process, and check the process-wide state it sets: the
BLAS thread default and the collector policy.
"""

import gc
import os
import re

import pytest
from conftest import ROOT, run_child
from test_cli_golden import CASES
from test_decay import GOLDEN_TAU3_M1E5_SEED42

BLAS_THREADS = "OPENBLAS_NUM_THREADS"
NO_BLAS = {BLAS_THREADS: None}  # so that the entry's own default is in force

DECAY_CASES = [case for case in CASES if case[0][0] == "decay"]

# runs the entry as "python -m lightclock ARGV" does, then reports its exit
# code, the collector and the BLAS thread variable as the process left them,
# just before the interpreter's exit collection
PROBE = """
import gc, os, runpy, sys
sys.argv = ["lightclock", *{argv!r}]
try:
    runpy.run_module("lightclock", run_name="__main__")
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(code, gc.isenabled(), gc.get_freeze_count() > 0, os.environ.get({blas!r}))
"""


def probe(argv: list[str], **env: str | None) -> list[str]:
    result = run_child(["-c", PROBE.format(argv=argv, blas=BLAS_THREADS)], **{**NO_BLAS, **env})
    assert result.exit_code == 0, result.stderr
    return result.stdout.splitlines()[-1].split(" ")


def test_golden_decay_cases_are_read():
    assert len(DECAY_CASES) >= 5


@pytest.mark.parametrize("argv, exit_code, stdout", DECAY_CASES,
                         ids=[" ".join(argv) for argv, _, _ in DECAY_CASES])
def test_decay_through_the_entry_is_pinned(argv, exit_code, stdout):
    result = run_child(["-m", "lightclock", *argv], **NO_BLAS)
    assert (result.exit_code, result.stdout) == (exit_code, stdout)


def test_golden_mean_and_worker_identity_through_the_entry():
    base = ["decay", "--tau-s", "3", "--samples", "100000", "--seed", "42"]
    one, two = (run_child(["-m", "lightclock", *base, "--workers", w], **NO_BLAS) for w in "12")
    assert one.exit_code == two.exit_code == 0
    assert one.stdout == two.stdout
    header, row = one.stdout.splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert float(report["tau_hat_s"]) == GOLDEN_TAU3_M1E5_SEED42


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "user-set"])
def test_entry_sets_single_thread_blas_unless_set(preset, expected):
    code, *_, blas = probe(["--version"], **{BLAS_THREADS: preset})
    assert (code, blas) == ("0", expected)


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
    assert probe(argv)[:3] == [str(exit_code), "False", "True"]


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
