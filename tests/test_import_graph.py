"""Import graph: only the decay path loads numpy, the thread pool only when
more than one thread runs, and no command loads click.

Each case runs in a fresh interpreter, since this process has long since
imported numpy.  No timing is asserted, only which modules got loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "concurrent.futures", "click")

CHILD = """
import sys
{body}
loaded = [m for m in {heavy!r} if m in sys.modules]
assert loaded == {expected!r}, f"loaded {{loaded}}, expected {expected!r}"
print("modules checked")
"""

CLI_BODY = """
from lightclock.cli import main
try:
    main({argv!r})
except SystemExit as exc:  # --help and --version exit 0 this way
    assert exc.code == 0, exc.code
"""

LEAN_ARGVS = {
    "derive_exact": ["derive", "--v", "3/5", "--exact"],
    "derive_float": ["derive", "--v", "0.6"],
    "radar_json": ["radar", "--x0", "0", "--v", "0.5", "--t1", "1", "--t1", "2",
                   "--format", "json"],
    "velmap": ["velmap", "--vmax", "0.9", "--steps", "9", "--alternate"],
    "help": ["--help"],
    "version": ["--version"],
}


def run_child(body: str, expected: list) -> None:
    code = CHILD.format(body=body, heavy=HEAVY, expected=expected)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a child that exits early, e.g. through SystemExit(0), checks nothing
    assert proc.stdout.endswith("modules checked\n"), proc.stdout


def test_package_import_is_lean():
    run_child("import lightclock", [])


@pytest.mark.parametrize("argv", LEAN_ARGVS.values(), ids=LEAN_ARGVS.keys())
def test_lean_command_loads_neither(argv):
    run_child(CLI_BODY.format(argv=argv), [])


def test_single_block_decay_loads_numpy_only():
    argv = ["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1", "--workers", "2"]
    run_child(CLI_BODY.format(argv=argv), ["numpy"])


def test_decay_command_loads_both():
    # two blocks of 2^20 samples and two workers: a pool, where two CPUs exist
    argv = ["decay", "--tau-s", "1", "--samples", str(2 ** 21 + 8), "--seed", "1",
            "--workers", "2"]
    pool = ["concurrent.futures"] if (os.cpu_count() or 1) > 1 else []
    run_child(CLI_BODY.format(argv=argv), ["numpy"] + pool)
