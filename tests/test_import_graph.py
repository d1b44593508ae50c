"""Import graph: each command loads only the lightclock modules it runs,
only the decay path loads numpy, the thread pool only when more than one
thread runs, and no command loads click.  The package's lazy exports are
the same objects as its submodules' names.

Each case runs in a fresh interpreter, since this process has long since
imported numpy and every lightclock module.  No timing is asserted, only
which modules got loaded.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lightclock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("numpy", "concurrent.futures", "click")

CHILD = """
import sys
{body}
loaded = [m for m in {heavy!r} if m in sys.modules]
assert loaded == {expected!r}, f"loaded {{loaded}}, expected {expected!r}"
ours = sorted(m for m in sys.modules if m.startswith("lightclock."))
assert ours == {ours!r}, f"loaded {{ours}}, expected {ours!r}"
print("modules checked")
"""

# what every command loads to parse its argv, and what each command adds
PARSER = ["lightclock.cli", "lightclock.errors"]
LINE_ELEMENT = ["lightclock.infinitesimals", "lightclock.line_element"]
COMMAND_MODULES = {
    "radar": sorted(PARSER + LINE_ELEMENT + ["lightclock.radar"]),
    "derive": sorted(PARSER + LINE_ELEMENT),
    "velmap": sorted(PARSER + LINE_ELEMENT),
    "decay": sorted(PARSER + LINE_ELEMENT + ["lightclock.decay"]),
    "--help": PARSER,
    "--version": PARSER,
}

# every name the package exported eagerly before its exports became lazy
EXPORTS = {
    "decay": ["DecayModel", "EnsembleRun", "FrameComparison", "SeparableSolution",
              "chain_rule_check", "compare_frames", "dilated_lifetime",
              "ode_residual", "operator_check", "population", "run_ensemble"],
    "errors": ["CausalityError", "DegeneratePairError", "GeometryError",
               "LightClockError", "OrderMismatchError", "OutOfGridError",
               "PoleError", "SuperluminalError"],
    "infinitesimals": ["GridApprox", "TruncatedHyper", "grid_approximate",
                       "infinitely_close", "st"],
    "line_element": ["CertificationReport", "LineElementParams", "TransformCoeffs",
                     "certify_derivation", "check_rejected_branch",
                     "compose_velocities_additive_w", "expand_quadratic",
                     "gamma_factor", "invert_nsppm_velocity", "lambda_factor",
                     "line_element_m", "line_element_s", "nsppm_velocity",
                     "solve_transform_coeffs", "standard_rapidity",
                     "transform_differentials", "velocity_ratio"],
    "radar": ["RadarRecord", "Reflector", "einstein_measures", "radar_velocity",
              "simulate_ping"],
}

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


def run(args: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "LIGHTCLOCK_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def run_child(body: str, expected: list, ours: list) -> None:
    code = CHILD.format(body=body, heavy=HEAVY, expected=expected, ours=ours)
    proc = run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # a child that exits early, e.g. through SystemExit(0), checks nothing
    assert proc.stdout.endswith("modules checked\n"), proc.stdout


def test_package_import_loads_no_submodule():
    # listing the exports loads nothing either
    body = "import lightclock\nassert set(lightclock.__all__) <= set(dir(lightclock))"
    run_child(body, [], [])


def test_first_use_loads_only_that_submodule():
    # a submodule stays reachable as an attribute, as when __init__ imported it
    body = "import lightclock\nassert lightclock.radar.simulate_ping is lightclock.simulate_ping"
    run_child(body, [], ["lightclock.errors", "lightclock.infinitesimals",
                         "lightclock.line_element", "lightclock.radar"])


@pytest.mark.parametrize("argv", LEAN_ARGVS.values(), ids=LEAN_ARGVS.keys())
def test_lean_command_loads_neither(argv):
    run_child(CLI_BODY.format(argv=argv), [], COMMAND_MODULES[argv[0]])


def test_single_block_decay_loads_numpy_only():
    argv = ["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1", "--workers", "2"]
    run_child(CLI_BODY.format(argv=argv), ["numpy"], COMMAND_MODULES["decay"])


def test_decay_command_loads_both():
    # two blocks of 2^20 samples and two workers: a pool, where two CPUs exist
    argv = ["decay", "--tau-s", "1", "--samples", str(2 ** 21 + 8), "--seed", "1",
            "--workers", "2"]
    pool = ["concurrent.futures"] if (os.cpu_count() or 1) > 1 else []
    run_child(CLI_BODY.format(argv=argv), ["numpy"] + pool, COMMAND_MODULES["decay"])


def test_exports_are_the_submodules_names():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"lightclock.{module}")
        for name in names:
            assert getattr(lightclock, name) is getattr(source, name), name
            assert name in dir(lightclock), name
    assert sorted(lightclock.__all__) == sorted(n for ns in EXPORTS.values() for n in ns)


def test_readme_imports_are_exported():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = re.search(r"^from lightclock import \(([^)]*)\)", text, re.M)[1]
    assert set(names.replace(",", " ").split()) <= set(lightclock.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lightclock.no_such_name  # noqa: B018


ENTRY_ARGVS = {**LEAN_ARGVS,
               "decay": ["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1"]}


@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS.keys())
def test_entry_loads_only_its_command_modules(argv):
    # the real entry, "python -m lightclock", with each first import logged
    proc = run(["-X", "importtime", "-m", "lightclock", *argv])
    assert proc.returncode == 0, proc.stderr
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert sorted(m for m in imported if m.startswith("lightclock.")) == \
        COMMAND_MODULES[argv[0]]
