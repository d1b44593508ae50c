"""Import graph: each command loads only the lightclock modules it runs,
only the decay path loads numpy (and with it inspect), only derive loads
fractions and decimal, only a JSON report loads json, and no
command or submodule loads concurrent.futures, click, argparse or
dataclasses.  The package's lazy exports are the same objects as its
submodules' names.

Each case runs in a fresh interpreter, since this process has long since
imported numpy and every lightclock module.  No timing is asserted, only
which modules got loaded.
"""

import importlib
import inspect
import re

import pytest
from conftest import ROOT, run_child

import lightclock
from lightclock.decay import BLOCK
from lightclock.infinitesimals import DEFAULT_ORDER
from lightclock.line_element import certify_derivation

HEAVY = ("numpy", "inspect", "concurrent.futures", "click", "argparse", "dataclasses")
# numpy loads inspect itself (numpy._core.overrides), so the decay path cannot drop it
NUMPY = ["numpy", "inspect"]

CHILD = """
import sys
{body}
loaded = [m for m in {heavy!r} if m in sys.modules]
assert loaded == {expected!r}, f"loaded {{loaded}}, expected {expected!r}"
ours = sorted(m for m in sys.modules if m.startswith("lightclock."))
assert ours == {ours!r}, f"loaded {{ours}}, expected {ours!r}"
print("modules checked")
"""

# what every command loads to parse its argv, and what each command adds;
# only derive's certification loads infinitesimals
PARSER = ["lightclock.cli", "lightclock.errors"]
LINE_ELEMENT = ["lightclock.line_element"]
COMMAND_MODULES = {
    "radar": sorted(PARSER + ["lightclock.radar"]),
    "derive": sorted(PARSER + LINE_ELEMENT + ["lightclock.infinitesimals"]),
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
    "radar_csv": ["radar", "--x0", "0", "--v", "0.5", "--t1", "1"],
    "velmap": ["velmap", "--vmax", "0.9", "--steps", "9", "--alternate"],
    "help": ["--help"],
    "version": ["--version"],
}


def check_child(body: str, expected: list, ours: list) -> None:
    code = CHILD.format(body=body, heavy=HEAVY, expected=expected, ours=ours)
    result = run_child(["-c", code])
    assert result.exit_code == 0, result.stderr
    # a child that exits early, e.g. through SystemExit(0), checks nothing
    assert result.stdout.endswith("modules checked\n"), result.stdout


def test_package_import_loads_no_submodule():
    # listing the exports loads nothing either
    body = "import lightclock\nassert set(lightclock.__all__) <= set(dir(lightclock))"
    check_child(body, [], [])


def test_first_use_loads_only_that_submodule():
    # a submodule stays reachable as an attribute, as when __init__ imported it
    body = "import lightclock\nassert lightclock.radar.simulate_ping is lightclock.simulate_ping"
    check_child(body, [], ["lightclock.errors", "lightclock.radar"])


def test_submodule_is_an_attribute_of_the_bare_package():
    # the package hook imports a submodule named as an attribute, numpy not yet
    body = ("import lightclock\nassert lightclock.decay is sys.modules['lightclock.decay']\n"
            "assert lightclock.decay.BLOCK == 2 ** 17")
    check_child(body, [], MODULE_IMPORTS["decay"])


# what importing each submodule loads of lightclock
MODULE_IMPORTS = {
    "errors": ["lightclock.errors"],
    "infinitesimals": ["lightclock.errors", "lightclock.infinitesimals"],
    "line_element": ["lightclock.errors"] + LINE_ELEMENT,
    "radar": ["lightclock.errors", "lightclock.radar"],
    "decay": sorted(["lightclock.decay", "lightclock.errors"] + LINE_ELEMENT),
    "cli": PARSER,
}


@pytest.mark.parametrize("module", MODULE_IMPORTS)
def test_submodule_import_loads_none(module):
    check_child(f"import lightclock.{module}", [], MODULE_IMPORTS[module])


@pytest.mark.parametrize("argv", LEAN_ARGVS.values(), ids=LEAN_ARGVS.keys())
def test_lean_command_loads_neither(argv):
    check_child(CLI_BODY.format(argv=argv), [], COMMAND_MODULES[argv[0]])


# only derive loads both, when it certifies, through fractions
RATIONALS = {"fractions", "decimal"}
ENTRY_ARGVS = {**LEAN_ARGVS,
               "decay": ["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1"]}


def check_child_without(argv: list[str], unused: set) -> None:
    body = CLI_BODY.format(argv=argv) + f"assert not {unused!r} & set(sys.modules)\n"
    check_child(body, NUMPY if argv[0] == "decay" else [], COMMAND_MODULES[argv[0]])


@pytest.mark.parametrize("name", ["radar_json", "radar_csv", "velmap", "decay", "help",
                                  "version"])
def test_start_up_loads_no_rationals(name):
    check_child_without(ENTRY_ARGVS[name], RATIONALS)


# only a JSON report loads json
@pytest.mark.parametrize("name", ["radar_csv", "velmap", "decay", "help", "version"])
def test_csv_output_loads_no_json(name):
    check_child_without(ENTRY_ARGVS[name], {"json"})


def test_refused_config_variable_is_not_read():
    # a set LIGHTCLOCK_CONFIG stops a JSON report before its command runs, and
    # no file is parsed, so json stays unloaded
    body = ("import os\nos.environ['LIGHTCLOCK_CONFIG'] = 'cfg.json'\n"
            + CLI_BODY.format(argv=LEAN_ARGVS["radar_json"]).replace("== 0", "== 2")
            + "assert 'json' not in sys.modules\n")
    check_child(body, [], PARSER)


def test_certify_order_default_is_the_infinitesimals_one():
    # one constant in errors, so that velmap and decay never import infinitesimals
    order = inspect.signature(certify_derivation).parameters["order"].default
    assert order == DEFAULT_ORDER


def test_single_block_decay_loads_numpy_only():
    argv = ["decay", "--tau-s", "1", "--samples", "1000", "--seed", "1", "--workers", "2"]
    check_child(CLI_BODY.format(argv=argv), NUMPY, COMMAND_MODULES["decay"])


def test_decay_command_loads_both():
    # both: numpy and the inspect it loads.  More than one leaf and two
    # workers start a second thread where two CPUs exist, and still no
    # thread pool module
    argv = ["decay", "--tau-s", "1", "--samples", str(2 * BLOCK + 8), "--seed", "1",
            "--workers", "2"]
    check_child(CLI_BODY.format(argv=argv), NUMPY, COMMAND_MODULES["decay"])


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


@pytest.mark.parametrize("argv", ENTRY_ARGVS.values(), ids=ENTRY_ARGVS.keys())
def test_entry_loads_only_its_command_modules(argv):
    # the real entry, "python -m lightclock", with each first import logged
    result = run_child(["-X", "importtime", "-m", "lightclock", *argv])
    assert result.exit_code == 0, result.stderr
    imported = {line.split("|")[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert sorted(m for m in imported if m.startswith("lightclock.")) == \
        COMMAND_MODULES[argv[0]]
