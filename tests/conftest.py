"""Seed every hypothesis run, so the suite draws the same examples each time,
and run the CLI as a shell would see it: in-process through ``invoke_cli``,
or in a fresh interpreter through ``run_child``.  ``check_output`` states
what any run may print and exit with.  The root ``conftest.py`` owns the
environment policy."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import pytest
from hypothesis import settings

import lightclock
from lightclock import cli as cli_module
from lightclock.cli import main
from lightclock.schemas import load_schema

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    argv: tuple = ()  # of an in-process run, for check_output


def invoke_cli(args: list[str]) -> CliResult:
    """Exit code, stdout and stderr of one ``lightclock`` command, run
    in-process.  Any exception other than ``SystemExit`` propagates."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(code, out.getvalue(), err.getvalue(), tuple(args))


def run_child(args: list[str], **env: str | None) -> CliResult:
    """Exit code, stdout and stderr of ``python *args`` in a fresh interpreter
    that imports lightclock from this checkout's ``src``.  ``env`` sets
    variables for the child, or unsets those given as None."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = {key: value for key, value in {**os.environ, "PYTHONPATH": path, **env}.items()
             if value is not None}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child, timeout=60)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


# texts at cli.MAX_DIGITS, an exponent's magnitude counted as digits: 4300 are
# read and 4301 refused; 0e5000 is refused although it is 0, and 1e4299 as
# beyond the float range.  The derive fuzz and the corpus draw from them.
DIGIT_TEXTS = ["1e-4299", "1e-4300", "-1e-4299", "0.5e-4298", "0.5e-4299", "0e5000",
               "1e4299", "0." + "3" * 4299, "0." + "3" * 4300, "1/" + "7" * 4298,
               "1/" + "7" * 4299]


def _validator(name):
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


VALIDATORS = {"radar": _validator("radar_records"), "derive": _validator("derive_report"),
              "decay": _validator("decay_report")}
HEADERS = {"radar": "t1,t3,c,tE,rE,vE", "velmap": "v,w",
           "decay": "tau_s,v,c,lambda,gamma,tau_m_analytic,tau_hat_s,tau_hat_m,"
                    "ratio,z_score,samples,seed"}
FIXED_TEXTS = {cli_module._help(name) for name in [None, *cli_module._COMMANDS]} | {
    f"lightclock {lightclock.__version__}\n"}


def _report_rows(command, argv, stdout):
    """The rows, as dicts, of ``command``'s report in the format ``argv`` asks
    (its last ``--format``; csv by default, json for derive): finite JSON valid
    against its schema, or a table of finite CSV cells under its header."""
    fmt = "json" if command == "derive" else "csv"
    for token, following in zip(argv, [*argv[1:], None]):
        flag, eq, text = token.partition("=")
        fmt = (text if eq else following) if flag == "--format" else fmt
    if fmt == "json":
        report = json.loads(stdout, parse_constant=lambda text: pytest.fail(f"JSON holds {text}"))
        VALIDATORS[command].validate(report)
        return report if isinstance(report, list) else [report]
    header = HEADERS[command] + (",w_alt" if command == "velmap" and "--alternate" in argv
                                 else "")
    lines = stdout.splitlines()
    assert stdout.endswith("\n") and lines[0] == header and len(lines) > 1, stdout[:200]
    names = header.split(",")
    rows = [dict(zip(names, line.split(","), strict=True)) for line in lines[1:]]
    for row in rows:
        for name, cell in row.items():
            # only radar's vE has a blank stand-in, for an undefined velocity
            assert (cell == "" and name == "vE") or math.isfinite(float(cell)), (name, cell)
    return rows


def check_output(result: CliResult) -> int:
    """Assert the output contract of one in-process run; return its exit code.

    * Exit 0: stderr is empty, and stdout is the help or version text, or the
      command's report in the format its argv asks for (``_report_rows``).
    * Exit 2: stdout is empty, and stderr is exactly one ``error:`` line.
    * Exit 3 only from decay and exit 4 only from derive, each with its report
      on stdout and one failure line per failed gate or check on stderr.
    """
    code, out, err = result.exit_code, result.stdout, result.stderr
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (out[:200], err)
        return code
    if code == 0 and out in FIXED_TEXTS:
        assert err == ""
        return code
    command = next((token for token in result.argv if not token.startswith("-")), None)
    assert command in cli_module._COMMANDS, (command, code, err)
    rows = _report_rows(command, result.argv, out)
    prefixes = []  # of the failure lines that must follow the report
    if command == "derive":
        failed = [name for name, ok in rows[0]["checks"].items() if not ok]
        assert rows[0]["passed"] == (not failed)
        prefixes = [f"certification check failed: {name}: " for name in failed]
    elif command == "decay" and not abs(z := float(rows[0]["z_score"])) <= cli_module.Z_GATE:
        prefixes = [f"dilation check failed: z = {z!r} is outside "]
    assert code == (0 if not prefixes else 3 if command == "decay" else 4), (code, err)
    lines = err.splitlines()
    assert err == "".join(f"{line}\n" for line in lines) and len(lines) == len(prefixes) \
        and all(map(str.startswith, lines, prefixes)), err
    return code


@pytest.fixture(scope="session")
def cli():
    """``invoke_cli``; session-scoped so that hypothesis tests can use it."""
    return invoke_cli
