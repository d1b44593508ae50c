"""Seed every hypothesis run, so the suite draws the same examples each time,
and run the CLI in-process as a shell would see it."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import settings

from lightclock.cli import main

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def _set_env(env: dict) -> None:
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def invoke_cli(args: list[str], env: dict | None = None) -> CliResult:
    """Exit code, stdout and stderr of one ``lightclock`` command.

    ``env`` maps variables to set, or to unset where the value is None, for
    this call only.  Any exception other than ``SystemExit`` propagates.
    """
    env = env or {}
    saved = {key: os.environ.get(key) for key in env}
    out, err = io.StringIO(), io.StringIO()
    code = 0
    _set_env(env)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        _set_env(saved)
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def cli():
    """``invoke_cli``; session-scoped so that hypothesis tests can use it."""
    return invoke_cli
