"""Golden CLI output: stdout bytes and exit code pinned per argv.

The argvs and their expected output live in ``data/cli_golden.txt``: the
README examples plus derive, decay, radar and velmap cases chosen for their
rounding, worker counts and error exits.  An intended output change is made
by editing that file, so its diff shows the change line by line.  Each case
also keeps the output contract of ``conftest.check_output``, stderr included.
"""

import shlex
from pathlib import Path

import pytest
from conftest import check_output

GOLDEN = Path(__file__).with_name("data") / "cli_golden.txt"


def load_cases():
    """(argv, exit code, stdout) per "$ lightclock" ... "[exit N]" entry."""
    cases, argv = [], None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ lightclock "):
            argv, stdout = shlex.split(line[len("$ lightclock "):]), []
        elif argv is not None and line.startswith("[exit "):
            cases.append((argv, int(line[len("[exit "):-1]),
                          "".join(s + "\n" for s in stdout)))
            argv = None
        elif argv is not None:
            stdout.append(line)
    return cases


CASES = load_cases()


@pytest.mark.parametrize("argv, exit_code, stdout", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_cli_output_is_pinned(cli, argv, exit_code, stdout):
    result = cli(argv)
    assert (result.exit_code, result.stdout) == (exit_code, stdout)
    check_output(result)


def test_every_entry_is_read_and_every_subcommand_covered():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(CASES) == sum(s.startswith("$ lightclock ") for s in lines) >= 20
    assert {argv[0] for argv, _, _ in CASES} == {"radar", "derive", "decay", "velmap"}
