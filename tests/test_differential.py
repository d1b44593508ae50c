"""Differential corpus: exit code, stdout and stderr pinned per argv by digest.

A fixed ``random.Random`` seed draws a few thousand argvs over the four
commands: valid values, malformed and out-of-range ones, non-finite floats,
and the reading rules of ``cli._read`` (a repeated flag, ``--flag=value``,
an unknown flag, a missing value, ``--``, ``--help``, ``--version``).  A
second seed appends derive argvs with one value at the digit bound,
``cli.MAX_DIGITS``, so that the first block's lines never move.  Each case
runs in-process through ``cli.main`` with ``LIGHTCLOCK_CONFIG`` unset and
without ``--out``, so no case depends on a file or a temporary path.  Each
line of ``data/differential.txt`` holds a case's exit code, the sha256 of its
stdout and the sha256 of its stderr, then its argv; all three must match, and
every case keeps the output contract of ``conftest.check_output``.

An intended output change regenerates that file, and its diff shows which
part of which argv changed:

    PYTHONPATH=src python tests/test_differential.py --regen

Like ``data/cli_golden.txt``, the decay cases pin the lifetime bits of the
numpy build and CPU dispatch level the file was made on (numpy's ``log1p``
takes another path on a host without AVX512).
"""

import hashlib
import os
import random
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import DIGIT_TEXTS, check_output, invoke_cli

from lightclock.cli import ENV_CONFIG

CORPUS = Path(__file__).with_name("data") / "differential.txt"
SEED = 20261019
CASES_PER_COMMAND = 600
COMMANDS = ("radar", "derive", "decay", "velmap")
DIGIT_SEED = 20261021
DIGIT_CASES = 40

# texts for a float flag beyond its usual range, each valid or not
ODD_FLOATS = ["0", "-0.0", "-1", "1", "2", "1e-9", "1e15", "1e16", "1e308", "-1e308",
              "1.7e308", "5e-324", "2.2250738585072014e-308", "nan", "inf", "-inf",
              "abc", "", "1/3", "0x10", "1e400", " 1"]
ODD_INTEGERS = ["0", "-1", "1e3", "abc", "", "1.5", "1000000001", str(2 ** 64)]


def _float(rng, lo, hi):
    """A plausible value in [lo, hi], sometimes an odd one."""
    if rng.random() < 0.12:
        return rng.choice(ODD_FLOATS)
    return repr(round(rng.uniform(lo, hi), rng.choice([1, 3, 17])))


def _rational(rng, lo, hi):
    r = rng.random()
    if r < 0.4:
        q = rng.randint(1, 60)
        return f"{rng.randint(int(lo * q), int(hi * q))}/{q}"
    if r < 0.5:
        return rng.choice(["1/0", "x/3", "3/-4", "-1/2", "0/5", "1e-300", "7/41", "22/41"])
    return _float(rng, lo, hi)


def _integer(rng, lo, hi):
    return rng.choice(ODD_INTEGERS) if rng.random() < 0.06 else str(rng.randint(lo, hi))


def _flags(rng, command):
    """(flag, value or None for an on/off flag) pairs of one argv."""
    c = [("--c", rng.choice(["1", "2", "0.5", "3e8", "0", "-1", "-0.0"]))] \
        if rng.random() < 0.3 else []
    fmt = [("--format", rng.choice(["csv", "json", "json", "xml"]))] \
        if rng.random() < 0.5 else []
    if command == "radar":
        pings = [("--t1", _float(rng, -2, 10)) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
        return [("--x0", _float(rng, -1, 10)), ("--v", _float(rng, -1.2, 1.2)),
                *pings, *c, *fmt]
    if command == "derive":
        d = [("--d", _rational(rng, -0.5, 0.5))] if rng.random() < 0.4 else []
        c = [("--c", _rational(rng, -1, 3))] if rng.random() < 0.3 else []
        exact = [("--exact", None)] if rng.random() < 0.5 else []
        return [("--v", _rational(rng, -0.2, 1.1)), *d, *c, *exact]
    if command == "decay":
        tau = rng.choice([_float(rng, 0, 5), _float(rng, 1e14, 2e15),
                          repr(10.0 ** rng.randint(-320, 16))])
        return [("--tau-s", tau), ("--v", _float(rng, -0.2, 1.05)), *c,
                # half at most 10, where the z-gate fails now and then (exit 3)
                ("--samples", _integer(rng, 1, rng.choice([10, 10 ** 4]))),
                ("--seed", _integer(rng, 0, 2 ** 64 - 1)),
                ("--workers", _integer(rng, 1, 3)), *fmt]
    alternate = [("--alternate", None)] if rng.random() < 0.5 else []
    return [("--vmax", _float(rng, -0.1, 1.2)), ("--steps", _integer(rng, 1, 200)),
            *c, *alternate]


def _argv(rng, command):
    """One argv; about one in four breaks a reading rule or asks for help."""
    flags = _flags(rng, command)
    rng.shuffle(flags)
    if flags and rng.random() < 0.3:  # drop one, perhaps a required flag
        flags.pop(rng.randrange(len(flags)))
    if flags and rng.random() < 0.1:  # repeat one: the last value wins
        flags.append(rng.choice(flags))
    argv = [command]
    for flag, value in flags:
        if value is None:
            argv.append(flag)
        elif rng.random() < 0.1:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    rule = rng.random()
    if rule < 0.04:
        argv.append("--bogus")
    elif rule < 0.07:
        argv.append(rng.choice([flag for flag, _ in flags] or ["--v"]))  # no value
    elif rule < 0.10:
        argv = ["--", *argv] if rng.random() < 0.5 else [*argv, "--"]
    elif rule < 0.12:
        argv.insert(rng.randrange(len(argv) + 1), "--help")
    elif rule < 0.14:
        argv.insert(rng.randrange(len(argv) + 1), "--version")
    elif rule < 0.15:
        argv[0] = rng.choice(["teleport", "Radar", "-1", "--v"])
    return argv


def _digit_argv(rng):
    """A derive argv with one value at the digit bound."""
    flags = _flags(rng, "derive")
    i = rng.choice([i for i, (_, value) in enumerate(flags) if value is not None])
    flags[i] = (flags[i][0], rng.choice(DIGIT_TEXTS))
    return ["derive"] + [token for flag, value in flags
                         for token in ([flag] if value is None else [flag, value])]


def draw_argvs():
    rng, digit_rng = random.Random(SEED), random.Random(DIGIT_SEED)
    return ([_argv(rng, command) for command in COMMANDS for _ in range(CASES_PER_COMMAND)]
            + [_digit_argv(digit_rng) for _ in range(DIGIT_CASES)])


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(result):
    """The exit code and the sha256 of stdout and of stderr, as one line's prefix."""
    return f"{result.exit_code} {_sha(result.stdout)} {_sha(result.stderr)}"


def read_corpus():
    """(digest, argv) per line of the corpus file."""
    cases = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            code, out, err, text = line.split(" ", 3)
            cases.append((f"{code} {out} {err}", shlex.split(text)))
    return cases


def test_corpus_is_drawn_from_the_seed():
    argvs = draw_argvs()
    assert [argv for _, argv in read_corpus()] == argvs
    assert len(argvs) >= 2000


@pytest.fixture(scope="module")
def runs():
    """(pinned digest, result now) of each case, run once for both tests."""
    return [(sha, invoke_cli(argv)) for sha, argv in read_corpus()]


def test_every_case_keeps_its_output(runs):
    changed = [list(result.argv) for sha, result in runs if digest(result) != sha]
    by_command = dict(Counter(argv[0] for argv in changed))
    assert not changed, (f"{len(changed)} cases changed, by first token {by_command}; "
                         f"the first: {[shlex.join(a) for a in changed[:5]]}")


def test_every_case_keeps_the_output_contract(runs):
    for _, result in runs:
        check_output(result)


def regenerate():
    lines = ["# exit code, sha256 of stdout, sha256 of stderr (UTF-8), then the argv;",
             "# written by: PYTHONPATH=src python tests/test_differential.py --regen"]
    lines += [f"{digest(invoke_cli(argv))} {shlex.join(argv)}" for argv in draw_argvs()]
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_differential.py --regen")
    os.environ.pop(ENV_CONFIG, None)  # as the root conftest.py does for the tests
    regenerate()
