"""Command-line front end: radar, derive, decay and velmap subcommands.

Outputs are machine readable (CSV with a mandatory header row, or JSON that
validates against the schemas shipped in ``lightclock.schemas``) and byte
reproducible for identical flags and seed.  Flags are the one way to set a
value: ``LIGHTCLOCK_CONFIG``, which once named a JSON file of defaults, is
refused when set, so that an old file's light speed never falls back to 1.

Exit codes: 0 success, 2 parameter error, 3 statistical acceptance failure
(decay z-score gate), 4 internal certification failure.  Exits 3 and 4 say
on stderr which check failed and by how much.

Each command imports the library modules it runs when it runs, and returns
its report, format, failure lines and their exit code: ``main`` writes every
report and sets exits 2 to 4.  ``_read`` (the argv, in one pass) and
``_help`` both work from one table, ``_COMMANDS``.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (BLOCK, MAX_SAMPLES, LightClockError, Record, check_light_speed,
                     check_speed)

ENV_CONFIG = "LIGHTCLOCK_CONFIG"
Z_GATE = 5.0
MAX_STEPS = 10 ** 6
# Python's default limit on the digits of an int read from text: the most a
# rational flag may spell, an exponent e-n or en counted as n digits, so that
# no text builds a power of ten beyond it
MAX_DIGITS = 4300

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_STATISTICAL = 3
EXIT_CERTIFICATION = 4


def _check_finite(name: str, value: float) -> float:
    """The one finiteness check of float flags and CSV cells."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _cell(name: str, value) -> str:
    """One CSV cell: shortest round-trip form of a finite float, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(_check_finite(name, value))
    return str(value)


def _write(report, fmt: str, out: str | None) -> None:
    """The one writer of a report, a dict or a list of dicts, as JSON or as
    CSV: a header row of the keys, then one row per dict."""
    if fmt == "json":
        import json  # only a JSON report needs it

        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:
        rows = report if isinstance(report, list) else [report]
        lines = [",".join(rows[0])]
        lines += [",".join(_cell(key, value) for key, value in row.items()) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def radar(x0, v, t1, c, format):
    """Ping a uniformly moving reflector and print Einstein measures."""
    from .radar import Reflector, simulate_ping

    if not t1:
        raise ValueError("at least one --t1 emission time is required")
    records = [simulate_ping(Reflector(x0=x0, v=v), t, c) for t in t1]
    return [r.as_dict() for r in records], format, [], EXIT_OK


def derive(v, d, c, exact):
    """Certify the line-element derivation chain at one (v, d, c)."""
    from .line_element import certify_derivation

    report = certify_derivation(v, d, c, exact=exact)
    failures = [f"certification check failed: {line}" for line in report.failures]
    return report.as_dict(), "json", failures, EXIT_CERTIFICATION


def decay(tau_s, v, c, samples, seed, workers, format):
    """Compare rest- and moving-frame decay ensembles against 1/gamma."""
    from .decay import compare_frames
    from .line_element import LineElementParams

    params = LineElementParams(v=v, d=0.0, c=c)
    comparison = compare_frames(tau_s, params, samples, seed, workers=workers)
    failures = []
    if not abs(comparison.z_score) <= Z_GATE:
        failures.append(f"dilation check failed: z = {comparison.z_score!r} is outside "
                        f"|z| <= {Z_GATE!r}; tau_hat_s = {comparison.tau_hat_s!r}, "
                        f"tau_hat_m = {comparison.tau_hat_m!r}")
    return comparison.as_dict(), format, failures, EXIT_STATISTICAL


def velmap(vmax, steps, c, alternate):
    """Tabulate the substratum velocity map w(v) as CSV."""
    from .line_element import nsppm_velocity, standard_rapidity

    check_speed(vmax, c)
    if vmax < 0:
        raise ValueError(f"--vmax must be nonnegative, got {vmax}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"--steps must lie in 1..{MAX_STEPS}, got {steps}")
    rows = []
    for i in range(steps + 1):
        vi = vmax * i
        # the last row is vmax itself, which vmax * steps / steps can round
        # away from, even up to c; vmax * i overflows only near the float limit
        vi = vmax if i == steps else vi / steps if vi < math.inf else vmax * (i / steps)
        row = {"v": vi, "w": nsppm_velocity(vi, c)}
        if alternate:
            row["w_alt"] = standard_rapidity(vi, c)
        rows.append(row)
    return rows, "csv", [], EXIT_OK


def _number(kind, flag: str, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"argument {flag}: invalid {kind.__name__} value: "
                         f"{text!r}") from None


def _finite_float(flag: str, text: str) -> float:
    return _check_finite(flag, _number(float, flag, text))


def _integer(flag: str, text: str) -> int:
    return _number(int, flag, text)


def _rational(flag: str, text: str):
    from fractions import Fraction  # only derive reads rationals

    mantissa, _, exponent = text.lower().partition("e")
    try:
        size = abs(int(exponent or 0))
    except ValueError:  # no integer exponent: Fraction rejects the text below
        size = 0
    size += sum(map(str.isdigit, mantissa))
    if size > MAX_DIGITS:
        raise ValueError(f"{flag} must spell at most {MAX_DIGITS} digits, an exponent's "
                         f"magnitude counted as digits, got {size}")
    try:
        value = Fraction(text)
        float(value)  # every report field is a float
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{flag} must be a finite number (decimal or p/q), "
                         f"got {text!r}") from None
    return value


def _path(flag: str, text: str) -> str:
    """The one output-path check, made as the argv is read, so that no work
    is done for an output that must fail."""
    if os.path.isdir(text):
        raise ValueError(f"argument {flag}: {text!r} is a directory")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise ValueError(f"argument {flag}: the directory of {text!r} does not exist")
    return text


def _format(flag: str, text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"argument {flag}: invalid choice: {text!r} "
                         "(choose from 'csv', 'json')")
    return text


class _Option(Record):
    """One flag of one command.  ``convert`` is None for an on/off flag."""

    flag: str
    convert: object
    help: str
    default: object = None
    required: bool = False
    multiple: bool = False

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


_C = _Option("--c", _finite_float, "Local light speed.", 1.0)
_FORMAT = _Option("--format", _format, "Output format.", "csv")
_OUT = _Option("--out", _path, "Write output to this path instead of stdout.")

_COMMANDS = {
    "radar": (radar, (
        _Option("--x0", _finite_float, "Reflector position at t = 0.", required=True),
        _Option("--v", _finite_float, "Reflector velocity; |v| must stay below c.", 0.0),
        _Option("--t1", _finite_float,
                "Emission time of one ping; repeat for several pings.", multiple=True),
        _C, _FORMAT, _OUT)),
    "derive": (derive, (
        _Option("--v", _rational, "Primary velocity.", required=True),
        _Option("--d", _rational, "Secondary velocity term.", 0),
        _Option("--c", _rational, _C.help, _C.default),
        _Option("--exact", None, "Certify over exact rationals at zero tolerance."),
        _Option("--out", _path, "Write the JSON report to this path instead of stdout."))),
    "decay": (decay, (
        _Option("--tau-s", _finite_float, "Rest-frame mean lifetime.", required=True),
        _Option("--v", _finite_float, "Relative velocity of the decaying source.", 0.0),
        _C,
        _Option("--samples", _integer, f"Lifetimes drawn per frame, 1..{MAX_SAMPLES}.",
                100_000),
        _Option("--seed", _integer, "Unsigned 64-bit seed of the counter-based stream.", 0),
        _Option("--workers", _integer,
                "Threads, capped at the CPU count, over the leaves of numpy's pairwise "
                f"sum: at most 2^{BLOCK.bit_length() - 1} samples each, sized by "
                f"--samples; memory is O(threads x {8 * BLOCK >> 20} MiB) and the "
                "report is identical for any value.", 1),
        _FORMAT, _OUT)),
    "velmap": (velmap, (
        _Option("--vmax", _finite_float, "Largest tabulated velocity; must stay below c.",
                required=True),
        _Option("--steps", _integer,
                f"Number of equal increments from 0 to vmax, 1..{MAX_STEPS}.", 100),
        _C,
        _Option("--alternate", None,
                "Add the textbook hyperbolic-angle column for comparison."),
        _OUT)),
}
_METAVARS = {_finite_float: "FLOAT", _integer: "INTEGER", _rational: "TEXT",
             _path: "PATH", _format: "{csv,json}"}
_HELP = "Show this message and exit."


def _help(name: str | None) -> str:
    """The ``--help`` text of one command, or of lightclock for None."""
    if name is None:
        usage = "[--help] [--version] COMMAND ..."
        about = ("Light-clock kinematics toolkit.\n\n"
                 "Simulate radar (Einstein) measurements, certify the velocity-\n"
                 "dependent line-element derivation, tabulate the substratum\n"
                 "velocity map, and confirm lifetime dilation on seeded decay\n"
                 "ensembles.")
        sections = {"options": [("--help", _HELP), ("--version", "Show the version and exit.")],
                    "commands": [(cmd, run.__doc__) for cmd, (run, _) in _COMMANDS.items()]}
    else:
        run, options = _COMMANDS[name]
        usage, about, rows = f"{name} [OPTIONS]", run.__doc__, []
        for opt in options:
            text = opt.help
            if opt.required:
                text += " [required]"
            elif opt.default is not None:
                text += f" [default: {opt.default}]"
            rows.append((f"{opt.flag} {_METAVARS[opt.convert]}" if opt.convert
                         else opt.flag, text))
        sections = {"options": rows + [("--help", _HELP)]}
    lines = [f"usage: lightclock {usage}", "", about]
    for title, rows in sections.items():
        width = max(len(label) for label, _ in rows)
        lines += ["", f"{title}:"] + [f"  {label:<{width}}  {text}" for label, text in rows]
    return "\n".join(lines) + "\n"


def _read(argv: list[str]):
    """The command that ``argv`` names and its flag values, in one pass.

    A value option of the command takes the text after "=", or else the next
    token, even one led by "-"; any other flag takes no value.  "--" is
    dropped before the command and as the last token.  ``--help``, and
    ``--version`` before the command, print and exit 0 when read; other usage
    errors wait for the end of the argv, or for an unknown command.  Values
    are converted in the order their flags first appear, then the rest as
    declared; the last of a repeated option wins, and the texts it overrides
    are never converted, so the first bad value given is the one reported.
    """
    name, options, texts, unknown = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        opt = options.get(flag)
        if token == "--":
            rest = list(tokens) if name else []
            unknown += [token, *rest] if rest else []
        elif token == "--help" or token == "--version" and name is None:
            sys.stdout.write(_help(name) if token == "--help"
                             else f"lightclock {__version__}\n")
            sys.exit(EXIT_OK)
        elif opt and opt.convert:
            text = text if eq else next(tokens, None)
            if text is None:
                raise ValueError(f"argument {flag}: expected one argument")
            texts.setdefault(flag, []).append(text)
        elif opt and not eq:
            texts[flag] = []
        elif name is None and not token.startswith("-"):
            if token not in _COMMANDS:
                raise ValueError(f"argument COMMAND: invalid choice: {token!r} (choose "
                                 f"from {', '.join(map(repr, _COMMANDS))})")
            name, options = token, {opt.flag: opt for opt in _COMMANDS[token][1]}
        else:
            unknown.append(token)
    if name is None:
        raise ValueError("the following arguments are required: COMMAND")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    values = {}
    for flag in dict.fromkeys([*texts, *options]):
        opt, given = options[flag], texts.get(flag)
        if opt.convert is None:
            value = given is not None
        elif opt.multiple:
            value = tuple(opt.convert(flag, text) for text in given or ())
        elif given:
            value = opt.convert(flag, given[-1])
        elif opt.required:
            raise ValueError(f"the following arguments are required: {flag}")
        else:
            value = opt.default
        values[opt.key] = value
    return _COMMANDS[name][0], values


def main(argv: list[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run one command.  Returns None on success and raises ``SystemExit``
    with the exit code otherwise; ``--help`` and ``--version`` exit 0.

    The one place where a rejected input becomes exit 2 and one ``error:``
    line on stderr, and where failure lines follow the report with exit 3
    or 4.  ``standalone_mode`` is accepted for callers written against the
    earlier click front end, and ignored.
    """
    try:
        run, values = _read(sys.argv[1:] if argv is None else list(argv))
        if os.environ.get(ENV_CONFIG):
            raise ValueError(f"{ENV_CONFIG} is no longer read; pass --c, --format or --out")
        check_light_speed(values["c"])
        out = values.pop("out")
        report, fmt, failures, code = run(**values)
        _write(report, fmt, out)
    except (LightClockError, ValueError, OverflowError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARAM)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(code)
