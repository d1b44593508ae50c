"""Command-line front end: radar, derive, decay and velmap subcommands.

Outputs are machine readable (CSV with a mandatory header row, or JSON that
validates against the schemas shipped in ``lightclock.schemas``) and byte
reproducible for identical flags, config and seed.  A flat key-value JSON
config file can be pointed to by the ``LIGHTCLOCK_CONFIG`` environment
variable; explicit flags always win over config values.

Exit codes: 0 success, 2 parameter or config error, 3 statistical
acceptance failure (decay z-score gate), 4 internal certification failure.
Exits 3 and 4 say on stderr which check failed and by how much.

Each command imports the library modules it runs when it runs, so parsing
an argv, ``--help`` and ``--version`` load none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from numbers import Real
from pathlib import Path

from . import __version__
from .errors import LightClockError

ENV_CONFIG = "LIGHTCLOCK_CONFIG"
Z_GATE = 5.0
MAX_STEPS = 10 ** 6

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_STATISTICAL = 3
EXIT_CERTIFICATION = 4


def _check_finite(name: str, value: float) -> float:
    """The one finiteness check of float flags, float config fields and CSV cells."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Defaults shared by all subcommands, overridable per flag.

    Documented ranges: ``c > 0``; ``0 <= tolerance <= 1e-6``; ``format``
    one of ``csv``/``json``; ``out`` a path string.  Unknown keys in a config
    file are rejected, and so are values of the wrong JSON type.
    """

    c: float = 1.0
    tolerance: float = 1e-12
    format: str = "csv"
    out: str | None = None

    def __post_init__(self):
        for name in ("c", "tolerance"):
            value = getattr(self, name)
            # bool is an int subclass, so JSON true would pass as 1
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            _check_finite(name, value)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0 <= self.tolerance <= 1e-6:
            raise ValueError(f"tolerance must lie in [0, 1e-6], got {self.tolerance}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("config: top level must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_env(cls, **flags) -> "RunConfig":
        """The config file (validated alone, so a bad value fails even where a
        flag overrides it), then every flag given, under the same checks."""
        path = os.environ.get(ENV_CONFIG)
        base = cls.from_file(path) if path else cls()
        return replace(base, **{k: v for k, v in flags.items() if v is not None})


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    """One CSV cell: shortest round-trip form of a finite float, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(_check_finite("every CSV value", value))
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # every report field is a float
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{name} must be a finite number (decimal or p/q), "
                         f"got {text!r}") from None
    return value


def radar(x0, v, t1, **flags):
    """Ping a uniformly moving reflector and print Einstein measures."""
    from .radar import Reflector, simulate_ping

    cfg = RunConfig.from_env(**flags)
    if not t1:
        raise ValueError("at least one --t1 emission time is required")
    records = [simulate_ping(Reflector(x0=x0, v=v), t, cfg.c) for t in t1]
    if cfg.format == "json":
        payload = [
            {"t1": r.t1, "t3": r.t3, "c": r.c, "tE": r.t_E, "rE": r.r_E, "vE": r.v_E}
            for r in records
        ]
        _emit(_json_text(payload), cfg.out)
    else:
        rows = [[r.t1, r.t3, r.c, r.t_E, r.r_E, r.v_E] for r in records]
        _emit(_csv(["t1", "t3", "c", "tE", "rE", "vE"], rows), cfg.out)


def derive(v, d, c, exact, out):
    """Certify the line-element derivation chain at one (v, d, c)."""
    from .line_element import certify_derivation

    v_q = _parse_rational(v, "--v")
    d_q = _parse_rational(d, "--d")
    c_flag = _parse_rational(c, "--c") if c is not None else None
    cfg = RunConfig.from_env(c=c_flag, out=out)
    c_q = Fraction(cfg.c)
    if exact:
        report = certify_derivation(v_q, d_q, c_q, exact=True)
    else:
        report = certify_derivation(float(v_q), float(d_q), float(c_q),
                                    tol=cfg.tolerance)
    _emit(_json_text(report.as_dict()), cfg.out)
    if not report.passed:
        for line in report.failures:
            print(f"certification check failed: {line}", file=sys.stderr)
        sys.exit(EXIT_CERTIFICATION)


def decay(tau_s, v, samples, seed, workers, **flags):
    """Compare rest- and moving-frame decay ensembles against 1/gamma."""
    from .decay import DEFAULT_TAU_BOUND, compare_frames
    from .line_element import LineElementParams

    cfg = RunConfig.from_env(**flags)
    if not 0 < tau_s <= DEFAULT_TAU_BOUND:
        raise ValueError(f"--tau-s must lie in (0, {DEFAULT_TAU_BOUND}], got {tau_s}")
    params = LineElementParams(v=v, d=0.0, c=cfg.c)
    comparison = compare_frames(tau_s, params, samples, seed, workers=workers)
    report = comparison.as_dict()
    if cfg.format == "json":
        _emit(_json_text(report), cfg.out)
    else:
        _emit(_csv(list(report), [list(report.values())]), cfg.out)
    if not abs(comparison.z_score) <= Z_GATE:
        print(f"dilation check failed: z = {comparison.z_score!r} is outside "
              f"|z| <= {Z_GATE!r}; tau_hat_s = {comparison.tau_hat_s!r}, "
              f"tau_hat_m = {comparison.tau_hat_m!r}", file=sys.stderr)
        sys.exit(EXIT_STATISTICAL)


def velmap(vmax, steps, alternate, **flags):
    """Tabulate the substratum velocity map w(v) as CSV."""
    from .line_element import nsppm_velocity, standard_rapidity

    cfg = RunConfig.from_env(**flags)
    if not 0 <= vmax < cfg.c:
        raise ValueError(f"--vmax must lie in [0, c), got {vmax} with c = {cfg.c}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"--steps must lie in 1..{MAX_STEPS}, got {steps}")
    header = ["v", "w"] + (["w_alt"] if alternate else [])
    rows = []
    for i in range(steps + 1):
        vi = vmax * i
        # vmax * i overflows only for vmax near the float limit
        vi = vi / steps if vi < math.inf else vmax * (i / steps)
        row = [vi, nsppm_velocity(vi, cfg.c)]
        if alternate:
            row.append(standard_rapidity(vi, cfg.c))
        rows.append(row)
    _emit(_csv(header, rows), cfg.out)


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


def _text(flag: str, text: str) -> str:
    return text


def _path(flag: str, text: str) -> str:
    # checked up front, so that no work is done for an output that must fail
    if os.path.isdir(text):
        raise ValueError(f"argument {flag}: {text!r} is a directory")
    return text


def _format(flag: str, text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"argument {flag}: invalid choice: {text!r} "
                         "(choose from 'csv', 'json')")
    return text


@dataclass(frozen=True)
class _Option:
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


_C = _Option("--c", _finite_float, "Local light speed [config c, default 1].")
_FORMAT = _Option("--format", _format, "Output format [config format, default csv].")
_OUT = _Option("--out", _path, "Write output to this path instead of stdout.")

_COMMANDS = {
    "radar": (radar, (
        _Option("--x0", _finite_float, "Reflector position at t = 0.", 0.0),
        _Option("--v", _finite_float, "Reflector velocity; |v| must stay below c.", 0.0),
        _Option("--t1", _finite_float,
                "Emission time of one ping; repeat for several pings.", multiple=True),
        _C, _FORMAT, _OUT)),
    "derive": (derive, (
        _Option("--v", _text, "Primary velocity.", required=True),
        _Option("--d", _text, "Secondary velocity term.", "0"),
        _Option("--c", _text, _C.help),
        _Option("--exact", None, "Certify over exact rationals at zero tolerance."),
        _Option("--out", _path, "Write the JSON report to this path instead of stdout."))),
    "decay": (decay, (
        _Option("--tau-s", _finite_float, "Rest-frame mean lifetime.", required=True),
        _Option("--v", _finite_float, "Relative velocity of the decaying source.", 0.0),
        _C,
        # decay.MAX_SAMPLES, spelled out so that the parser never imports decay
        _Option("--samples", _integer, "Lifetimes drawn per frame, 1..1000000000.",
                100_000),
        _Option("--seed", _integer, "Unsigned 64-bit seed of the counter-based stream.", 0),
        _Option("--workers", _integer,
                "Threads over fixed 2^20-sample blocks, capped at the CPU count; "
                "memory is O(threads x 8 MiB) and the report is identical for "
                "any value.", 1),
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
_METAVARS = {_finite_float: "FLOAT", _integer: "INTEGER", _text: "TEXT",
             _path: "PATH", _format: "{csv,json}"}
_VALUE_FLAGS = frozenset(opt.flag for _, options in _COMMANDS.values()
                         for opt in options if opt.convert)


class _Parser(argparse.ArgumentParser):
    """Usage errors join every other rejected input at the exit-2 boundary of main."""

    def error(self, message):
        raise ValueError(message)


class _Given(argparse.Action):
    """Collect (flag, text) of each value option in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        # argparse strips a "--" value, even one given as --v=--, to []
        namespace.given += ((option_string, "--" if values == [] else values),)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lightclock", add_help=False, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Light-clock kinematics toolkit.\n\n"
                    "Simulate radar (Einstein) measurements, certify the velocity-\n"
                    "dependent line-element derivation, tabulate the substratum\n"
                    "velocity map, and confirm lifetime dilation on seeded decay\n"
                    "ensembles.\n\n"
                    f"Set {ENV_CONFIG} to a flat JSON file to change defaults.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True,
                                     metavar="COMMAND")
    for name, (run, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        for opt in options:
            text = opt.help
            if opt.required:
                text += " [required]"
            elif opt.default is not None:
                text += f" [default: {opt.default}]"
            if opt.convert is None:
                sub.add_argument(opt.flag, action="store_true", help=text)
            else:
                sub.add_argument(opt.flag, action=_Given, dest="given", default=(),
                                 metavar=_METAVARS[opt.convert], help=text)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


_PARSER = _build_parser()


def _click_argv(argv: list[str]) -> list[str]:
    """``argv`` read as the earlier click front end read it, rewritten so
    that argparse agrees.

    A value option takes the next token even when that starts with "-"
    (``--v -1e-05``), so the two are joined as ``--v=-1e-05``.  "--" ends
    the options: after the command, every later token is an extra argument;
    before the command, or as the last token, it is dropped.
    """
    out, i = [], 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            if any(not t.startswith("-") for t in out) and i < len(argv):
                return out + argv[i - 1:]
            continue
        if token in _VALUE_FLAGS and i < len(argv):
            token = f"{token}={argv[i]}"
            i += 1
        out.append(token)
    return out


def _arguments(ns: argparse.Namespace, options) -> dict:
    """Each option's value, converted as the click front end converted them:
    in the order of first appearance on the command line, then the others in
    declared order, so the first bad value is the one reported.  The last of
    a repeated option wins, and the texts it overrides are never converted."""
    given = ns.given
    rank = {flag: i for i, flag in enumerate(dict.fromkeys(f for f, _ in given))}
    values = {}
    for opt in sorted(options, key=lambda o: rank.get(o.flag, len(rank))):
        texts = [text for flag, text in given if flag == opt.flag]
        if opt.convert is None:
            value = getattr(ns, opt.key)
        elif opt.multiple:
            value = tuple(opt.convert(opt.flag, text) for text in texts)
        elif texts:
            value = opt.convert(opt.flag, texts[-1])
        elif opt.required:
            raise ValueError(f"the following arguments are required: {opt.flag}")
        else:
            value = opt.default
        values[opt.key] = value
    return values


def main(argv: list[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run one command.  Returns None on success and raises ``SystemExit``
    with the exit code otherwise; ``--help`` and ``--version`` exit 0.

    This is the one place where a rejected input becomes exit 2 and one
    ``error:`` line on stderr.  ``standalone_mode`` is accepted for callers
    written against the earlier click front end, and ignored.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _PARSER.parse_args(_click_argv(args))
        run, options = _COMMANDS[ns.command]
        run(**_arguments(ns, options))
    except (LightClockError, ValueError, OverflowError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARAM)
