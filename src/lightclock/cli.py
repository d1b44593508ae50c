"""Command-line front end: radar, derive, decay and velmap subcommands.

Outputs are machine readable (CSV with a mandatory header row, or JSON that
validates against the schemas shipped in ``lightclock.schemas``) and byte
reproducible for identical flags, config and seed.  A flat key-value JSON
config file can be pointed to by the ``LIGHTCLOCK_CONFIG`` environment
variable; explicit flags always win over config values.

Exit codes: 0 success, 2 parameter or config error, 3 statistical
acceptance failure (decay z-score gate), 4 internal certification failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import click

from .decay import compare_frames
from .errors import LightClockError
from .line_element import (
    LineElementParams,
    certify_derivation,
    nsppm_velocity,
    standard_rapidity,
)
from .radar import Reflector, simulate_ping

ENV_CONFIG = "LIGHTCLOCK_CONFIG"
Z_GATE = 5.0

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_STATISTICAL = 3
EXIT_CERTIFICATION = 4


def _check_finite(name: str, value: float) -> float:
    """The one finiteness check of float flags and float config fields."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Defaults shared by all subcommands, overridable per flag.

    Documented ranges: ``c > 0``; ``2 <= order <= 12``;
    ``0 <= tolerance <= 1e-6``; ``tau_bound > 0``; ``format`` one of
    ``csv``/``json``.  Unknown keys in a config file are rejected.
    """

    c: float = 1.0
    order: int = 2
    tolerance: float = 1e-12
    tau_bound: float = 1e15
    format: str = "csv"
    out: str | None = None

    def __post_init__(self):
        for name in ("c", "tolerance", "tau_bound"):
            _check_finite(f"config: {name}", getattr(self, name))
        if self.c <= 0:
            raise ValueError(f"config: c must be positive, got {self.c}")
        if not 2 <= self.order <= 12:
            raise ValueError(f"config: order must lie in 2..12, got {self.order}")
        if not 0 <= self.tolerance <= 1e-6:
            raise ValueError(
                f"config: tolerance must lie in [0, 1e-6], got {self.tolerance}"
            )
        if self.tau_bound <= 0:
            raise ValueError(f"config: tau_bound must be positive, got {self.tau_bound}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"config: format must be csv or json, got {self.format!r}")

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
    def from_env(cls) -> "RunConfig":
        path = os.environ.get(ENV_CONFIG)
        if not path:
            return cls()
        return cls.from_file(path)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _config_or_fail() -> RunConfig:
    try:
        return RunConfig.from_env()
    except (OSError, ValueError) as exc:
        _fail(EXIT_PARAM, str(exc))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _cell(value) -> str:
    """One CSV cell: shortest round-trip form for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


class _FiniteFloat(click.types.FloatParamType):
    """Float flag type; NaN and infinities exit 2 with one error line."""

    def convert(self, value, param, ctx):
        try:
            return _check_finite(param.opts[0], super().convert(value, param, ctx))
        except ValueError as exc:
            _fail(EXIT_PARAM, str(exc))


FINITE_FLOAT = _FiniteFloat()


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(EXIT_PARAM, f"{name} must be a number (decimal or p/q), got {text!r}")


@click.group()
@click.version_option(package_name="lightclock")
def main():
    """Light-clock kinematics toolkit.

    Simulate radar (Einstein) measurements, certify the velocity-dependent
    line-element derivation, tabulate the substratum velocity map, and
    confirm lifetime dilation on seeded decay ensembles.

    Set LIGHTCLOCK_CONFIG to a flat JSON file to change defaults.
    """


@main.command()
@click.option("--x0", type=FINITE_FLOAT, default=0.0, show_default=True,
              help="Reflector position at t = 0.")
@click.option("--v", type=FINITE_FLOAT, default=0.0, show_default=True,
              help="Reflector velocity; |v| must stay below c.")
@click.option("--t1", "t1s", type=FINITE_FLOAT, multiple=True,
              help="Emission time of one ping; repeat for several pings.")
@click.option("--c", "c_flag", type=FINITE_FLOAT, default=None,
              help="Local light speed [config c, default 1].")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Output format [config format, default csv].")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to this path instead of stdout.")
def radar(x0, v, t1s, c_flag, fmt, out):
    """Ping a uniformly moving reflector and print Einstein measures."""
    cfg = _config_or_fail()
    c = c_flag if c_flag is not None else cfg.c
    if not t1s:
        _fail(EXIT_PARAM, "at least one --t1 emission time is required")
    records = []
    try:
        for t1 in t1s:
            records.append(simulate_ping(Reflector(x0=x0, v=v), t1, c))
    except (LightClockError, ValueError) as exc:
        _fail(EXIT_PARAM, str(exc))
    if (fmt or cfg.format) == "json":
        payload = [
            {"t1": r.t1, "t3": r.t3, "c": r.c, "tE": r.t_E, "rE": r.r_E, "vE": r.v_E}
            for r in records
        ]
        _emit(_json_text(payload), out or cfg.out)
    else:
        rows = [[r.t1, r.t3, r.c, r.t_E, r.r_E, r.v_E] for r in records]
        _emit(_csv(["t1", "t3", "c", "tE", "rE", "vE"], rows), out or cfg.out)


@main.command()
@click.option("--v", required=True, help="Primary velocity.")
@click.option("--d", default="0", show_default=True, help="Secondary velocity term.")
@click.option("--c", "c_flag", default=None,
              help="Local light speed [config c, default 1].")
@click.option("--exact", is_flag=True,
              help="Certify over exact rationals at zero tolerance.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report to this path instead of stdout.")
def derive(v, d, c_flag, exact, out):
    """Certify the line-element derivation chain at one (v, d, c)."""
    cfg = _config_or_fail()
    v_q = _parse_rational(v, "--v")
    d_q = _parse_rational(d, "--d")
    c_q = _parse_rational(c_flag, "--c") if c_flag is not None else Fraction(cfg.c)
    try:
        if exact:
            report = certify_derivation(v_q, d_q, c_q, order=cfg.order, exact=True)
        else:
            report = certify_derivation(float(v_q), float(d_q), float(c_q),
                                        order=cfg.order, tol=cfg.tolerance)
    except (LightClockError, ValueError) as exc:
        _fail(EXIT_PARAM, str(exc))
    _emit(_json_text(report.as_dict()), out or cfg.out)
    if not report.passed:
        sys.exit(EXIT_CERTIFICATION)


@main.command()
@click.option("--tau-s", type=FINITE_FLOAT, required=True,
              help="Rest-frame mean lifetime.")
@click.option("--v", type=FINITE_FLOAT, default=0.0, show_default=True,
              help="Relative velocity of the decaying source.")
@click.option("--c", "c_flag", type=FINITE_FLOAT, default=None,
              help="Local light speed [config c, default 1].")
@click.option("--samples", type=int, default=100_000, show_default=True,
              help="Lifetimes drawn per frame.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Unsigned 64-bit seed of the counter-based stream.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Fill threads, capped at the CPU count; the report is "
                   "identical for any value.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Output format [config format, default csv].")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to this path instead of stdout.")
def decay(tau_s, v, c_flag, samples, seed, workers, fmt, out):
    """Compare rest- and moving-frame decay ensembles against 1/gamma."""
    cfg = _config_or_fail()
    c = c_flag if c_flag is not None else cfg.c
    if not 0 < tau_s <= cfg.tau_bound:
        _fail(EXIT_PARAM,
              f"--tau-s must lie in (0, {cfg.tau_bound}], got {tau_s}")
    try:
        params = LineElementParams(v=v, d=0.0, c=c)
        comparison = compare_frames(tau_s, params, samples, seed, workers=workers)
    except (LightClockError, ValueError) as exc:
        _fail(EXIT_PARAM, str(exc))
    report = comparison.as_dict()
    if (fmt or cfg.format) == "json":
        _emit(_json_text(report), out or cfg.out)
    else:
        _emit(_csv(list(report), [list(report.values())]), out or cfg.out)
    if not abs(comparison.z_score) <= Z_GATE:
        sys.exit(EXIT_STATISTICAL)


@main.command()
@click.option("--vmax", type=FINITE_FLOAT, required=True,
              help="Largest tabulated velocity; must stay below c.")
@click.option("--steps", type=int, default=100, show_default=True,
              help="Number of equal increments from 0 to vmax.")
@click.option("--c", "c_flag", type=FINITE_FLOAT, default=None,
              help="Local light speed [config c, default 1].")
@click.option("--alternate", is_flag=True,
              help="Add the textbook hyperbolic-angle column for comparison.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to this path instead of stdout.")
def velmap(vmax, steps, c_flag, alternate, out):
    """Tabulate the substratum velocity map w(v) as CSV."""
    cfg = _config_or_fail()
    c = c_flag if c_flag is not None else cfg.c
    if c <= 0:
        _fail(EXIT_PARAM, f"light speed must be positive, got {c}")
    if not 0 <= vmax < c:
        _fail(EXIT_PARAM, f"--vmax must lie in [0, c), got {vmax} with c = {c}")
    if steps < 1:
        _fail(EXIT_PARAM, f"--steps must be at least 1, got {steps}")
    header = ["v", "w"] + (["w_alt"] if alternate else [])
    rows = []
    for i in range(steps + 1):
        vi = vmax * i / steps
        row = [vi, nsppm_velocity(vi, c)]
        if alternate:
            row.append(standard_rapidity(vi, c))
        rows.append(row)
    _emit(_csv(header, rows), out or cfg.out)


if __name__ == "__main__":
    main()
