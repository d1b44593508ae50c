"""Command-line front end: radar, derive, decay and velmap subcommands.

Outputs are machine readable (CSV with a mandatory header row, or JSON that
validates against the schemas shipped in ``lightclock.schemas``) and byte
reproducible for identical flags, config and seed.  A flat key-value JSON
config file can be pointed to by the ``LIGHTCLOCK_CONFIG`` environment
variable; explicit flags always win over config values.

Exit codes: 0 success, 2 parameter or config error, 3 statistical
acceptance failure (decay z-score gate), 4 internal certification failure.
Exits 3 and 4 say on stderr which check failed and by how much.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from numbers import Real
from pathlib import Path

import click

from .decay import DEFAULT_TAU_BOUND, MAX_SAMPLES, compare_frames
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
        click.echo(text, nl=False)


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


class _FiniteFloat(click.types.FloatParamType):
    """Float flag type; NaN and infinities are rejected like any bad input."""

    def convert(self, value, param, ctx):
        return _check_finite(param.opts[0], super().convert(value, param, ctx))


FINITE_FLOAT = _FiniteFloat()


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # every report field is a float
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{name} must be a finite number (decimal or p/q), "
                         f"got {text!r}") from None
    return value


class _Main(click.Group):
    """The one place where a rejected input becomes exit 2 and one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (LightClockError, ValueError, OverflowError, OSError,
                MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARAM)


_c_option = click.option("--c", type=FINITE_FLOAT,
                         help="Local light speed [config c, default 1].")
_format_option = click.option("--format", type=click.Choice(["csv", "json"]),
                              help="Output format [config format, default csv].")
_out_option = click.option("--out", type=click.Path(dir_okay=False),
                           help="Write output to this path instead of stdout.")


@click.group(cls=_Main)
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
@_c_option
@_format_option
@_out_option
def radar(x0, v, t1s, **flags):
    """Ping a uniformly moving reflector and print Einstein measures."""
    cfg = RunConfig.from_env(**flags)
    if not t1s:
        raise ValueError("at least one --t1 emission time is required")
    records = [simulate_ping(Reflector(x0=x0, v=v), t1, cfg.c) for t1 in t1s]
    if cfg.format == "json":
        payload = [
            {"t1": r.t1, "t3": r.t3, "c": r.c, "tE": r.t_E, "rE": r.r_E, "vE": r.v_E}
            for r in records
        ]
        _emit(_json_text(payload), cfg.out)
    else:
        rows = [[r.t1, r.t3, r.c, r.t_E, r.r_E, r.v_E] for r in records]
        _emit(_csv(["t1", "t3", "c", "tE", "rE", "vE"], rows), cfg.out)


@main.command()
@click.option("--v", required=True, help="Primary velocity.")
@click.option("--d", default="0", show_default=True, help="Secondary velocity term.")
@click.option("--c", default=None, help="Local light speed [config c, default 1].")
@click.option("--exact", is_flag=True,
              help="Certify over exact rationals at zero tolerance.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report to this path instead of stdout.")
def derive(v, d, c, exact, out):
    """Certify the line-element derivation chain at one (v, d, c)."""
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
            click.echo(f"certification check failed: {line}", err=True)
        sys.exit(EXIT_CERTIFICATION)


@main.command()
@click.option("--tau-s", type=FINITE_FLOAT, required=True,
              help="Rest-frame mean lifetime.")
@click.option("--v", type=FINITE_FLOAT, default=0.0, show_default=True,
              help="Relative velocity of the decaying source.")
@_c_option
@click.option("--samples", type=int, default=100_000, show_default=True,
              help=f"Lifetimes drawn per frame, 1..{MAX_SAMPLES}.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Unsigned 64-bit seed of the counter-based stream.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Threads over fixed 2^20-sample blocks, capped at the CPU "
                   "count; memory is O(threads x 8 MiB) and the report is "
                   "identical for any value.")
@_format_option
@_out_option
def decay(tau_s, v, samples, seed, workers, **flags):
    """Compare rest- and moving-frame decay ensembles against 1/gamma."""
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
        click.echo(f"dilation check failed: z = {comparison.z_score!r} is outside "
                   f"|z| <= {Z_GATE!r}; tau_hat_s = {comparison.tau_hat_s!r}, "
                   f"tau_hat_m = {comparison.tau_hat_m!r}", err=True)
        sys.exit(EXIT_STATISTICAL)


@main.command()
@click.option("--vmax", type=FINITE_FLOAT, required=True,
              help="Largest tabulated velocity; must stay below c.")
@click.option("--steps", type=int, default=100, show_default=True,
              help=f"Number of equal increments from 0 to vmax, 1..{MAX_STEPS}.")
@_c_option
@click.option("--alternate", is_flag=True,
              help="Add the textbook hyperbolic-angle column for comparison.")
@_out_option
def velmap(vmax, steps, alternate, **flags):
    """Tabulate the substratum velocity map w(v) as CSV."""
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


if __name__ == "__main__":
    main()
