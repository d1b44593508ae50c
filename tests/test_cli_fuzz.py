"""Seeded CLI fuzzing: every input is accepted with valid output or rejected.

Numeric flags draw any float (NaN, infinities, subnormals, +-1e308) or short
text.  Whatever the input, no command ends with a traceback: it exits 0
with schema-valid JSON or a finite CSV table, or 2 with nothing on stdout.
Only decay may also exit 3 (its z-score gate) and only derive 4 (a failed
certification check); derive keeps 4 until its eps**2 gate is scaled to the
size of the summands, since a few float points still fail it falsely.
"""

import json
import math

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st_

from lightclock.schemas import load_schema

EDGE_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e308, 0.0, -0.0]
# plausible values keep most draws on the accepting paths
NUMBER = st_.one_of(st_.floats(-3, 3), st_.floats(0, 3), st_.floats(),
                    st_.sampled_from(EDGE_FLOATS)).map(repr)
FLAG_TEXT = st_.one_of(NUMBER, NUMBER, NUMBER, st_.text(max_size=4))
RATIONAL_TEXT = st_.one_of(
    FLAG_TEXT,
    st_.tuples(st_.integers(-50, 50), st_.integers(-50, 50)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
FORMAT = st_.sampled_from([None, "csv", "json"])
FUZZ = settings(deadline=None, max_examples=300)


def optional(flag, value):
    return [] if value is None else [flag, value]


def run(cli, args, exits=(0, 2)):
    result = cli(args)
    assert "Traceback" not in result.stderr
    assert result.exit_code in exits, (result.exit_code, result.stderr)
    if result.exit_code == 2:
        # usage errors too: every rejected input is one error line
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
    return result


def check_output(result, fmt, schema, header, blank_ok=()):
    if result.exit_code == 2:
        return
    if fmt == "json":
        jsonschema.validate(json.loads(result.stdout), load_schema(schema))
        return
    lines = result.stdout.splitlines()
    assert lines[0] == header
    names = header.split(",")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(names)
        for name, cell in zip(names, cells):
            if cell == "" and name in blank_ok:
                continue
            assert math.isfinite(float(cell)), (name, cell)


@FUZZ
@given(x0=FLAG_TEXT, v=FLAG_TEXT, t1s=st_.lists(FLAG_TEXT, max_size=3),
       c=st_.none() | FLAG_TEXT, fmt=FORMAT)
def test_radar_fuzz(cli, x0, v, t1s, c, fmt):
    args = ["radar", "--x0", x0, "--v", v, *optional("--c", c), *optional("--format", fmt)]
    for t1 in t1s:
        args += ["--t1", t1]
    result = run(cli, args)
    check_output(result, fmt, "radar_records", "t1,t3,c,tE,rE,vE", blank_ok=("vE",))


@FUZZ
@given(v=RATIONAL_TEXT, d=st_.none() | RATIONAL_TEXT, c=st_.none() | RATIONAL_TEXT,
       exact=st_.booleans())
def test_derive_fuzz(cli, v, d, c, exact):
    args = ["derive", "--v", v, *optional("--d", d), *optional("--c", c)]
    result = run(cli, args + (["--exact"] if exact else []), exits=(0, 2, 4))
    check_output(result, "json", "derive_report", None)


@FUZZ
@given(tau_s=FLAG_TEXT, v=FLAG_TEXT, c=st_.none() | FLAG_TEXT,
       samples=st_.integers(1, 2000), seed=st_.integers(-1, 2 ** 64),
       workers=st_.integers(1, 3), fmt=FORMAT)
def test_decay_fuzz(cli, tau_s, v, c, samples, seed, workers, fmt):
    args = ["decay", "--tau-s", tau_s, "--v", v, *optional("--c", c),
            "--samples", str(samples), "--seed", str(seed),
            "--workers", str(workers), *optional("--format", fmt)]
    result = run(cli, args, exits=(0, 2, 3))
    check_output(result, fmt, "decay_report",
                 "tau_s,v,c,lambda,gamma,tau_m_analytic,tau_hat_s,tau_hat_m,"
                 "ratio,z_score,samples,seed")


@FUZZ
@given(vmax=FLAG_TEXT, steps=st_.integers(1, 200), c=st_.none() | FLAG_TEXT,
       alternate=st_.booleans())
def test_velmap_fuzz(cli, vmax, steps, c, alternate):
    args = ["velmap", "--vmax", vmax, "--steps", str(steps), *optional("--c", c)]
    result = run(cli, args + (["--alternate"] if alternate else []))
    check_output(result, "csv", None, "v,w,w_alt" if alternate else "v,w")
