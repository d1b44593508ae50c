"""Seeded CLI fuzzing: every input is accepted with valid output or rejected.

Numeric flags draw any float (NaN, infinities, subnormals, +-1e308) or short
text, and derive's flags sometimes a text at the digit bound.  Whatever the
input, every run keeps the output contract of ``conftest.check_output``: it
exits 0 with schema-valid JSON or a finite CSV table, as ``--format`` asks,
or 2 with nothing on stdout and one error line.  Only decay may also exit 3
(its z-score gate) and only derive 4 (a failed certification check); derive
keeps 4 until its eps**2 gate is scaled to the size of the summands, since a
few float points still fail it falsely.
"""

import math

from conftest import DIGIT_TEXTS, check_output
from hypothesis import given, settings
from hypothesis import strategies as st_

EDGE_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e308, 0.0, -0.0]
# plausible values keep most draws on the accepting paths
NUMBER = st_.one_of(st_.floats(-3, 3), st_.floats(0, 3), st_.floats(),
                    st_.sampled_from(EDGE_FLOATS)).map(repr)
FLAG_TEXT = st_.one_of(NUMBER, NUMBER, NUMBER, st_.text(max_size=4))
FRACTION = st_.tuples(st_.integers(-50, 50), st_.integers(-50, 50)).map(
    lambda pq: f"{pq[0]}/{pq[1]}")
# one draw in ten: an exact chain on 4300 digits takes ~40 ms (2-CPU Xeon)
DIGIT_BOUND = st_.sampled_from(DIGIT_TEXTS)
COMMON_RATIONAL = st_.one_of(FLAG_TEXT, FRACTION)
RATIONAL_TEXT = st_.integers(0, 9).flatmap(lambda k: DIGIT_BOUND if k == 0 else COMMON_RATIONAL)
FORMAT = st_.sampled_from([None, "csv", "json"])
FUZZ = settings(deadline=None, max_examples=300)


def optional(flag, value):
    return [] if value is None else [flag, value]


@FUZZ
@given(x0=FLAG_TEXT, v=FLAG_TEXT, t1s=st_.lists(FLAG_TEXT, max_size=3),
       c=st_.none() | FLAG_TEXT, fmt=FORMAT)
def test_radar_fuzz(cli, x0, v, t1s, c, fmt):
    args = ["radar", "--x0", x0, "--v", v, *optional("--c", c), *optional("--format", fmt)]
    for t1 in t1s:
        args += ["--t1", t1]
    check_output(cli(args))


@FUZZ
@given(v=RATIONAL_TEXT, d=st_.none() | RATIONAL_TEXT, c=st_.none() | RATIONAL_TEXT,
       exact=st_.booleans())
def test_derive_fuzz(cli, v, d, c, exact):
    args = ["derive", "--v", v, *optional("--d", d), *optional("--c", c)]
    check_output(cli(args + (["--exact"] if exact else [])))


@FUZZ
@given(tau_s=FLAG_TEXT, v=FLAG_TEXT, c=st_.none() | FLAG_TEXT,
       samples=st_.integers(1, 2000), seed=st_.integers(-1, 2 ** 64),
       workers=st_.integers(1, 3), fmt=FORMAT)
def test_decay_fuzz(cli, tau_s, v, c, samples, seed, workers, fmt):
    args = ["decay", "--tau-s", tau_s, "--v", v, *optional("--c", c),
            "--samples", str(samples), "--seed", str(seed),
            "--workers", str(workers), *optional("--format", fmt)]
    check_output(cli(args))


@FUZZ
@given(vmax=FLAG_TEXT, steps=st_.integers(1, 200), c=st_.none() | FLAG_TEXT,
       alternate=st_.booleans())
def test_velmap_fuzz(cli, vmax, steps, c, alternate):
    args = ["velmap", "--vmax", vmax, "--steps", str(steps), *optional("--c", c)]
    check_output(cli(args + (["--alternate"] if alternate else [])))
