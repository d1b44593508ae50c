"""Seeded workloads of the lightclock benchmark: inputs, ops and output checks.

All four workloads are closed loops with one client, because every real
caller of the toolkit waits for its reply.  An op is one CLI invocation
(``decay_large``, ``cli_short``) or one bundle of library calls
(``ensemble_scan``, ``certify_sweep``).  Inputs come only from the workload
seed, and the program receives only the generated argv or arguments.

Load stays inside the box: one load-generating process, at most one CLI
child in flight, ``--workers`` at most ``nproc`` and never above 2, and
``--samples`` never above 10**7 (``guard_argv`` enforces both).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema

from lightclock.decay import compare_frames
from lightclock.line_element import (
    LineElementParams,
    certify_derivation,
    nsppm_velocity,
    standard_rapidity,
)
from lightclock.radar import Reflector, simulate_ping
from lightclock.schemas import load_schema

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference.py")

WORKERS = min(2, os.cpu_count() or 1)
MAX_SAMPLES = 10_000_000
Z_GATE = 5.0
CHILD_TIMEOUT_S = 60.0
EXACT_ORDERS = (2, 6, 12)
GOLDEN_TAU3_M1E5_SEED42 = float.fromhex("0x1.7eb4638140712p+1")
# Pre-generated inputs per run, cycled if a run does more ops than this.
POOL = 4096
# cli_short's decay and velmap sizes: the README defaults.
SHORT_DECAY_SAMPLES = 100_000
VELMAP_STEPS = 100


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and probe repetitions, decided here and nowhere else.

    ``SMOKE`` shrinks every one that costs time.  The ``*_reps`` fields and
    the point counts size the per-layer probes of the traced run.
    """

    large_samples: int = 10_000_000
    scan_samples: int = 20_000
    setup_probes: int = 5
    import_reps: int = 5
    cli_reps: int = 15
    large_reps: int = 3
    scan_reps: int = 40
    certify_probe_points: int = 60
    series_points: int = 300
    speed_grid: int = 2000
    per_call_reps: int = 3
    smoke: bool = False


FULL = Sizes()
SMOKE = Sizes(large_samples=20_000, scan_samples=2_000, setup_probes=1, import_reps=1,
              cli_reps=1, large_reps=1, scan_reps=1, certify_probe_points=5,
              series_points=20, speed_grid=50, per_call_reps=1, smoke=True)


class CheckFailed(Exception):
    """An op's output did not pass its correctness check."""


class NullTracer:
    """Stands in for ``layers.Tracer`` when tracing is off."""

    _span = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._span


# ---------------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIGHTCLOCK_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "lightclock", *args]


def guard_argv(args: list[str]) -> None:
    """Refuse any argv that could push load beyond the box."""
    for flag, cap in (("--workers", WORKERS), ("--samples", MAX_SAMPLES)):
        if flag in args:
            value = int(args[args.index(flag) + 1])
            if not 1 <= value <= cap:
                raise ValueError(f"{flag} {value} outside 1..{cap}")


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


def run_child(argv: list[str], env: dict) -> ChildResult:
    """Run one child to completion and take its own peak RSS from wait4."""
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0 and not killed:
                    # os.kill, not proc.kill: Popen.kill polls and could reap
                    # the child before wait4 reads its rusage.
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
                for key, _ in sel.select(timeout=max(remaining, 0.1)):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(code=proc.returncode,
                       stdout=b"".join(chunks[proc.stdout]),
                       stderr=b"".join(chunks[proc.stderr]),
                       maxrss_kib=usage.ru_maxrss)


def run_cli(args: list[str], env: dict) -> ChildResult:
    guard_argv(args)
    return run_child(cli_argv(args), env)


# ------------------------------------------------------------------ checks

def _reject_nonfinite(token):
    raise CheckFailed(f"non-finite JSON number {token}")


class Schemas:
    """Validators for the schemas the package ships."""

    def __init__(self):
        self._validators = {}
        for name in ("radar_records", "derive_report", "decay_report"):
            schema = load_schema(name)
            cls = jsonschema.validators.validator_for(schema)
            self._validators[name] = cls(schema)

    def parse(self, result: ChildResult, name: str):
        """Exit code 0, finite JSON on stdout, valid against ``name``."""
        if result.code != 0:
            tail = result.stderr.decode(errors="replace").strip()[-300:]
            raise CheckFailed(f"exit code {result.code}: {tail}")
        doc = json.loads(result.stdout, parse_constant=_reject_nonfinite)
        error = jsonschema.exceptions.best_match(
            self._validators[name].iter_errors(doc))
        if error is not None:
            raise CheckFailed(f"{name} schema: {error.message}")
        return doc


def check_csv(result: ChildResult, header: list[str], rows: int) -> None:
    """Exit code 0, the expected header and row count, only finite cells."""
    if result.code != 0:
        raise CheckFailed(f"exit code {result.code}")
    lines = result.stdout.decode().splitlines()
    if lines[:1] != [",".join(header)]:
        raise CheckFailed(f"CSV header {lines[:1]} != {header}")
    if len(lines) - 1 != rows:
        raise CheckFailed(f"CSV has {len(lines) - 1} rows, expected {rows}")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header) or not all(math.isfinite(float(x)) for x in cells):
            raise CheckFailed(f"bad CSV row {line!r}")


def check_decay(doc: dict, samples: int, seed: int) -> None:
    if not abs(doc["z_score"]) <= Z_GATE:
        raise CheckFailed(f"|z| = {abs(doc['z_score'])} > {Z_GATE}")
    if doc["samples"] != samples or doc["seed"] != seed:
        raise CheckFailed("decay report echoes the wrong samples or seed")


def check_certification(report, exact: bool) -> None:
    if not report.passed:
        failed = [k for k, ok in report.checks.items() if not ok]
        raise CheckFailed(f"certification failed: {failed}")
    if exact and report.eps2_rel_error != 0:
        raise CheckFailed(f"exact eps2_rel_error = {report.eps2_rel_error}")


# ---------------------------------------------------------------- CLI kinds
#
# Each CLI op kind has an input generator, an argv builder, an output check
# and the library calls the command makes (replayed by the ``cli`` layer).

def _gen_derive_exact(rng: random.Random) -> dict:
    q = rng.randint(2, 1000)
    return {"v": f"{rng.randint(0, (99 * q) // 100)}/{q}"}


def _gen_derive_float(rng: random.Random) -> dict:
    return {"v": f"{rng.uniform(0.0, 0.99):.6f}"}


def _gen_radar(rng: random.Random) -> dict:
    return {"x0": round(rng.uniform(0.1, 10.0), 6),
            "v": round(rng.uniform(0.0, 0.9), 6),
            "t1s": sorted(round(rng.uniform(0.0, 10.0), 6) for _ in range(3))}


def _gen_velmap(rng: random.Random) -> dict:
    return {"vmax": round(rng.uniform(0.1, 0.99), 6)}


def _gen_decay(rng: random.Random) -> dict:
    return {"v": rng.choice((0.3, 0.6, 0.9)), "seed": rng.getrandbits(63)}


def _argv_derive_exact(p):
    return ["derive", "--v", p["v"], "--exact"]


def _argv_derive_float(p):
    return ["derive", "--v", p["v"]]


def _argv_radar(p):
    pings = [a for t1 in p["t1s"] for a in ("--t1", repr(t1))]
    return ["radar", "--x0", repr(p["x0"]), "--v", repr(p["v"]), *pings,
            "--format", "json"]


def _argv_velmap(p):
    return ["velmap", "--vmax", repr(p["vmax"]), "--steps", str(VELMAP_STEPS),
            "--alternate"]


def _argv_decay_short(p):
    return ["decay", "--tau-s", "1", "--v", repr(p["v"]),
            "--samples", str(SHORT_DECAY_SAMPLES), "--seed", str(p["seed"]),
            "--format", "json"]


def _check_derive(exact):
    def check(result, p, schemas):
        doc = schemas.parse(result, "derive_report")
        if not doc["passed"] or doc["exact"] is not exact:
            raise CheckFailed(f"derive report passed={doc['passed']} exact={doc['exact']}")
        if exact and doc["eps2_rel_error"] != 0:
            raise CheckFailed(f"exact eps2_rel_error = {doc['eps2_rel_error']}")
    return check


def _check_radar(result, p, schemas):
    doc = schemas.parse(result, "radar_records")
    if [r["t1"] for r in doc] != p["t1s"]:
        raise CheckFailed("radar records do not match the pings sent")


def _check_velmap(result, p, schemas):
    check_csv(result, ["v", "w", "w_alt"], VELMAP_STEPS + 1)


def _check_decay_short(result, p, schemas):
    check_decay(schemas.parse(result, "decay_report"), SHORT_DECAY_SAMPLES, p["seed"])


def _lib_derive_exact(p):
    return certify_derivation(Fraction(p["v"]), Fraction(0), Fraction(1.0),
                              order=2, exact=True)


def _lib_derive_float(p):
    return certify_derivation(float(Fraction(p["v"])), 0.0, 1.0, order=2, tol=1e-12)


def _lib_radar(p):
    return [simulate_ping(Reflector(x0=p["x0"], v=p["v"]), t1, 1.0) for t1 in p["t1s"]]


def _lib_velmap(p):
    vs = [p["vmax"] * i / VELMAP_STEPS for i in range(VELMAP_STEPS + 1)]
    return [(v, nsppm_velocity(v, 1.0), standard_rapidity(v, 1.0)) for v in vs]


def _lib_decay_short(p):
    return compare_frames(1.0, LineElementParams(v=p["v"], d=0.0, c=1.0),
                          SHORT_DECAY_SAMPLES, p["seed"], workers=1)


@dataclass(frozen=True)
class CliKind:
    generate: object
    argv: object
    check: object
    library: object


CLI_KINDS = {
    "derive_exact": CliKind(_gen_derive_exact, _argv_derive_exact,
                            _check_derive(True), _lib_derive_exact),
    "derive_float": CliKind(_gen_derive_float, _argv_derive_float,
                            _check_derive(False), _lib_derive_float),
    "radar": CliKind(_gen_radar, _argv_radar, _check_radar, _lib_radar),
    "velmap": CliKind(_gen_velmap, _argv_velmap, _check_velmap, _lib_velmap),
    "decay": CliKind(_gen_decay, _argv_decay_short, _check_decay_short,
                     _lib_decay_short),
}


def cli_short_inputs(seed: int) -> list[tuple[str, dict]]:
    """Round-robin ``cli_short`` ops: one of each kind per round."""
    rng = random.Random(f"cli_short/{seed}")
    return [(kind, CLI_KINDS[kind].generate(rng))
            for _ in range(POOL // len(CLI_KINDS)) for kind in CLI_KINDS]


def decay_large_args(v: float, seed: int, sizes: Sizes, workers: int) -> list[str]:
    return ["decay", "--tau-s", "1", "--v", repr(v),
            "--samples", str(sizes.large_samples), "--workers", str(workers),
            "--format", "json", "--seed", str(seed)]


def decay_large_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"decay_large/{seed}")
    return [_gen_decay(rng) for _ in range(POOL)]


def ensemble_scan_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"ensemble_scan/{seed}")
    return [{"v": rng.randint(1, 9) / 10, "seed": rng.getrandbits(63)}
            for _ in range(POOL)]


def certify_points(seed: int, count: int = POOL) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rational (v, d, c) with 0 <= v + d <= 0.99 c at denominators up to 1000."""
    rng = random.Random(f"certify_sweep/{seed}")
    points = []
    for _ in range(count):
        c = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        q = rng.randint(1, 1000)
        total = rng.randint(0, (99 * q) // 100)
        v_num = rng.randint(0, total)
        points.append((c * Fraction(v_num, q), c * Fraction(total - v_num, q), c))
    return points


# --------------------------------------------------------------- workloads

@dataclass
class Outcome:
    """What an op left behind for the correctness check."""

    value: object
    maxrss_kib: int = 0


class Workload:
    """One workload's seeded inputs, its op and the op's output check.

    ``group`` ops form one unit of the closed loop: the measured phase only
    ends between groups, so ``cli_short`` always runs whole rounds of its
    five command kinds and its throughput is taken over a fixed mix.
    """

    name: str
    group = 1
    in_process: bool

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.env = child_env()
        self.schemas = Schemas()
        self.inputs = self.generate()

    def generate(self) -> list:
        raise NotImplementedError

    def call(self, item, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, item, outcome: Outcome) -> None:
        raise NotImplementedError

    def reference(self, item) -> None:
        """Reference work of the same kind as the op, timed after it; see reference.py."""
        raise NotImplementedError

    def _reference_child(self, *args) -> None:
        result = run_child([sys.executable, str(REFERENCE), *args], self.env)
        if result.code != 0:
            raise CheckFailed(f"reference exited {result.code}: "
                              f"{result.stderr.decode(errors='replace')[-300:]}")

    def warm_up(self) -> None:
        item = self.inputs[0]
        self.check(item, self.call(item, NullTracer()))


class DecayLarge(Workload):
    name = "decay_large"
    in_process = False

    def generate(self):
        return decay_large_inputs(self.seed)

    def call(self, item, tracer):
        args = decay_large_args(item["v"], item["seed"], self.sizes, WORKERS)
        with tracer.span("cli.decay_large"):
            result = run_cli(args, self.env)
        return Outcome(result, result.maxrss_kib)

    def check(self, item, outcome):
        doc = self.schemas.parse(outcome.value, "decay_report")
        check_decay(doc, self.sizes.large_samples, item["seed"])

    def reference(self, item):
        self._reference_child("decay", str(self.sizes.large_samples), str(WORKERS),
                              str(item["seed"]))


class CliShort(Workload):
    name = "cli_short"
    group = len(CLI_KINDS)
    in_process = False

    def generate(self):
        return cli_short_inputs(self.seed)

    def call(self, item, tracer):
        kind, params = item
        with tracer.span(f"cli.{kind}"):
            result = run_cli(CLI_KINDS[kind].argv(params), self.env)
        return Outcome(result, result.maxrss_kib)

    def check(self, item, outcome):
        kind, params = item
        CLI_KINDS[kind].check(outcome.value, params, self.schemas)

    def reference(self, item):
        self._reference_child("start")


class EnsembleScan(Workload):
    name = "ensemble_scan"
    in_process = True

    def generate(self):
        return ensemble_scan_inputs(self.seed)

    def call(self, item, tracer):
        with tracer.span("decay.compare_frames"):
            return Outcome(compare_frames(1.0, LineElementParams(v=item["v"]),
                                          self.sizes.scan_samples, item["seed"],
                                          workers=WORKERS))

    def check(self, item, outcome):
        cmp = outcome.value
        if not (abs(cmp.z_score) <= Z_GATE and math.isfinite(cmp.ratio)):
            raise CheckFailed(f"ensemble z = {cmp.z_score}, ratio = {cmp.ratio}")

    def reference(self, item):
        reference.decay(self.sizes.scan_samples, WORKERS, item["seed"])


class CertifySweep(Workload):
    name = "certify_sweep"
    in_process = True

    def generate(self):
        return certify_points(self.seed)

    def call(self, item, tracer):
        v, d, c = item
        reports = []
        for order in EXACT_ORDERS:
            with tracer.span(f"line_element.certify_exact.o{order}"):
                reports.append(certify_derivation(v, d, c, order=order, exact=True))
        with tracer.span("line_element.certify_float"):
            reports.append(certify_derivation(float(v), float(d), float(c)))
        return Outcome(reports)

    def check(self, item, outcome):
        *exact, floating = outcome.value
        for report in exact:
            check_certification(report, exact=True)
        check_certification(floating, exact=False)

    def reference(self, item):
        for order in EXACT_ORDERS:
            reference.series(*item, order)


WORKLOADS = {cls.name: cls for cls in (DecayLarge, EnsembleScan, CertifySweep, CliShort)}


# -------------------------------------------------------------- invariants

def invariant_checks(seed: int, sizes: Sizes, schemas: Schemas) -> dict[str, str | None]:
    """Run-level invariants, outside the timed phase; None means passed."""
    env = child_env()
    results = {}
    golden = run_cli(["decay", "--tau-s", "3", "--samples", "100000", "--seed", "42",
                      "--format", "json"], env)
    try:
        tau_hat = schemas.parse(golden, "decay_report")["tau_hat_s"]
        results["golden_tau3_m1e5_seed42"] = (
            None if tau_hat == GOLDEN_TAU3_M1E5_SEED42
            else f"tau_hat_s = {tau_hat.hex()} != {GOLDEN_TAU3_M1E5_SEED42.hex()}")
    except (CheckFailed, ValueError) as exc:
        results["golden_tau3_m1e5_seed42"] = str(exc)
    item = decay_large_inputs(seed)[0]
    outs = [run_cli(decay_large_args(item["v"], item["seed"], sizes, w), env)
            for w in sorted({1, WORKERS})]
    same = all(o.code == 0 for o in outs) and len({o.stdout for o in outs}) == 1
    results["decay_workers_bitwise"] = (
        None if same else f"stdout differs across --workers 1/{WORKERS} "
                          f"(exit codes {[o.code for o in outs]})")
    return results
