"""Tracing and per-layer probes for the traced run of the benchmark.

Every per-layer number is read from spans that this file records around
calls into one lightclock module's public functions; nothing inside
``src/`` is instrumented.  Layers are named after the modules: ``import``,
``cli``, ``decay``, ``line_element``, ``infinitesimals`` and ``radar``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import tracemalloc

from lightclock.cli import main as cli_main
from lightclock.decay import compare_frames, run_ensemble
from lightclock.infinitesimals import TruncatedHyper, grid_approximate
from lightclock.line_element import (
    LineElementParams,
    certify_derivation,
    invert_nsppm_velocity,
    nsppm_velocity,
)
from lightclock.radar import Reflector, simulate_ping

import reference
import workloads
from workloads import CLI_KINDS, EXACT_ORDERS, WORKERS, run_child

# Which end-to-end metric, on which workload, each layer's metrics should
# move.  Written down before any optimisation lands, so a later change can
# be held to it.
MOVES = {
    "import": "cli_short.op_p50_rel and op_mean_rel; predicted flat on decay_large",
    "cli": "cli_short.op_p50_rel and op_mean_rel",
    "decay": "decay_large.op_p50_rel, op_mean_rel and peak_rss_mb; "
             "ensemble_scan.op_p50_rel (not gated)",
    "line_element": "certify_sweep.op_p50_rel (not gated); cli_short.op_p50_rel only "
                    "slightly; no workload calls the inverse, so a faster inverse moves "
                    "only layer metrics",
    "infinitesimals": "certify_sweep.op_p50_rel (not gated)",
    "radar": "nothing measurable; predicted flat everywhere",
    "trace": "nothing: tracing cost of the benchmark itself, traced minus untraced "
             "op_p50_s of this workload",
}
IMPORTTIME_PACKAGES = ("lightclock", "numpy", "click")


class Tracer:
    """Spans (name, start, end, parent, op id), kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def summary(self) -> dict:
        """Count, total and self time per span name.

        A span's self time is its duration minus the part its children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _checked(failures: list, what: str, check, *args, **kwargs) -> None:
    try:
        check(*args, **kwargs)
    except Exception as exc:  # any failure of an output counts, as in the timed loop
        failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _repeat(tracer: Tracer, name: str, fn, reps: int) -> float:
    """Median seconds of ``reps`` calls of ``fn``, each in its own span."""
    for _ in range(reps):
        with tracer.span(name):
            fn()
    return tracer.median(name)


def _per_call_us(tracer: Tracer, name: str, fn, items, reps: int) -> float:
    """Median over ``reps`` passes of the mean microseconds per call."""
    per_call = []
    for _ in range(reps):
        with tracer.span(name):
            for item in items:
                fn(item)
        per_call.append(tracer.durations(name)[-1] / len(items))
    return statistics.median(per_call) * 1e6


def import_layer(tracer: Tracer, sizes) -> dict:
    env = workloads.child_env()
    reps = sizes.import_reps
    exe = sys.executable
    out = {
        "import.python_s": _repeat(tracer, "import.python",
                                   lambda: run_child([exe, "-c", "pass"], env), reps),
        "import.lightclock_cli_s": _repeat(
            tracer, "import.lightclock_cli",
            lambda: run_child([exe, "-c", "import lightclock.cli"], env), reps),
    }
    probe = run_child([exe, "-c", "import sys, lightclock.cli; "
                       "print(int('numpy' in sys.modules), len(sys.modules))"], env)
    numpy_loaded, modules = probe.stdout.split()
    out["import.numpy_loaded"] = int(numpy_loaded)
    out["import.modules_loaded"] = int(modules)
    cumulative = {pkg: [] for pkg in IMPORTTIME_PACKAGES}
    for _ in range(reps):
        with tracer.span("import.importtime"):
            result = run_child([exe, "-X", "importtime", "-c", "import lightclock.cli"], env)
        seen = {}
        for line in result.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1])
        for pkg in IMPORTTIME_PACKAGES:
            cumulative[pkg].append(seen.get(pkg, 0))
    for pkg, values in cumulative.items():
        out[f"import.cumulative_us.{pkg}"] = statistics.median(values)
    return out


def invoke_cli(args: list[str]) -> workloads.ChildResult:
    """Run one CLI command in-process, as a shell would see it.

    A command that fails calls ``sys.exit``; its code is kept like a child's
    exit code, and any other error counts as exit code 1.
    """
    out_buf, err_buf = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        try:
            cli_main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:
            code = 1
            err_buf.write(f"{type(exc).__name__}: {exc}")
    return workloads.ChildResult(code, out_buf.getvalue().encode(),
                                 err_buf.getvalue().encode(), 0)


def cli_layer(tracer: Tracer, sizes, seed: int, schemas, failures: list) -> dict:
    """Replay the first ``cli_short`` round in-process through click."""
    out = {}
    for kind, params in workloads.cli_short_inputs(seed)[:len(CLI_KINDS)]:
        spec = CLI_KINDS[kind]
        args = spec.argv(params)
        workloads.guard_argv(args)
        captured = []
        invoke_s = _repeat(tracer, f"cli.{kind}.invoke",
                           lambda: captured.append(invoke_cli(args)), sizes.cli_reps)
        library_s = _repeat(tracer, f"cli.{kind}.library",
                            lambda: spec.library(params), sizes.cli_reps)
        _checked(failures, f"cli.{kind}", spec.check, captured[-1], params, schemas)
        out[f"cli.{kind}.invoke_s"] = invoke_s
        out[f"cli.{kind}.library_s"] = library_s
        out[f"cli.{kind}.overhead_s"] = invoke_s - library_s
        out[f"cli.{kind}.stdout_bytes"] = len(captured[-1].stdout)
    return out


def decay_layer(tracer: Tracer, sizes, seed: int) -> dict:
    big, small = sizes.large_samples, sizes.scan_samples
    big_reps, small_reps = sizes.large_reps, sizes.scan_reps
    p = LineElementParams(v=0.6)
    out = {
        "decay.compare_frames.m1e7_s": _repeat(
            tracer, "decay.compare_frames.m1e7",
            lambda: compare_frames(1.0, p, big, seed, workers=WORKERS), big_reps),
        "decay.compare_frames.m2e4_s": _repeat(
            tracer, "decay.compare_frames.m2e4",
            lambda: compare_frames(1.0, p, small, seed, workers=WORKERS), small_reps),
    }
    for label, samples, reps in (("m1e7", big, big_reps), ("m2e4", small, small_reps)):
        for tag, workers in (("w1", 1), ("w2", WORKERS)):
            out[f"decay.run_ensemble.{label}_{tag}_s"] = _repeat(
                tracer, f"decay.run_ensemble.{label}_{tag}",
                lambda: run_ensemble(1.0, samples, seed, workers=workers), reps)
    tracemalloc.start()
    try:
        with tracer.span("decay.run_ensemble.tracemalloc"):
            run = run_ensemble(1.0, big, seed, workers=WORKERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A streaming ensemble engine need not keep the lifetimes at all.
    lifetimes = getattr(run, "lifetimes", None)
    out["decay.run_ensemble.peak_mib"] = peak / 2 ** 20
    out["decay.lifetimes_bytes"] = 0 if lifetimes is None else lifetimes.nbytes
    del run, lifetimes
    floor_s = _repeat(tracer, "decay.floor", lambda: reference.floor(big, seed), big_reps)
    re_w1 = out["decay.run_ensemble.m1e7_w1_s"]
    re_w2 = out["decay.run_ensemble.m1e7_w2_s"]
    out["decay.samples_per_s"] = big / re_w2
    out["decay.workers_speedup"] = re_w1 / re_w2
    out["decay.floor_s"] = floor_s
    out["decay.over_floor"] = re_w1 / floor_s
    return out


def line_element_layer(tracer: Tracer, sizes, seed: int, failures: list) -> dict:
    points = workloads.certify_points(seed, sizes.certify_probe_points)
    out = {}
    for v, d, c in points:
        for order in EXACT_ORDERS:
            with tracer.span(f"line_element.certify_exact.o{order}.probe"):
                report = certify_derivation(v, d, c, order=order, exact=True)
            _checked(failures, f"line_element.certify_exact.o{order}",
                     workloads.check_certification, report, exact=True)
        with tracer.span("line_element.certify_float.probe"):
            report = certify_derivation(float(v), float(d), float(c))
        _checked(failures, "line_element.certify_float",
                 workloads.check_certification, report, exact=False)
    for order in EXACT_ORDERS:
        out[f"line_element.certify_exact.o{order}_s"] = tracer.median(
            f"line_element.certify_exact.o{order}.probe")
    out["line_element.certify_float_s"] = tracer.median("line_element.certify_float.probe")
    n, reps = sizes.speed_grid, sizes.per_call_reps
    vs = [0.999 * i / n for i in range(n)]
    ws = [nsppm_velocity(v) for v in vs]
    out["line_element.nsppm_velocity_us"] = _per_call_us(
        tracer, "line_element.nsppm_velocity", nsppm_velocity, vs, reps)
    out["line_element.invert_nsppm_us"] = _per_call_us(
        tracer, "line_element.invert_nsppm", invert_nsppm_velocity, ws, reps)
    out["line_element.invert_roundtrip_max_err"] = max(
        abs(invert_nsppm_velocity(w) - v) for v, w in zip(vs, ws))
    return out


def infinitesimals_layer(tracer: Tracer, sizes, seed: int) -> dict:
    """Dense order-12 series built from ``certify_sweep`` points."""
    points = workloads.certify_points(seed, sizes.series_points)
    reps = sizes.per_call_reps
    exact = [tuple(pt[k % 3] + k for k in range(13)) for pt in points]
    floats = [tuple(float(x) for x in coeffs) for coeffs in exact]
    pairs_exact = [(TruncatedHyper(a), TruncatedHyper(b))
                   for a, b in zip(exact, exact[1:] + exact[:1])]
    pairs_float = [(TruncatedHyper(a), TruncatedHyper(b))
                   for a, b in zip(floats, floats[1:] + floats[:1])]
    reals = [float(v) + float(d) for v, d, _ in points]
    return {
        "infinitesimals.mul_exact_o12_us": _per_call_us(
            tracer, "infinitesimals.mul_exact_o12", lambda ab: ab[0] * ab[1],
            pairs_exact, reps),
        "infinitesimals.mul_float_o12_us": _per_call_us(
            tracer, "infinitesimals.mul_float_o12", lambda ab: ab[0] * ab[1],
            pairs_float, reps),
        "infinitesimals.construct_exact_o12_us": _per_call_us(
            tracer, "infinitesimals.construct_exact_o12", TruncatedHyper, exact, reps),
        "infinitesimals.grid_approximate_us": _per_call_us(
            tracer, "infinitesimals.grid_approximate",
            lambda r: grid_approximate(r, 1000), reals, reps),
    }


def radar_layer(tracer: Tracer, sizes, seed: int) -> dict:
    pings = [(Reflector(x0=p["x0"], v=p["v"]), t1)
             for kind, p in workloads.cli_short_inputs(seed) if kind == "radar"
             for t1 in p["t1s"]]
    return {"radar.simulate_ping_us": _per_call_us(
        tracer, "radar.simulate_ping", lambda rt: simulate_ping(rt[0], rt[1], 1.0),
        pings, sizes.per_call_reps)}


def measure_layers(tracer: Tracer, sizes, seed: int, schemas, failures: list) -> dict:
    """Every per-layer metric except the tracing overhead.

    Outputs the probes can check are checked; each failure is appended to
    ``failures`` and the probe goes on measuring.
    """
    out = {}
    out.update(import_layer(tracer, sizes))
    out.update(cli_layer(tracer, sizes, seed, schemas, failures))
    out.update(decay_layer(tracer, sizes, seed))
    out.update(line_element_layer(tracer, sizes, seed, failures))
    out.update(infinitesimals_layer(tracer, sizes, seed))
    out.update(radar_layer(tracer, sizes, seed))
    return out
