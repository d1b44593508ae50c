"""Run one workload of the lightclock benchmark and print its metrics.

    python3 perfbench/run.py --workload cli_short --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repository
root, and ``--seconds`` defaults to its ``run_seconds``.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` a separate traced
run reports the per-layer metrics and the tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
table goes to stderr, and the full record (provenance, run-level checks, every
metric including ``op_p90_s`` and ``failed_frac``, span summary) goes to
``perfbench/results/``.  ``--smoke`` shrinks every size for a quick check
that the harness works; its numbers mean nothing.

Exit codes: 0 the run completed and printed its result, whose ``correct``
says whether every op and every run-level check passed; 2 the sources or
the benchmark declaration are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("decay_large", "ensemble_scan", "certify_sweep", "cli_short")
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the measured phase (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, numbers meaningless")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, run one warm-up op and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric name -> unit for this mode, as BENCHMARK.json declares them."""
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


# ------------------------------------------------------------ measurement

def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds``; with a tracer, every other group is traced.

    Latency runs from the call into the program until its reply; the output
    check follows outside it.  A failed op is counted, never dropped.
    Untraced, the workload's reference work is timed after every group, and
    each group's mean op latency is paired with the reference that follows.
    """
    from workloads import NullTracer

    null = NullTracer()
    min_ops = wl.group * (1 if tracer is None else 2)
    latencies = {False: [], True: []}
    references, reference_failures, pairs = [], [], []
    failures = []
    maxrss_kib = 0
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    while attempted < min_ops or attempted % wl.group or time.perf_counter() < deadline:
        if attempted % wl.group == 0:
            group_start = len(latencies[False])
        item = wl.inputs[attempted % len(wl.inputs)]
        traced = tracer is not None and (attempted // wl.group) % 2 == 1
        tr = tracer if traced else null
        try:
            t0 = time.perf_counter()
            with tr.span("op", op=attempted):
                outcome = wl.call(item, tr)
            latencies[traced].append(time.perf_counter() - t0)
            maxrss_kib = max(maxrss_kib, outcome.maxrss_kib)
            wl.check(item, outcome)
        except Exception as exc:  # every failure counts; the loop goes on
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        attempted += 1
        if tracer is None and attempted % wl.group == 0:
            try:
                t0 = time.perf_counter()
                wl.reference(item)
                references.append(time.perf_counter() - t0)
                if len(latencies[False]) > group_start:
                    pairs.append((statistics.fmean(latencies[False][group_start:]),
                                  references[-1]))
            except Exception as exc:
                reference_failures.append(f"after op {attempted - 1}: "
                                          f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    if wl.in_process:
        maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"attempted": attempted, "failures": failures, "wall_s": wall,
            "untraced": latencies[False], "traced": latencies[True],
            "references": references, "reference_failures": reference_failures,
            "pairs": pairs, "maxrss_kib": maxrss_kib}


def setup_times(name: str, seed: int, sizes) -> tuple[list[float], list[str]]:
    """Wall time of fresh processes that only set up and warm up."""
    from workloads import child_env, run_child

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"] + (["--smoke"] if sizes.smoke else [])
    times, errors = [], []
    for _ in range(sizes.setup_probes):
        t0 = time.perf_counter()
        result = run_child(argv, child_env())
        times.append(time.perf_counter() - t0)
        if result.code != 0:
            errors.append(result.stderr.decode(errors="replace").strip()[-300:])
    return times, errors


def end_to_end(stats: dict, setup: list[float]) -> tuple[dict, dict]:
    """The declared end-to-end metrics, and those kept for the record.

    Op latency is gated relative to the reference work timed beside it
    (reference.py says why); the wall-clock figures are kept for the record.
    ``op_p50_rel`` is the median over groups of mean op latency divided by
    the reference right after, so that each ratio spans a few seconds only.
    """
    lat, ref = stats["untraced"], stats["references"]
    metrics = {
        "op_p50_rel": statistics.median(op / r for op, r in stats["pairs"]),
        "op_mean_rel": statistics.fmean(lat) / statistics.fmean(ref),
        "peak_rss_mb": stats["maxrss_kib"] * 1024 / 1e6,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "ops_per_s": stats["attempted"] / (stats["wall_s"] - sum(ref)),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_OPS
        else None,
        "op_p90_note": f"{len(lat)} op latencies" + (
            "" if len(lat) >= P90_MIN_OPS else
            f"; p90 needs >= {P90_MIN_OPS} so that 10 lie beyond it"),
        "reference_p50_s": statistics.median(ref),
        "references": len(ref),
        "failed_frac": len(stats["failures"]) / stats["attempted"],
    }
    return metrics, extra


# ------------------------------------------------------------- provenance

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _git(*args) -> str | None:
    # Only inside a git checkout of this repository: never search upwards.
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def _caches() -> dict[str, int]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            text = size.strip()
            scale = {"K": 2 ** 10, "M": 2 ** 20}.get(text[-1], 1)
            sizes[f"l{level.strip()}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def provenance(args, sizes) -> dict:
    import lightclock

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = _caches()
    l3 = caches.get("l3_bytes")
    array_bytes = 8 * sizes.large_samples
    if l3 is None:
        cache_note = "L3 size unknown"
    else:
        fits = "fit in" if array_bytes <= l3 else "exceed"
        cache_note = (f"L3 is {l3 / 2 ** 20:.0f} MiB and the {array_bytes / 1e6:.0f} MB "
                      f"lifetime arrays of decay_large {fits} it"
                      + (", so decay numbers are cache-resident and are not a "
                         "memory-bandwidth measurement" if array_bytes <= l3 else ""))
    return {
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "jsonschema": metadata.version("jsonschema"),
        "lightclock": lightclock.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "cache_note": cache_note,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


# ------------------------------------------------------------------- runs

def run_one(args, sizes) -> int:
    import workloads

    declared = declared_metrics(bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    wl.warm_up()
    run_checks = workloads.invariant_checks(args.seed, sizes, wl.schemas)
    record: dict = {}
    if args.trace:
        import layers

        tracer = layers.Tracer()
        stats = measure(wl, args.seconds, tracer)
        probe_failures = []
        metrics = layers.measure_layers(tracer, sizes, args.seed, wl.schemas,
                                        probe_failures)
        if probe_failures:
            run_checks["layer_probe_checks"] = "; ".join(probe_failures[:3])
        untraced, traced = stats["untraced"], stats["traced"]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        record["tracing"] = {"op_p50_untraced_s": statistics.median(untraced),
                             "op_p50_traced_s": statistics.median(traced),
                             "ops_untraced": len(untraced), "ops_traced": len(traced)}
        record["moves"] = {name: layers.MOVES[name.split(".")[0]] for name in metrics}
        record["spans"] = tracer.summary()
    else:
        stats = measure(wl, args.seconds)
        if stats["reference_failures"]:
            run_checks["reference"] = stats["reference_failures"][0]
        if not stats["pairs"]:
            raise SystemExit(f"error: no op was followed by reference work: "
                             f"{run_checks.get('reference') or stats['failures'][:1]}")
        setup, setup_errors = setup_times(args.workload, args.seed, sizes)
        if setup_errors:
            run_checks["setup_probe"] = setup_errors[0]
        metrics, extra = end_to_end(stats, setup)
        record["extra"] = extra
        record["setup_samples_s"] = setup
    if set(metrics) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
                         f"differ from BENCHMARK.json")
    failed = len(stats["failures"])
    correct = failed == 0 and all(v is None for v in run_checks.values())
    result = {"correct": correct, "attempted": stats["attempted"], "failed": failed,
              "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()}}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record.update(result=result, run_checks=run_checks, failures=stats["failures"][:10],
                  measured_wall_s=stats["wall_s"], provenance=provenance(args, sizes))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} traced={args.trace} "
          f"attempted={stats['attempted']} failed={failed}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"  {name:45s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    for name, value in record.get("extra", {}).items():
        print(f"  {name:45s} {value}", file=sys.stderr)
    for name, error in run_checks.items():
        print(f"  check {name}: {'ok' if error is None else 'FAILED: ' + error}",
              file=sys.stderr)
    for line in stats["failures"][:3]:
        print(f"  failure {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so in-process peak RSS stays its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lightclock" / "__init__.py").is_file():
        print(f"error: no lightclock sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    os.environ.pop("LIGHTCLOCK_CONFIG", None)
    sys.path.insert(0, str(SRC))
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, sizes).warm_up()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
