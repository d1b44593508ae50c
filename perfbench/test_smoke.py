"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs once untraced and once traced with ``--smoke``.  The
test checks the shape of the result line, that exactly the metrics
``BENCHMARK.json`` declares are emitted with their units, that every op and
every run-level check passed, and that the checks reject bad output.  It
never asserts a timing value.

Run it from the repository root with the sources on the path:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The smoke inputs of this seed miss the known float-certification defect
# (see README.md), so every op is expected to pass.
SEED = 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    stem = f"{workload}-seed{SEED}-trace{trace}-smoke"
    record = json.loads((ROOT / "perfbench" / "results" / f"{stem}.json").read_text())
    assert record["run_checks"]["golden_tau3_m1e5_seed42"] is None
    assert record["run_checks"]["decay_workers_bitwise"] is None
    for key in ("git_commit", "python", "numpy", "click", "lightclock", "nproc",
                "cpu_model", "ram_bytes", "seed", "traced", "cache_note"):
        assert key in record["provenance"]
    if trace:
        assert set(record["moves"]) == set(declared)
        assert (ROOT / "perfbench" / "results" / f"{stem}.spans.jsonl").stat().st_size > 0
    else:
        assert set(record["extra"]) >= {"ops_per_s", "op_p50_s", "op_p90_s",
                                        "reference_p50_s", "failed_frac"}
        assert record["run_checks"].get("reference") is None


def _child(code=0, stdout=b""):
    return workloads.ChildResult(code, stdout, b"", 0)


def test_output_checks_reject_bad_output():
    schemas = workloads.Schemas()
    with pytest.raises(workloads.CheckFailed):
        schemas.parse(_child(code=3, stdout=b"{}"), "decay_report")
    with pytest.raises(workloads.CheckFailed):
        schemas.parse(_child(stdout=b'{"tau_s": NaN}'), "decay_report")
    with pytest.raises(workloads.CheckFailed):
        schemas.parse(_child(stdout=b"[{}]"), "radar_records")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_csv(_child(stdout=b"v,w\n0.0,nan\n"), ["v", "w"], 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_csv(_child(stdout=b"v,w\n0.0,1.0\n"), ["v", "w"], 2)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_decay({"z_score": 5.5, "samples": 10, "seed": 1}, 10, 1)
    with pytest.raises(ValueError):
        workloads.guard_argv(["decay", "--workers", str(workloads.WORKERS + 1)])
    with pytest.raises(ValueError):
        workloads.guard_argv(["decay", "--samples", str(workloads.MAX_SAMPLES + 1)])


def test_cli_probe_keeps_exit_code_of_failed_command():
    # A float certification that fails exits 4; the probe must record that.
    result = layers.invoke_cli(["derive", "--v", "7/41", "--d", "22/41"])
    assert result.code == 4
    with pytest.raises(workloads.CheckFailed):
        workloads.CLI_KINDS["derive_float"].check(result, {}, workloads.Schemas())
    assert layers.invoke_cli(["derive", "--v", "1/2", "--exact"]).code == 0
