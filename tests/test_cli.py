"""CLI tests: subcommands, exit codes, formats, flags and schemas."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import lightclock
from lightclock import cli as cli_module
from lightclock import decay as decay_module
from lightclock import line_element
from lightclock.line_element import certify_derivation
from lightclock.schemas import load_schema


def assert_rejected(result):
    """Exit 2, nothing on stdout and exactly one error line on stderr."""
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


class TestRadarCommand:
    def test_two_pings_csv(self, cli):
        result = cli(["radar", "--x0", "0", "--v", "0.5",
                      "--t1", "1", "--t1", "2"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "t1,t3,c,tE,rE,vE"
        assert lines[1] == "1.0,3.0,1.0,2.0,1.0,0.5"
        assert lines[2] == "2.0,6.0,1.0,4.0,2.0,0.5"

    def test_superluminal_exits_2_and_names_constraint(self, cli):
        result = cli(["radar", "--x0", "1", "--v", "1.5", "--t1", "0"])
        assert result.exit_code == 2
        assert "superluminal" in result.stderr

    def test_stationary_target_round_trip(self, cli):
        result = cli(["radar", "--x0", "5", "--v", "0", "--t1", "0"])
        assert result.exit_code == 0
        row = result.stdout.splitlines()[1].split(",")
        assert float(row[1]) == 10.0  # t3 = 2 * distance / c

    def test_empty_velocity_field_when_undefined(self, cli):
        # emission at -1 against a unit-distance mirror puts t_E exactly at 0
        result = cli(["radar", "--x0", "1", "--v", "0",
                      "--t1", "-1", "--format", "csv"])
        assert result.exit_code == 0
        row = result.stdout.splitlines()[1]
        assert row.endswith(",")  # vE cell is empty

    def test_json_validates_schema(self, cli):
        result = cli(["radar", "--x0", "2", "--v", "0.25",
                      "--t1", "1", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("radar_records"))

    def test_missing_emission_time(self, cli):
        result = cli(["radar", "--x0", "1", "--v", "0.5"])
        assert result.exit_code == 2

    def test_position_required(self, cli):
        # at x0 = 0 and the default v = 0 the reflector sits on the emitter
        result = cli(["radar", "--t1", "1"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: the following arguments are required: --x0\n"

    def test_geometry_error_exits_2(self, cli):
        result = cli(["radar", "--x0", "-5", "--v", "0", "--t1", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_velocity_rejected_alike_in_each_format(self, cli, fmt):
        result = cli(["radar", "--x0", "1", "--c", "1.7e308",
                      "--t1=-5.8823529411764695e-309", "--format", fmt])
        assert_rejected(result)
        assert result.stderr == ("error: radar measures overflow: "
                                 "t3=5.882352941176477e-309, t_E=5e-324, "
                                 "r_E=1.0000000000000002, v_E=inf\n")


class TestDeriveCommand:
    def test_float_certification(self, cli):
        result = cli(["derive", "--v", "0.6"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["eta"] == pytest.approx(0.64, rel=1e-15)
        assert report["alpha"] == pytest.approx(-0.6, rel=1e-15)
        assert report["beta"] == pytest.approx(0.9375, rel=1e-15)
        assert report["passed"] is True
        assert report["lhs_coeffs"][2] == report["lhs_eps2"]
        assert report["rhs_coeffs"][2] == report["rhs_eps2"]
        jsonschema.validate(report, load_schema("derive_report"))

    def test_exact_mode_zero_error(self, cli):
        result = cli(["derive", "--v", "0.6", "--exact"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["exact"] is True
        assert report["eps2_rel_error"] == 0.0
        assert report["lhs_eps2"] == report["rhs_eps2"]
        jsonschema.validate(report, load_schema("derive_report"))

    def test_exact_mode_accepts_plain_fractions(self, cli):
        result = cli(["derive", "--v", "3/5", "--d", "1/10", "--exact"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["eps2_rel_error"] == 0.0

    def test_tiny_speed_keeps_rejected_branch_ratio(self, cli):
        # eta rounds to 1 here; the ratio is built from (v + d)/c directly
        result = cli(["derive", "--v", "1e-9"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["rejected_branch_ratio"] == -1e-9
        assert report["passed"] is True

    def test_certification_failure_says_why_on_stderr(self, cli, monkeypatch):
        # a dilated interval off by one part in 10**9 fails the 1e-12 gate
        real = line_element._dilated_interval
        monkeypatch.setattr(line_element, "_dilated_interval",
                            lambda *args: real(*args) * (1 + 1e-9))
        result = cli(["derive", "--v", "1/3"])
        report = json.loads(result.stdout)
        assert result.exit_code == 4
        jsonschema.validate(report, load_schema("derive_report"))
        assert [k for k, ok in report["checks"].items() if not ok] == \
            ["line_elements_match"]
        assert result.stderr == (
            "certification check failed: line_elements_match: measured "
            f"{report['eps2_rel_error']!r} > tolerance 1e-12\n")

    def test_light_speed_boundary_exits_2(self, cli):
        result = cli(["derive", "--v", "1.0"])
        assert result.exit_code == 2

    def test_malformed_number_exits_2(self, cli):
        result = cli(["derive", "--v", "fast"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("argv", [["--v", "1e-100000000"], ["--exact", "--v", "1e-100000"]])
    def test_huge_exponent_rejected_before_any_power_is_built(self, argv):
        # 10**100000000 would take minutes to build, and an exact chain on a
        # 100001-digit denominator tens of seconds; in a fresh process
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "lightclock", "derive", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        size = int(argv[-1].split("e-")[1]) + 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: --v must spell at most 4300 digits, an exponent's magnitude "
                   f"counted as digits, got {size}\n")

    @pytest.mark.parametrize("text, size", [
        ("1e-4299", 4300), ("0.5e-4298", 4300), ("1/" + "7" * 4299, 4300),
        ("1e-4300", 4301), ("0.5e-4299", 4301), ("1/" + "7" * 4300, 4301)])
    def test_digit_bound_is_inclusive(self, cli, monkeypatch, text, size):
        result = cli(["derive", "--exact", "--c", text, "--v", "0"])
        if size <= cli_module.MAX_DIGITS:
            assert result.exit_code == 0
        else:
            assert_rejected(result)
            assert result.stderr.endswith(f"counted as digits, got {size}\n")
        # the bound is read at call time
        monkeypatch.setattr(cli_module, "MAX_DIGITS", size)
        assert cli(["derive", "--exact", "--c", text, "--v", "0"]).exit_code == 0

    def test_exponent_that_is_no_integer_counts_no_digits(self, cli):
        # at the bound, such a text is reported as malformed, not as too long
        text = "1/" + "7" * 4299 + "ex"
        result = cli(["derive", "--v", text])
        assert_rejected(result)
        assert result.stderr == \
            f"error: --v must be a finite number (decimal or p/q), got {text!r}\n"


class TestDecayCommand:
    def test_json_report(self, cli):
        result = cli(["decay", "--tau-s", "1", "--v", "0.6",
                      "--samples", "100000", "--seed", "42",
                      "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["ratio"] == pytest.approx(1.25, abs=0.03)
        assert abs(report["z_score"]) <= 5.0
        jsonschema.validate(report, load_schema("decay_report"))

    def test_csv_report_has_header_and_row(self, cli):
        result = cli(["decay", "--tau-s", "1", "--v", "0.6",
                      "--samples", "1000", "--seed", "3"])
        lines = result.stdout.splitlines()
        assert result.exit_code == 0
        assert lines[0].startswith("tau_s,v,c,lambda,gamma,tau_m_analytic")
        assert len(lines) == 2

    def test_negative_lifetime_exits_2(self, cli):
        result = cli(["decay", "--tau-s", "-1"])
        assert result.exit_code == 2

    def test_tiny_sample_count_still_passes_gate(self, cli):
        result = cli(["decay", "--tau-s", "1", "--v", "0",
                      "--samples", "10", "--seed", "7"])
        assert result.exit_code == 0

    def test_lifetime_beyond_bound_exits_2(self, cli):
        assert_rejected(cli(["decay", "--tau-s", "1e16"]))

    def test_zero_samples_exits_2(self, cli):
        result = cli(["decay", "--tau-s", "1", "--samples", "0"])
        assert result.exit_code == 2

    def test_samples_beyond_cap_exit_2(self, cli):
        result = cli(["decay", "--tau-s", "1", "--samples", "1000000001"])
        assert_rejected(result)
        assert "1..1000000000" in result.stderr

    def test_gate_failure_says_why_on_stderr(self, cli, monkeypatch):
        args = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "1000",
                "--seed", "3", "--format", "json"]
        passed = cli(args)
        real = decay_module.compare_frames

        def off_by_six_sigma(*a, **kw):
            return real(*a, **kw)._replace(z_score=-6.5)

        monkeypatch.setattr(decay_module, "compare_frames", off_by_six_sigma)
        result = cli(args)
        report = json.loads(passed.stdout)
        assert result.exit_code == 3
        assert result.stdout == passed.stdout.replace(repr(report["z_score"]), "-6.5")
        assert result.stderr == (
            "dilation check failed: z = -6.5 is outside |z| <= 5.0; "
            f"tau_hat_s = {report['tau_hat_s']!r}, tau_hat_m = {report['tau_hat_m']!r}\n")

    def test_byte_reproducible(self, cli):
        args = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "2000",
                "--seed", "21", "--format", "json"]
        assert cli(args).stdout == cli(args).stdout

    def test_worker_count_does_not_change_output(self, cli):
        base = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "10000",
                "--seed", "21", "--format", "json"]
        one = cli(base + ["--workers", "1"]).stdout
        eight = cli(base + ["--workers", "8"]).stdout
        assert one == eight

    def test_out_writes_file(self, cli, tmp_path):
        target = tmp_path / "report.json"
        result = cli(["decay", "--tau-s", "1", "--samples", "100",
                      "--seed", "0", "--format", "json",
                      "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == result.stderr == ""
        jsonschema.validate(json.loads(target.read_text()),
                            load_schema("decay_report"))

    def test_out_directory_rejected_before_drawing(self, cli, tmp_path, monkeypatch):
        monkeypatch.setattr(decay_module, "compare_frames", None)  # never reached
        result = cli(["decay", "--tau-s", "1", "--out", str(tmp_path)])
        assert_rejected(result)
        assert result.stderr == f"error: argument --out: {str(tmp_path)!r} is a directory\n"

    def test_out_in_missing_directory_rejected_before_drawing(self, cli, tmp_path,
                                                              monkeypatch):
        monkeypatch.setattr(decay_module, "compare_frames", None)  # never reached
        target = str(tmp_path / "missing" / "x.json")
        result = cli(["decay", "--tau-s", "1", "--out", target])
        assert_rejected(result)
        assert result.stderr == \
            f"error: argument --out: the directory of {target!r} does not exist\n"


class TestVelmapCommand:
    def test_table_shape_and_first_row(self, cli):
        result = cli(["velmap", "--vmax", "0.9", "--steps", "9"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "v,w"
        assert len(lines) == 11  # header + 10 rows
        assert lines[1] == "0.0,0.0"

    def test_known_value_row(self, cli):
        result = cli(["velmap", "--vmax", "0.9", "--steps", "9"])
        v, w = map(float, result.stdout.splitlines()[7].split(","))
        assert v == pytest.approx(0.6, rel=1e-12)
        assert w == pytest.approx(0.3768859011881901, abs=1e-9)

    def test_strictly_increasing(self, cli):
        result = cli(["velmap", "--vmax", "0.99", "--steps", "200"])
        ws = [float(line.split(",")[1])
              for line in result.stdout.splitlines()[1:]]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_alternate_column(self, cli):
        result = cli(["velmap", "--vmax", "0.5", "--steps", "2",
                      "--alternate"])
        lines = result.stdout.splitlines()
        assert lines[0] == "v,w,w_alt"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_vmax_near_float_limit_keeps_exact_rows(self, cli):
        # vmax * i overflows for i >= 2, vmax * (i / steps) does not
        result = cli(["velmap", "--vmax", "1e308", "--c", "1.7e308",
                      "--steps", "3"])
        assert result.exit_code == 0
        vs = [float(line.split(",")[0]) for line in result.stdout.splitlines()[1:]]
        assert vs == [0.0, 1e308 / 3, 1e308 * (2 / 3), 1e308]

    @pytest.mark.parametrize("args, column", [
        (["--vmax", "0.9999999999e308", "--c", "1e308", "--steps", "1", "--alternate"], "w"),
        # w stays finite, the larger textbook angle does not
        (["--vmax", "1.36e308", "--c", "1.7e308", "--steps", "1", "--alternate"], "w_alt"),
    ])
    def test_overflow_line_names_its_column(self, cli, args, column):
        result = cli(["velmap", *args])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (2, "", f"error: {column} must be finite, got inf\n")

    def test_vmax_at_light_speed_exits_2(self, cli):
        result = cli(["velmap", "--vmax", "1.0"])
        assert result.exit_code == 2

    def test_last_row_does_not_round_up_to_light_speed(self, cli):
        # 0.826787206319913 * 11 / 11 rounds up to the next float, which is c
        result = cli(["velmap", "--vmax", "0.826787206319913",
                      "--c", "0.8267872063199131", "--steps", "11"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1].split(",")[0] == "0.826787206319913"

    def test_no_row_above_vmax(self, cli):
        rng = random.Random(24)
        for _ in range(300):
            vmax, steps = rng.uniform(0, 1), rng.randint(1, 40)
            result = cli(["velmap", "--vmax", repr(vmax), "--steps", str(steps)])
            vs = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
            assert vs == [repr(vmax * i / steps) for i in range(steps)] + [repr(vmax)]


class TestRetiredConfig:
    """``LIGHTCLOCK_CONFIG`` no longer sets any value: a run with it set is
    refused once the argv is read, so that an old file's ``c`` never falls
    back to 1 unnoticed."""

    LINE = "error: LIGHTCLOCK_CONFIG is no longer read; pass --c, --format or --out\n"
    ARGVS = {
        "radar": ["radar", "--x0", "5", "--t1", "0"],
        "derive": ["derive", "--v", "0.5"],
        "decay": ["decay", "--tau-s", "1", "--samples", "10"],
        "velmap": ["velmap", "--vmax", "0.5"],
    }

    @pytest.mark.parametrize("cmd", ARGVS)
    def test_set_variable_exits_2_in_a_fresh_process(self, tmp_path, cmd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2.0}))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LIGHTCLOCK_CONFIG=str(cfg))

        def run(argv):
            proc = subprocess.run([sys.executable, "-m", "lightclock", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        assert run(self.ARGVS[cmd]) == (2, "", self.LINE)
        code, stdout, stderr = run([cmd, "--help"])
        assert (code, stderr) == (0, "") and stdout.startswith(f"usage: lightclock {cmd} ")
        assert run(["--version", cmd]) == (0, f"lightclock {lightclock.__version__}\n", "")

    @pytest.mark.parametrize("argv", [
        # a flag for each of the file's three keys, one value of them bad
        ["radar", "--x0", "5", "--t1", "0", "--c", "2"],
        ["radar", "--x0", "5", "--t1", "0", "--c", "-1"],
        ["velmap", "--vmax", "0.5", "--out", "x.csv"],
        ["decay", "--tau-s", "1", "--format", "json"],
    ])
    def test_no_flag_saves_a_set_variable(self, cli, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(decay_module, "compare_frames", None)  # never reached
        result = cli(argv, env={"LIGHTCLOCK_CONFIG": "cfg.json"})
        assert_rejected(result)
        assert result.stderr == self.LINE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, stdout", [
        (["--help"], "usage: lightclock [--help] [--version] COMMAND ...\n"),
        (["--version"], f"lightclock {lightclock.__version__}\n"),
    ])
    def test_top_level_help_and_version_exit_0(self, cli, argv, stdout):
        result = cli(argv, env={"LIGHTCLOCK_CONFIG": "cfg.json"})
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(stdout)

    def test_usage_error_is_reported_first(self, cli):
        result = cli(["radar", "--x0", "5", "--c", "abc"], env={"LIGHTCLOCK_CONFIG": "x"})
        assert_rejected(result)
        assert result.stderr == "error: argument --c: invalid float value: 'abc'\n"

    def test_empty_variable_is_ignored(self, cli):
        result = cli(self.ARGVS["radar"], env={"LIGHTCLOCK_CONFIG": ""})
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == "t1,t3,c,tE,rE,vE\n0.0,10.0,1.0,5.0,5.0,1.0\n"


ROOT = Path(__file__).resolve().parents[1]


class TestHelpAndErrors:
    FLAGS = {
        "radar": ["--x0", "--v", "--t1", "--c", "--format", "--out"],
        "derive": ["--v", "--d", "--c", "--exact", "--out"],
        "decay": ["--tau-s", "--v", "--c", "--samples", "--seed", "--workers",
                  "--format", "--out"],
        "velmap": ["--vmax", "--steps", "--c", "--alternate", "--out"],
    }
    METAVARS = {"_finite_float": "FLOAT", "_integer": "INTEGER", "_rational": "TEXT",
                "_path": "PATH", "_format": "{csv,json}"}

    @pytest.mark.parametrize("cmd", ["radar", "derive", "decay", "velmap"])
    def test_help_available(self, cli, cmd):
        result = cli([cmd, "--help"])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout.startswith(f"usage: lightclock {cmd} ")
        for flag in self.FLAGS[cmd] + ["--help"]:
            assert re.search(rf"^  {flag}\b", result.stdout, re.M), flag
        # each flag with its metavar, help and [required] or [default: ...]
        help_text = " ".join(result.stdout.split())
        for opt in cli_module._COMMANDS[cmd][1]:
            metavar = f" {self.METAVARS[opt.convert.__name__]}" if opt.convert else ""
            note = " [required]" if opt.required else (
                "" if opt.default is None else f" [default: {opt.default}]")
            assert f" {opt.flag}{metavar} {opt.help}{note} " in help_text, opt.flag

    @pytest.mark.parametrize("cmd", ["radar", "derive", "decay", "velmap"])
    def test_help_states_the_flag_defaults(self, cli, cmd):
        # flags are the one way to set c and the format, so their help says what
        # a run without them uses
        help_text = cli([cmd, "--help"]).stdout
        assert re.search(r"^  --c \w+ +Local light speed\. \[default: 1\.0\]$", help_text, re.M)
        has_format = "--format" in self.FLAGS[cmd]
        assert has_format == bool(re.search(
            r"^  --format \{csv,json\} +Output format\. \[default: csv\]$", help_text, re.M))

    def test_top_level_help(self, cli):
        result = cli(["--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: lightclock ")
        for name in ["radar", "derive", "decay", "velmap", "--help", "--version"]:
            assert re.search(rf"^  {name}\b", result.stdout, re.M), name

    def test_decay_help_states_the_sample_cap(self, cli):
        # from the constant in errors, so that reading an argv never imports decay
        help_text = " ".join(cli(["decay", "--help"]).stdout.split())
        assert f"Lifetimes drawn per frame, 1..{decay_module.MAX_SAMPLES}." in help_text

    def test_decay_help_states_the_block_size(self, cli):
        # from errors too; spaces dropped, so that no line layout of the help matters
        block = decay_module.BLOCK
        assert block == 2 ** (block.bit_length() - 1)
        expected = (f"Threads, capped at the CPU count, over the leaves of numpy's pairwise "
                    f"sum: at most 2^{block.bit_length() - 1} samples each, sized by "
                    f"--samples; memory is O(threads x {8 * block // 2 ** 20} MiB)")
        assert "".join(expected.split()) in "".join(cli(["decay", "--help"]).stdout.split())

    def test_version(self, cli):
        result = cli(["--version"])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (0, f"lightclock {lightclock.__version__}\n", "")

    def test_version_from_a_checkout(self):
        # read from the package itself, not from installed-package metadata
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "lightclock", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"lightclock {lightclock.__version__}\n", "")

    def test_version_matches_pyproject(self):
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "(.*)"$', text, re.M)[1] == lightclock.__version__

    @pytest.mark.parametrize("args", [
        ["decay", "--tau-s", "1", "--v", "nan", "--format", "json"],
        ["decay", "--tau-s", "1", "--c", "inf"],
        ["radar", "--x0", "1", "--t1", "1", "--c", "nan"],
        ["velmap", "--vmax", "0.5", "--c", "inf"],
        ["derive", "--v", "1e400"],
        ["velmap", "--vmax", "0.5", "--out", "{tmp}/missing/x.csv"],
        ["radar", "--x0", "1e308", "--t1", "1"],
        ["radar", "--x0", "1e308", "--t1", "1", "--format", "json"],
        # every lifetime underflows to 0 at this seed
        ["decay", "--tau-s", "5e-324", "--samples", "1", "--seed", "0"],
        # a subnormal rest lifetime keeps too few bits to be dilated
        ["decay", "--tau-s", "5e-324", "--v", "0.6", "--samples", "1000"],
        ["velmap", "--vmax", "0.5", "--steps", "1000001"],
        # w exceeds the float range although vmax < c
        ["velmap", "--vmax", "1.69e308", "--c", "1.7e308", "--steps", "1"],
        # c - v overflows although |v| < c
        ["radar", "--x0", "1", "--v", "-1.7e308", "--c", "1.79e308", "--t1", "-1"],
    ])
    def test_non_finite_input_exits_2(self, cli, tmp_path, args):
        assert_rejected(cli([a.replace("{tmp}", str(tmp_path)) for a in args]))

    def test_unallocatable_ensemble_exits_2(self, cli):
        # 10^12 samples, 7.28 TiB as one buffer: refused by the cap, on every
        # host, before anything is drawn
        assert_rejected(cli(["decay", "--tau-s", "1",
                             "--samples", "1000000000000"]))

    def test_malformed_flag_value_exits_2(self, cli):
        assert_rejected(cli(["radar", "--v", "abc", "--t1", "1"]))

    def test_unknown_subcommand_exits_2(self, cli):
        assert_rejected(cli(["teleport"]))

    @pytest.mark.parametrize("argv, shown", [
        (["radar", "--x0", "1", "--c", "-1"], "-1.0"),  # before the missing --t1
        (["velmap", "--vmax", "2", "--steps", "0", "--c", "0"], "0.0"),
        (["derive", "--v", "2", "--c", "-1/2"], "-1/2"),
    ])
    def test_light_speed_is_checked_before_the_command_runs(self, cli, argv, shown):
        result = cli(argv)
        assert_rejected(result)
        assert result.stderr == f"error: light speed must be positive and finite, got {shown}\n"


class TestClickValueSemantics:
    """How the CLI reads an argv, pinned to what the click front end did.

    Expected exit codes, stdout and stderr lines were recorded from it, except
    for the cases below the "one-pass reader" comments, which pin the rules
    of ``cli._read``, and where it departs from the argparse front end.
    """

    CSV_1_1 = "t1,t3,c,tE,rE,vE\n1.0,3.0,1.0,2.0,1.0,0.5\n"

    @pytest.mark.parametrize("argv, stdout", [
        # a value option takes the next token, even one led by "-"
        (["radar", "--x0", "1", "--v", "-1e-05", "--t1", "1"],
         "t1,t3,c,tE,rE,vE\n1.0,2.9999600003999958,1.0,1.9999800001999979,"
         "0.9999800001999979,0.49999499999999997\n"),
        # the last of a repeated option wins; the values it overrides are unchecked
        (["radar", "--x0", "1", "--v", "nan", "--v", "0.5", "--t1", "1"],
         "t1,t3,c,tE,rE,vE\n1.0,7.0,1.0,4.0,3.0,0.75\n"),
        (["radar", "--x0", "1", "--format", "xml", "--format", "json", "--t1", "1"],
         '[\n  {\n    "t1": 1.0,\n    "t3": 3.0,\n    "c": 1.0,\n    "tE": 2.0,\n'
         '    "rE": 1.0,\n    "vE": 0.5\n  }\n]\n'),
        # repeated --t1 keep their order
        (["radar", "--x0", "1", "--t1", "2", "--t1", "1"],
         "t1,t3,c,tE,rE,vE\n2.0,4.0,1.0,3.0,1.0,0.3333333333333333\n"
         "1.0,3.0,1.0,2.0,1.0,0.5\n"),
        # "--" is dropped before the command and as the last token
        (["radar", "--x0", "1", "--t1", "1", "--"], CSV_1_1),
        (["--", "radar", "--x0", "1", "--t1", "1"], CSV_1_1),
        (["radar", "--x0=1", "--t1=1"], CSV_1_1),
    ])
    def test_accepted(self, cli, argv, stdout):
        result = cli(argv)
        assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")

    def test_negative_fraction_value(self, cli):
        result = cli(["derive", "--v", "1/2", "--d", "-1/10"])
        report = certify_derivation(0.5, -0.1, 1.0)
        assert result.exit_code == 0
        assert result.stdout == json.dumps(report.as_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("argv, stderr", [
        (["radar", "--x0", "-inf", "--t1", "1"], "error: --x0 must be finite, got -inf\n"),
        (["decay", "--tau-s", "-inf"], "error: --tau-s must be finite, got -inf\n"),
        # a value option followed by an option takes it as its value
        (["radar", "--x0", "1", "--t1", "--format"], None),
        (["radar", "--x0", "1", "--t1"], None),
        (["derive", "--v", "0.5", "--exac"], None),
        ([], None),
        (["radar", "--x0", "1", "--t1", "--"], None),
        (["derive", "--v", "--"],
         "error: --v must be a finite number (decimal or p/q), got '--'\n"),
        (["radar", "--x0", "1", "--t1", "1", "--", "x"], None),
        (["radar", "-h"], None),
        (["derive", "--exact=1", "--v", "1"], None),
        # flags are checked in the order they first appear, then the rest
        (["radar", "--x0", "1", "--c", "nan", "--t1", "abc"],
         "error: --c must be finite, got nan\n"),
        (["radar", "--x0", "1", "--t1", "1", "--v", "nan", "--t1", "inf"],
         "error: --t1 must be finite, got inf\n"),
        (["decay", "--v", "nan"], "error: --v must be finite, got nan\n"),
        # one-pass reader: a flag the command does not know takes no value
        (["decay", "--x0", "--v", "--help"], "error: unrecognized arguments: --x0\n"),
        (["--v", "1", "radar", "--t1", "1"], "error: argument COMMAND: invalid choice: "
         "'1' (choose from 'radar', 'derive', 'decay', 'velmap')\n"),
        # one-pass reader: an on/off flag given with "=" is unrecognized
        (["velmap", "--vmax", "0.5", "--alternate=1"],
         "error: unrecognized arguments: --alternate=1\n"),
        # one-pass reader: derive reports the first bad value given
        (["derive", "--c", "x", "--v", "y"],
         "error: --c must be a finite number (decimal or p/q), got 'x'\n"),
        (["derive", "--d", "abc"],
         "error: --d must be a finite number (decimal or p/q), got 'abc'\n"),
        # one-pass reader, reading as argparse did: a value option takes
        # "--help" as its value, --version after the command is unknown, so is
        # all from a "--" that is not last, unknown flags are reported before
        # bad values, and a missing value before unknown flags
        (["radar", "--t1", "--help"], "error: argument --t1: invalid float value: '--help'\n"),
        (["radar", "--t1", "1", "--version"], "error: unrecognized arguments: --version\n"),
        (["velmap", "--vmax", "0.5", "--", "--steps", "2"],
         "error: unrecognized arguments: -- --steps 2\n"),
        (["radar", "--t1", "abc", "--bogus"], "error: unrecognized arguments: --bogus\n"),
        (["radar", "--bogus", "--t1"], "error: argument --t1: expected one argument\n"),
        # an unknown command ends the reading, so a later --help is never read
        (["teleport", "--help"], "error: argument COMMAND: invalid choice: 'teleport' "
         "(choose from 'radar', 'derive', 'decay', 'velmap')\n"),
        (["--"], "error: the following arguments are required: COMMAND\n"),
    ])
    def test_rejected(self, cli, argv, stderr):
        result = cli(argv)
        assert_rejected(result)
        if stderr is not None:
            assert result.stderr == stderr

    @pytest.mark.parametrize("argv, command", [
        # one-pass reader: --help is read as soon as it is an option, before
        # any usage error or value conversion
        (["radar", "--bogus", "--help"], "radar"),
        (["derive", "--exact=1", "--help"], "derive"),
        (["radar", "--t1", "abc", "--help"], "radar"),
        (["--bogus", "--help", "radar"], None),
        (["--", "--help"], None),
    ])
    def test_help_before_usage_errors(self, cli, argv, command):
        result = cli(argv)
        expected = cli([command, "--help"] if command else ["--help"]).stdout
        assert (result.exit_code, result.stdout, result.stderr) == (0, expected, "")
