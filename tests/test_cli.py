"""CLI tests: subcommands, exit codes, formats, config and schemas."""

import dataclasses
import json
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from lightclock import cli
from lightclock.cli import main
from lightclock.schemas import load_schema


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env or {}, catch_exceptions=False)


def assert_rejected(result):
    """Exit 2, nothing on stdout and exactly one error line on stderr."""
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


class TestRadarCommand:
    def test_two_pings_csv(self, runner):
        result = invoke(runner, ["radar", "--x0", "0", "--v", "0.5",
                                 "--t1", "1", "--t1", "2"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "t1,t3,c,tE,rE,vE"
        assert lines[1] == "1.0,3.0,1.0,2.0,1.0,0.5"
        assert lines[2] == "2.0,6.0,1.0,4.0,2.0,0.5"

    def test_superluminal_exits_2_and_names_constraint(self, runner):
        result = invoke(runner, ["radar", "--v", "1.5", "--t1", "0"])
        assert result.exit_code == 2
        assert "superluminal" in result.stderr

    def test_stationary_target_round_trip(self, runner):
        result = invoke(runner, ["radar", "--x0", "5", "--v", "0", "--t1", "0"])
        assert result.exit_code == 0
        row = result.output.splitlines()[1].split(",")
        assert float(row[1]) == 10.0  # t3 = 2 * distance / c

    def test_empty_velocity_field_when_undefined(self, runner):
        # emission at -1 against a unit-distance mirror puts t_E exactly at 0
        result = invoke(runner, ["radar", "--x0", "1", "--v", "0",
                                 "--t1", "-1", "--format", "csv"])
        assert result.exit_code == 0
        row = result.output.splitlines()[1]
        assert row.endswith(",")  # vE cell is empty

    def test_json_validates_schema(self, runner):
        result = invoke(runner, ["radar", "--x0", "2", "--v", "0.25",
                                 "--t1", "1", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        jsonschema.validate(payload, load_schema("radar_records"))

    def test_missing_emission_time(self, runner):
        result = invoke(runner, ["radar", "--v", "0.5"])
        assert result.exit_code == 2

    def test_geometry_error_exits_2(self, runner):
        result = invoke(runner, ["radar", "--x0", "-5", "--v", "0", "--t1", "0"])
        assert result.exit_code == 2


class TestDeriveCommand:
    def test_float_certification(self, runner):
        result = invoke(runner, ["derive", "--v", "0.6"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["eta"] == pytest.approx(0.64, rel=1e-15)
        assert report["alpha"] == pytest.approx(-0.6, rel=1e-15)
        assert report["beta"] == pytest.approx(0.9375, rel=1e-15)
        assert report["passed"] is True
        assert report["lhs_coeffs"][2] == report["lhs_eps2"]
        assert report["rhs_coeffs"][2] == report["rhs_eps2"]
        jsonschema.validate(report, load_schema("derive_report"))

    def test_exact_mode_zero_error(self, runner):
        result = invoke(runner, ["derive", "--v", "0.6", "--exact"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["exact"] is True
        assert report["eps2_rel_error"] == 0.0
        assert report["lhs_eps2"] == report["rhs_eps2"]
        jsonschema.validate(report, load_schema("derive_report"))

    def test_exact_mode_accepts_plain_fractions(self, runner):
        result = invoke(runner, ["derive", "--v", "3/5", "--d", "1/10", "--exact"])
        assert result.exit_code == 0
        assert json.loads(result.output)["eps2_rel_error"] == 0.0

    def test_tiny_speed_keeps_rejected_branch_ratio(self, runner):
        # eta rounds to 1 here; the ratio is built from (v + d)/c directly
        result = invoke(runner, ["derive", "--v", "1e-9"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["rejected_branch_ratio"] == -1e-9
        assert report["passed"] is True

    def test_certification_failure_says_why_on_stderr(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 0}))
        result = invoke(runner, ["derive", "--v", "1/3"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        report = json.loads(result.stdout)
        assert result.exit_code == 4
        jsonschema.validate(report, load_schema("derive_report"))
        assert [k for k, ok in report["checks"].items() if not ok] == \
            ["line_elements_match"]
        assert result.stderr == (
            "certification check failed: line_elements_match: measured "
            f"{report['eps2_rel_error']!r} > tolerance 0.0\n")

    def test_light_speed_boundary_exits_2(self, runner):
        result = invoke(runner, ["derive", "--v", "1.0"])
        assert result.exit_code == 2

    def test_malformed_number_exits_2(self, runner):
        result = invoke(runner, ["derive", "--v", "fast"])
        assert result.exit_code == 2


class TestDecayCommand:
    def test_json_report(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "1", "--v", "0.6",
                                 "--samples", "100000", "--seed", "42",
                                 "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["ratio"] == pytest.approx(1.25, abs=0.03)
        assert abs(report["z_score"]) <= 5.0
        jsonschema.validate(report, load_schema("decay_report"))

    def test_csv_report_has_header_and_row(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "1", "--v", "0.6",
                                 "--samples", "1000", "--seed", "3"])
        lines = result.output.splitlines()
        assert result.exit_code == 0
        assert lines[0].startswith("tau_s,v,c,lambda,gamma,tau_m_analytic")
        assert len(lines) == 2

    def test_negative_lifetime_exits_2(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "-1"])
        assert result.exit_code == 2

    def test_tiny_sample_count_still_passes_gate(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "1", "--v", "0",
                                 "--samples", "10", "--seed", "7"])
        assert result.exit_code == 0

    def test_lifetime_beyond_bound_exits_2(self, runner):
        assert_rejected(invoke(runner, ["decay", "--tau-s", "1e16"]))

    def test_zero_samples_exits_2(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "1", "--samples", "0"])
        assert result.exit_code == 2

    def test_samples_beyond_cap_exit_2(self, runner):
        result = invoke(runner, ["decay", "--tau-s", "1", "--samples", "1000000001"])
        assert_rejected(result)
        assert "1..1000000000" in result.stderr

    def test_gate_failure_says_why_on_stderr(self, runner, monkeypatch):
        args = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "1000",
                "--seed", "3", "--format", "json"]
        passed = invoke(runner, args)
        real = cli.compare_frames

        def off_by_six_sigma(*a, **kw):
            return dataclasses.replace(real(*a, **kw), z_score=-6.5)

        monkeypatch.setattr(cli, "compare_frames", off_by_six_sigma)
        result = invoke(runner, args)
        report = json.loads(passed.stdout)
        assert result.exit_code == 3
        assert result.stdout == passed.stdout.replace(repr(report["z_score"]), "-6.5")
        assert result.stderr == (
            "dilation check failed: z = -6.5 is outside |z| <= 5.0; "
            f"tau_hat_s = {report['tau_hat_s']!r}, tau_hat_m = {report['tau_hat_m']!r}\n")

    def test_byte_reproducible(self, runner):
        args = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "2000",
                "--seed", "21", "--format", "json"]
        assert invoke(runner, args).output == invoke(runner, args).output

    def test_worker_count_does_not_change_output(self, runner):
        base = ["decay", "--tau-s", "1", "--v", "0.6", "--samples", "10000",
                "--seed", "21", "--format", "json"]
        one = invoke(runner, base + ["--workers", "1"]).output
        eight = invoke(runner, base + ["--workers", "8"]).output
        assert one == eight

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = invoke(runner, ["decay", "--tau-s", "1", "--samples", "100",
                                 "--seed", "0", "--format", "json",
                                 "--out", str(target)])
        assert result.exit_code == 0
        assert result.output == ""
        jsonschema.validate(json.loads(target.read_text()),
                            load_schema("decay_report"))


class TestVelmapCommand:
    def test_table_shape_and_first_row(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "0.9", "--steps", "9"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "v,w"
        assert len(lines) == 11  # header + 10 rows
        assert lines[1] == "0.0,0.0"

    def test_known_value_row(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "0.9", "--steps", "9"])
        v, w = map(float, result.output.splitlines()[7].split(","))
        assert v == pytest.approx(0.6, rel=1e-12)
        assert w == pytest.approx(0.3768859011881901, abs=1e-9)

    def test_strictly_increasing(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "0.99", "--steps", "200"])
        ws = [float(line.split(",")[1])
              for line in result.output.splitlines()[1:]]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_alternate_column(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "0.5", "--steps", "2",
                                 "--alternate"])
        lines = result.output.splitlines()
        assert lines[0] == "v,w,w_alt"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_vmax_near_float_limit_keeps_exact_rows(self, runner):
        # vmax * i overflows for i >= 2, vmax * (i / steps) does not
        result = invoke(runner, ["velmap", "--vmax", "1e308", "--c", "1.7e308",
                                 "--steps", "3"])
        assert result.exit_code == 0
        vs = [float(line.split(",")[0]) for line in result.output.splitlines()[1:]]
        assert vs == [0.0, 1e308 / 3, 1e308 * (2 / 3), 1e308]

    def test_vmax_at_light_speed_exits_2(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "1.0"])
        assert result.exit_code == 2


class TestConfig:
    def test_config_changes_default_light_speed(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2.0}))
        result = invoke(runner, ["radar", "--x0", "5", "--v", "0", "--t1", "0"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        assert result.exit_code == 0
        row = result.output.splitlines()[1].split(",")
        assert float(row[1]) == 5.0  # t3 = 2 * 5 / 2

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2.0}))
        result = invoke(runner, ["radar", "--x0", "5", "--v", "0",
                                 "--t1", "0", "--c", "1"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        row = result.output.splitlines()[1].split(",")
        assert float(row[1]) == 10.0

    def test_config_format_default(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        result = invoke(runner, ["radar", "--x0", "1", "--v", "0", "--t1", "1"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        assert result.output.lstrip().startswith("[")

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed_of_light": 2.0}))
        result = invoke(runner, ["velmap", "--vmax", "0.5"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        assert result.exit_code == 2
        assert "unknown keys" in result.stderr

    @pytest.mark.parametrize("key, value", [("order", 2), ("tau_bound", 1e15)])
    def test_removed_key_rejected(self, runner, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        result = invoke(runner, ["derive", "--v", "0.5"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        assert_rejected(result)
        assert result.stderr == f"error: config: unknown keys [{key!r}]\n"

    def test_out_of_range_value_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1}))
        result = invoke(runner, ["derive", "--v", "0.5"],
                        env={"LIGHTCLOCK_CONFIG": str(cfg)})
        assert_rejected(result)
        assert "tolerance must lie in [0, 1e-6], got 1" in result.stderr

    def test_readme_table_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("### Configuration")[1].split("\n### ")[0]
        keys = [row.split("`")[1] for row in section.splitlines()
                if row.startswith("| `")]
        assert keys == [f.name for f in dataclasses.fields(cli.RunConfig)]

    def test_missing_config_file_rejected(self, runner):
        result = invoke(runner, ["velmap", "--vmax", "0.5"],
                        env={"LIGHTCLOCK_CONFIG": "/nonexistent/cfg.json"})
        assert result.exit_code == 2


class TestHelpAndErrors:
    @pytest.mark.parametrize("cmd", ["radar", "derive", "decay", "velmap"])
    def test_help_available(self, runner, cmd):
        result = invoke(runner, [cmd, "--help"])
        assert result.exit_code == 0
        assert "Usage" in result.output

    @pytest.mark.parametrize("args, config", [
        (["decay", "--tau-s", "1", "--v", "nan", "--format", "json"], None),
        (["decay", "--tau-s", "1", "--c", "inf"], None),
        (["radar", "--t1", "1", "--c", "nan"], None),
        (["velmap", "--vmax", "0.5", "--c", "inf"], None),
        (["radar", "--t1", "1"], '{"c": NaN}'),
        (["velmap", "--vmax", "0.5"], '{"c": "2"}'),
        (["velmap", "--vmax", "0.5"], '{"tolerance": "0"}'),
        (["velmap", "--vmax", "0.5"], '{"out": 5}'),
        # a bad config value fails even where a flag overrides it
        (["velmap", "--vmax", "0.5", "--c", "1"], '{"c": true}'),
        (["derive", "--v", "1e400"], None),
        (["velmap", "--vmax", "0.5", "--out", "{tmp}/missing/x.csv"], None),
        (["radar", "--x0", "1e308", "--t1", "1"], None),
        (["radar", "--x0", "1e308", "--t1", "1", "--format", "json"], None),
        # every lifetime underflows to 0 at this seed
        (["decay", "--tau-s", "5e-324", "--samples", "1", "--seed", "0"], None),
        (["velmap", "--vmax", "0.5", "--steps", "1000001"], None),
        # w exceeds the float range although vmax < c
        (["velmap", "--vmax", "1.69e308", "--c", "1.7e308", "--steps", "1"], None),
        # c - v overflows although |v| < c
        (["radar", "--x0", "1", "--v", "-1.7e308", "--c", "1.79e308", "--t1", "-1"],
         None),
    ])
    def test_non_finite_input_exits_2(self, runner, tmp_path, args, config):
        env = {}
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            env = {"LIGHTCLOCK_CONFIG": str(cfg)}
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        assert_rejected(invoke(runner, args, env=env))

    def test_unallocatable_ensemble_exits_2(self, runner):
        # 10^12 samples, 7.28 TiB as one buffer: refused by the cap, on every
        # host, before anything is drawn
        assert_rejected(invoke(runner, ["decay", "--tau-s", "1",
                                        "--samples", "1000000000000"]))

    def test_malformed_flag_value_exits_2(self, runner):
        result = runner.invoke(main, ["radar", "--v", "abc", "--t1", "1"])
        assert result.exit_code == 2

    def test_unknown_subcommand_exits_2(self, runner):
        result = runner.invoke(main, ["teleport"])
        assert result.exit_code == 2
