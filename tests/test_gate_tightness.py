"""How tight each gate is: a probe just past a bound fails, one on it passes.

The other tests pin that valid probes pass.  These pin where each gate
stands, so that a tolerance doubled, a ``<=`` made ``<`` or a rejection
turned off fails a test.  Each test answers one mutant that survived a
mutation sweep of ``src/`` (ROADMAP item 13).
"""

import math
import sys

import pytest

from lightclock import cli as cli_module
from lightclock import decay
from lightclock.cli import RunConfig
from lightclock.decay import EnsembleRun, _close, chain_rule_check, compare_frames
from lightclock.infinitesimals import (
    CLOSENESS_TOL,
    TruncatedHyper,
    grid_approximate,
    infinitely_close,
)
from lightclock.line_element import LineElementParams, gamma_factor

EPS = sys.float_info.epsilon


def test_close_stops_at_8_ulps():
    assert _close(1.0, 1.0 + 8 * EPS, 0.0)
    assert not _close(1.0, 1.0 + 9 * EPS, 0.0)


def test_chain_rule_derivative_transfer_is_not_widened():
    # at t = 0 the value transfer reads 1 = 1 whatever tau_m is, so only
    # gamma * tau_m = tau_s decides, to 8 ulps and not 16
    p = LineElementParams(v=0.6)
    tau_m = decay.dilated_lifetime(1.0, p) * (1 + 12 * EPS)
    assert 8 * EPS < abs(1.0 - gamma_factor(p) * tau_m) <= 16 * EPS
    assert not chain_rule_check(1.0, p, 0.0, tau_m=tau_m)


def test_closeness_tolerance_is_1e_12():
    assert CLOSENESS_TOL == 1e-12
    zero = TruncatedHyper.constant(0.0)
    assert infinitely_close(zero, TruncatedHyper.constant(1e-12))
    assert not infinitely_close(zero, TruncatedHyper.constant(1.5e-12))


def test_run_config_tolerance_stops_at_1e_6():
    assert RunConfig(tolerance=1e-6).tolerance == 1e-6
    with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1e-6\]"):
        RunConfig(tolerance=1.5e-6)


def test_velmap_accepts_max_steps_and_no_more(cli, monkeypatch):
    monkeypatch.setattr(cli_module, "MAX_STEPS", 4)
    accepted = cli(["velmap", "--vmax", "0.5", "--steps", "4"])
    assert accepted.exit_code == 0
    assert len(accepted.stdout.splitlines()) == 1 + 5
    rejected = cli(["velmap", "--vmax", "0.5", "--steps", "5"])
    assert (rejected.exit_code, rejected.stderr) == (
        2, "error: --steps must lie in 1..4, got 5\n")


def frames_with_z(z: float):
    def stub(*args, **kwargs):
        report = compare_frames(1.0, LineElementParams(v=0.6), 10, 1)
        return report._replace(z_score=z)
    return stub


@pytest.mark.parametrize("z, exit_code", [
    (5.0, 0), (-5.0, 0),
    (math.nextafter(5.0, math.inf), 3), (math.nextafter(-5.0, -math.inf), 3),
])
def test_z_gate_includes_its_bound(cli, monkeypatch, z, exit_code):
    monkeypatch.setattr(decay, "compare_frames", frames_with_z(z))
    result = cli(["decay", "--tau-s", "1"])
    assert result.exit_code == exit_code
    header, row = (line.split(",") for line in result.stdout.splitlines())
    assert dict(zip(header, row))["z_score"] == repr(z)


@pytest.mark.parametrize("means", [(0.0, 1.0), (1.0, 0.0)], ids=["rest", "moving"])
def test_ensemble_mean_of_zero_is_rejected(monkeypatch, means):
    draws = iter(means)

    def run(tau, sample_count, seed, workers=1):
        return EnsembleRun(sample_count, seed, next(draws), 0.0)

    monkeypatch.setattr(decay, "run_ensemble", run)
    with pytest.raises(ValueError, match="underflowed to 0"):
        compare_frames(1.0, LineElementParams(v=0.6), 10, 1)


@pytest.mark.parametrize("coeff", [1j, "1", None], ids=["complex", "str", "None"])
def test_truncated_hyper_rejects_a_non_real_coefficient(coeff):
    with pytest.raises(TypeError, match="is not a real number"):
        TruncatedHyper((1.0, coeff))


@pytest.mark.parametrize("omega", [True, 0, 2.0], ids=["bool", "zero", "float"])
def test_grid_approximate_rejects_a_bad_omega(omega):
    with pytest.raises(ValueError, match="omega must be a positive integer"):
        grid_approximate(0.5, omega)
