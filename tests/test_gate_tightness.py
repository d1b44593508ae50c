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
from lightclock import decay, line_element
from lightclock.decay import (
    DecayModel,
    _close,
    chain_rule_check,
    compare_frames,
    ode_residual,
)
from lightclock.errors import IDENTITY_TOL, OutOfGridError
from lightclock.infinitesimals import (
    CLOSENESS_TOL,
    TruncatedHyper,
    grid_approximate,
    infinitely_close,
)
from lightclock.line_element import LineElementParams, certify_derivation, gamma_factor
from lightclock.radar import Reflector, simulate_ping

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


@pytest.mark.parametrize("scale, passed", [(0.99e-12, True), (1.01e-12, False)])
def test_line_elements_match_stops_at_identity_tol(monkeypatch, scale, passed):
    # the clean chain at v = 0.5 reads 6.7e-16, so a dilated interval off by
    # 0.99e-12 of itself stays within the gate and one off by 1.01e-12 does not
    assert IDENTITY_TOL == 1e-12
    real = line_element._dilated_interval
    monkeypatch.setattr(line_element, "_dilated_interval",
                        lambda *args: real(*args) * (1 + scale))
    report = certify_derivation(0.5)
    assert [name for name, ok in report.checks.items() if not ok] == \
        ([] if passed else ["line_elements_match"])


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
        return type(report)(**{**vars(report), "z_score": z})
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
    # both frames are drawn in one call, which returns their sums
    monkeypatch.setattr(decay, "_keyed_sums", lambda streams, n, workers: list(means))
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


def test_central_difference_starts_at_one_step():
    # at t = h the central stencil's f(t - h) = f(0) lies inside t >= 0; the
    # forward stencil there would leave a residual of about h / 2
    assert abs(ode_residual(DecayModel(n0=1.0, tau=1.0), 1e-4, 1e-4)) <= 1e-7


def test_grid_approximate_reports_a_target_at_omega_as_outside():
    # GridApprox would reject its m = omega**2 too, with the rounding message
    with pytest.raises(OutOfGridError, match="target outside the grid range"):
        grid_approximate(2, 2)


def test_reflection_position_that_rounds_to_zero_is_not_negative():
    # x(t_r) = c * (t_r - t1) > 0 exactly, but x0 + v * t_r rounds to 0.0 here
    record = simulate_ping(Reflector(x0=5e-324, v=-0.9), 0.0)
    assert (record.t3, record.r_E, record.v_E) == (5e-324, 0.0, None)
