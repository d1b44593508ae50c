"""Each input rule has one owner, and NaN reaches none of them unseen.

The slower-than-light rule is ``errors.check_speed``; the positive-and-finite
rule is ``errors.check_positive``.  Both are negated comparisons, so a NaN
input fails them as 0, inf or a superluminal speed does.  Every entry point
that calls an owner must reject NaN with that owner's message, spelled out
here, so that a copy of a rule with a message of its own shows as a failure.
"""

import math

import pytest

from lightclock.decay import DecayModel, chain_rule_check, ode_residual, run_ensemble
from lightclock.errors import SuperluminalError, check_light_speed
from lightclock.line_element import LineElementParams, nsppm_velocity, standard_rapidity
from lightclock.radar import Reflector, simulate_ping

NAN = math.nan
SUPERLUMINAL = "superluminal: the speed nan is not below c = 1.0 in magnitude"


def positive(name):
    return f"{name} must be positive and finite, got nan"


@pytest.mark.parametrize("call, error, message", [
    (lambda: nsppm_velocity(NAN), SuperluminalError, SUPERLUMINAL),
    (lambda: standard_rapidity(NAN), SuperluminalError, SUPERLUMINAL),
    (lambda: simulate_ping(Reflector(1.0, NAN), 0.0), SuperluminalError, SUPERLUMINAL),
    (lambda: LineElementParams(v=NAN), SuperluminalError, SUPERLUMINAL),
    (lambda: DecayModel(n0=NAN, tau=1.0), ValueError, positive("initial population")),
    (lambda: run_ensemble(NAN, 10, 0), ValueError, positive("mean lifetime")),
    (lambda: chain_rule_check(1.0, LineElementParams(v=0.6), 0.0, tau_m=NAN),
     ValueError, positive("tau_m")),
    (lambda: ode_residual(DecayModel(n0=1.0, tau=1.0), 1.0, NAN), ValueError,
     positive("step")),
    (lambda: check_light_speed(NAN), ValueError, positive("light speed")),
], ids=["nsppm_velocity", "standard_rapidity", "simulate_ping", "LineElementParams",
        "DecayModel.n0", "run_ensemble.tau", "chain_rule_check.tau_m",
        "ode_residual.step", "check_light_speed"])
def test_nan_is_rejected_with_the_owners_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
