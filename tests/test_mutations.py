"""Every check can fail: one seeded fault per check turns exactly that check false.

Each row monkeypatches one function with a copy that carries one fault, in
the manner of mutation testing (DeMillo, Lipton and Sayward, "Hints on Test
Data Selection", IEEE Computer 1978), and runs every check at one probe
each.  The six certification checks run at v = 3/5.  The decay checks run
at the probes of their own tests: the z-gate of the CLI on a seeded
ensemble pair, ``ode_residual`` at the t = 0 boundary, ``operator_check`` at
an interior point, and ``chain_rule_check`` at t = 0, where it must see a
dilated lifetime that is off by one part in 1e9.
"""

from fractions import Fraction

import pytest

from lightclock import decay, line_element
from lightclock.cli import Z_GATE
from lightclock.decay import (
    DecayModel,
    SeparableSolution,
    chain_rule_check,
    compare_frames,
    ode_residual,
    operator_check,
)
from lightclock.line_element import LineElementParams, TransformCoeffs, certify_derivation

STEP = 1e-4
REAL_EXPAND = line_element.expand_quadratic
REAL_LEAF = decay._leaf_lifetimes
REAL_DILATED = decay.dilated_lifetime


def outcomes():
    """Every check at its probe, True where it passes, and the report's failures."""
    report = certify_derivation(Fraction(3, 5))
    model = DecayModel(n0=1.0, tau=1.0)
    frames = compare_frames(1.0, LineElementParams(v=0.6), 20_000, 42)
    return {
        **report.checks,
        "z_gate": abs(frames.z_score) <= Z_GATE,
        # a first-order difference at t = 0: the residual is about STEP / 2
        "ode_residual": abs(ode_residual(model, 0.0, STEP)) <= STEP,
        "operator_check": operator_check(SeparableSolution.canonical(model), 3.7, 2.0),
        "chain_rule_check": chain_rule_check(1.0, LineElementParams(v=0.6), 0.0),
    }, report.failures


def cross_sign_flipped(alpha, beta):
    coef_t, _, coef_r = REAL_EXPAND(alpha, beta)
    return coef_t, 2 * (alpha - beta * coef_t), coef_r


def time_sign_flipped(alpha, beta):
    _, cross, coef_r = REAL_EXPAND(alpha, beta)
    return 1 + alpha * alpha, cross, coef_r


def radial_sign_flipped(alpha, beta):
    coef_t, cross, _ = REAL_EXPAND(alpha, beta)
    return coef_t, cross, beta * beta - (1 + alpha * beta) ** 2


def radial_not_inverted(dr, dt, c, lam):
    d_t = dt * c
    return d_t * d_t * lam - (dr * dr) * lam


def ratio_upside_down(coeffs, drm_over_dTm):
    drs, dTs = line_element.transform_differentials(coeffs, drm_over_dTm, 1)
    return dTs / drs


def alpha_not_flipped(coeffs):
    flipped = TransformCoeffs(alpha=coeffs.alpha, beta=-coeffs.beta, eta=coeffs.eta)
    return line_element.velocity_ratio(flipped, 0)


def lifetime_scale_dropped(tau, gen, size):
    return REAL_LEAF(1.0, gen, size)


def forward_difference_reversed(f, t, h):
    return (f(t) - f(t + h)) / h


def lifetime_stretched(tau_s, p):
    return REAL_DILATED(tau_s, p) * (1 + 1e-9)


def canonical_k_sign_flipped(cls, model):
    return cls(spatial_coeffs=(1.0, 0.0, 0.0), temporal=model, k=model.tau)


FAULTS = [
    ("lightclock.line_element.expand_quadratic", cross_sign_flipped, "cross_term_zero"),
    ("lightclock.line_element.expand_quadratic", time_sign_flipped,
     "time_coefficient_is_eta"),
    ("lightclock.line_element.expand_quadratic", radial_sign_flipped,
     "radial_coefficient_is_neg_inverse_eta"),
    ("lightclock.line_element._dilated_interval", radial_not_inverted,
     "line_elements_match"),
    ("lightclock.line_element.velocity_ratio", ratio_upside_down, "velocity_ratio_recovered"),
    ("lightclock.line_element.check_rejected_branch", alpha_not_flipped,
     "rejected_branch_inconsistent"),
    ("lightclock.decay._leaf_lifetimes", lifetime_scale_dropped, "z_gate"),
    ("lightclock.decay._ddt_forward", forward_difference_reversed, "ode_residual"),
    ("lightclock.decay.SeparableSolution.canonical", classmethod(canonical_k_sign_flipped),
     "operator_check"),
    ("lightclock.decay.dilated_lifetime", lifetime_stretched, "chain_rule_check"),
]


def test_every_check_passes_without_a_fault():
    checks, failures = outcomes()
    assert sorted(checks) == sorted(row[2] for row in FAULTS)
    assert all(checks.values()) and failures == ()


@pytest.mark.parametrize("target, mutant, check", FAULTS, ids=[row[2] for row in FAULTS])
def test_seeded_fault_fails_exactly_its_check(monkeypatch, target, mutant, check):
    monkeypatch.setattr(target, mutant)
    checks, failures = outcomes()
    assert [name for name, passed in checks.items() if not passed] == [check]
    # a failed certification check also says why, on one line of its own
    certification = target.startswith("lightclock.line_element.")
    assert [line.split(":")[0] for line in failures] == ([check] if certification else [])
