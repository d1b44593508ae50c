"""Tests for the line-element derivation chain and velocity maps."""

import math
import random
import struct
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st_

from lightclock import line_element
from lightclock.errors import PoleError, SuperluminalError
from lightclock.infinitesimals import TruncatedHyper
from lightclock.line_element import (
    LineElementParams,
    TransformCoeffs,
    certify_derivation,
    check_rejected_branch,
    compose_velocities_additive_w,
    expand_quadratic,
    gamma_factor,
    invert_nsppm_velocity,
    lambda_factor,
    line_element_m,
    line_element_s,
    nsppm_velocity,
    solve_transform_coeffs,
    standard_rapidity,
    transform_differentials,
    velocity_ratio,
)

EPS = TruncatedHyper.infinitesimal

# frozen 50-digit oracle evaluations of (c/2)*ln((1+v^2/c^2)/(1-v^2/c^2))
W_OF_0_6 = 0.37688590118819007599891912674929841568085130475249
W_OF_0_99 = 2.3000914478666510683024352929139207264227300336754
COMPOSE_HALF_HALF = 0.6859943405700354  # w_inverse(2*w(0.5)), bisected at 50 digits


class TestParams:
    def test_rest_case(self):
        p = LineElementParams(v=0.0)
        assert lambda_factor(p) == 1.0
        assert gamma_factor(p) == 1.0

    def test_lambda_examples(self):
        assert lambda_factor(LineElementParams(v=0.6)) == pytest.approx(0.64, rel=1e-15)
        assert lambda_factor(LineElementParams(v=0.6, d=0.2)) == \
            pytest.approx(0.36, rel=1e-12)

    def test_gamma_examples(self):
        assert gamma_factor(LineElementParams(v=0.6)) == pytest.approx(0.8, rel=1e-15)
        assert gamma_factor(LineElementParams(v=0.8)) == pytest.approx(0.6, rel=1e-12)

    def test_superluminal_sum_rejected(self):
        with pytest.raises(SuperluminalError):
            LineElementParams(v=0.9, d=0.2)
        with pytest.raises(SuperluminalError):
            LineElementParams(v=1.0)

    def test_negative_sum_rejected(self):
        with pytest.raises(ValueError):
            LineElementParams(v=-0.1)

    def test_nonpositive_light_speed_rejected(self):
        with pytest.raises(ValueError):
            LineElementParams(v=0.0, c=0.0)

    @pytest.mark.parametrize("field", ["v", "d", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            LineElementParams(**{"v": 0.5, "d": 0.0, "c": 1.0, field: value})


class TestTransformCoeffs:
    def test_identity_limit(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.0))
        assert (tc.alpha, tc.beta) == (0.0, 0.0)

    def test_solved_values_at_0_64(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.6))
        assert tc.alpha == pytest.approx(-0.6, rel=1e-15)
        assert tc.beta == pytest.approx(0.9375, rel=1e-15)

    def test_solved_values_at_0_36(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.8))
        assert tc.alpha == pytest.approx(-0.8, rel=1e-15)
        assert tc.beta == pytest.approx(0.8 / 0.36, rel=1e-15)

    def test_domain_rejected(self):
        with pytest.raises(SuperluminalError):
            solve_transform_coeffs(LineElementParams(v=1.0))
        with pytest.raises(ValueError):
            solve_transform_coeffs(LineElementParams(v=-0.5))

    def test_exact_rational_solution(self):
        tc = solve_transform_coeffs(LineElementParams(v=Fraction(3, 5), d=0, c=1))
        assert tc.eta == Fraction(16, 25)
        assert tc.alpha == Fraction(-3, 5)
        assert tc.beta == Fraction(3, 5) / Fraction(16, 25)

    @given(st_.floats(min_value=0.0, max_value=0.99))
    def test_cross_term_vanishes(self, v):
        # v + d <= 0.99c, the admissible band; beyond it beta ~ 1/eta
        # amplifies rounding past the 1e-12 absolute claim
        tc = solve_transform_coeffs(LineElementParams(v=v))
        _, cross, _ = expand_quadratic(tc.alpha, tc.beta)
        assert abs(cross) <= 1e-12


def flipped_branch(**params):
    return check_rejected_branch(solve_transform_coeffs(LineElementParams(**params)))


def branch_rejected(v, exact=False):
    return certify_derivation(v, exact=exact).checks["rejected_branch_inconsistent"]


class TestRejectedBranch:
    def test_negative_ratio_at_0_64(self):
        ratio = flipped_branch(v=0.6)
        assert ratio == pytest.approx(-0.6, rel=1e-15)
        assert ratio < 0
        assert branch_rejected(0.6)

    def test_negative_ratio_at_0_36(self):
        ratio = flipped_branch(v=0.8)
        assert ratio == pytest.approx(-0.8, rel=1e-15)
        assert ratio < 0
        assert branch_rejected(0.8)

    def test_branches_coincide_at_rest(self):
        ratio = flipped_branch(v=0.0)
        assert ratio == 0.0
        assert not ratio < 0
        assert branch_rejected(0.0)  # at rest the check asks for ratio 0

    def test_exact_ratio_below_the_float_range(self):
        # s = 10**-400 is 0.0 as a float, yet the exact branch is rejected
        ratio = flipped_branch(v=Fraction(1, 10 ** 400), d=0, c=1)
        assert ratio == Fraction(-1, 10 ** 400)
        assert ratio < 0
        assert branch_rejected(Fraction(1, 10 ** 400), exact=True)

    @pytest.mark.parametrize("exact", [False, True])
    def test_moving_point_seen_at_rest_fails_the_check(self, monkeypatch, exact):
        # a ratio of exactly 0 is no rejection once v + d > 0; -0.0 in floats
        monkeypatch.setattr(line_element, "check_rejected_branch",
                            lambda coeffs: 0 * coeffs.alpha)
        report = certify_derivation(Fraction(3, 5), exact=exact)
        assert [name for name, ok in report.checks.items() if not ok] == [
            "rejected_branch_inconsistent"]
        assert report.failures[0].endswith("point, expected < 0")

    def test_flipped_branch_still_kills_cross_term(self):
        tc = solve_transform_coeffs(LineElementParams(v=math.sqrt(0.6)))
        flipped = TransformCoeffs(alpha=-tc.alpha, beta=-tc.beta, eta=tc.eta)
        _, cross, _ = expand_quadratic(flipped.alpha, flipped.beta)
        assert abs(cross) <= 1e-12

    @pytest.mark.parametrize("exact", [False, True])
    def test_broken_transformation_fails_the_check(self, monkeypatch, exact):
        def sign_flipped_dT(coeffs, drm, dTm):
            s = -coeffs.alpha
            return drm / coeffs.eta - dTm * s, drm * (s / coeffs.eta) + dTm

        assert certify_derivation(Fraction(3, 5), exact=exact).checks[
            "rejected_branch_inconsistent"]
        monkeypatch.setattr(line_element, "transform_differentials", sign_flipped_dT)
        report = certify_derivation(Fraction(3, 5), exact=exact)
        assert not report.checks["rejected_branch_inconsistent"]
        assert not report.checks["velocity_ratio_recovered"]
        assert float(report.rejected_branch_ratio) == -0.6
        for name in ("rejected_branch_inconsistent", "velocity_ratio_recovered"):
            assert any(line.startswith(f"{name}: ") for line in report.failures)


class TestExpandQuadratic:
    def test_identity_transformation(self):
        assert expand_quadratic(0.0, 0.0) == (1.0, 0.0, -1.0)

    def test_solved_pair(self):
        coef_t, cross, coef_r = expand_quadratic(-0.6, 0.9375)
        assert coef_t == pytest.approx(0.64, rel=1e-15)
        assert cross == pytest.approx(0.0, abs=1e-15)
        assert coef_r == pytest.approx(-1.5625, rel=1e-15)
        assert coef_r == pytest.approx(-1 / 0.64, rel=1e-15)

    def test_pure_alpha_cross_term(self):
        coef_t, cross, coef_r = expand_quadratic(-0.6, 0.0)
        assert coef_t == pytest.approx(0.64, rel=1e-15)
        assert cross == pytest.approx(-1.2, rel=1e-15)
        assert coef_r == -1.0

    def test_symbolic_certificate(self):
        """Proof for all positive (v, d, c) of what the acceptance suite samples."""
        v, d, c = sympy.symbols("v d c", positive=True)
        s = (v + d) / c
        eta = 1 - s ** 2
        coef_t, cross, coef_r = expand_quadratic(-s, s / eta)
        assert sympy.simplify(cross) == 0
        assert sympy.simplify(coef_t - eta) == 0
        assert sympy.simplify(coef_r + 1 / eta) == 0

    def test_symbolic_interval_certificate(self):
        """The transformed isotropic interval is the dilated one, for all (v, d, c)."""
        v, d, c = sympy.symbols("v d c", positive=True)
        dr, dT = sympy.symbols("dr dT", real=True)
        s = (v + d) / c
        eta = 1 - s ** 2
        drs, dTs = transform_differentials(TransformCoeffs(-s, s / eta, eta), dr, dT)
        assert sympy.simplify(dTs ** 2 - drs ** 2 - (eta * dT ** 2 - dr ** 2 / eta)) == 0


class TestTransformDifferentials:
    def test_comoving_point(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.6))
        drs, dTs = transform_differentials(tc, EPS(0.0), EPS())
        assert drs.coeffs[1] == pytest.approx(0.6, rel=1e-15)
        assert dTs.coeffs[1] == 1.0

    def test_identity_limit(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.0))
        drs, dTs = transform_differentials(tc, EPS(), EPS())
        assert drs.coeffs == (0.0, 1.0, 0.0)
        assert dTs.coeffs == (0.0, 1.0, 0.0)

    def test_pure_radial_differential(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.6))
        drs, dTs = transform_differentials(tc, EPS(), EPS(0.0))
        assert drs.coeffs[1] == pytest.approx(1.5625, rel=1e-15)
        assert dTs.coeffs[1] == pytest.approx(0.9375, rel=1e-15)


class TestVelocityRatio:
    def test_comoving_gives_root(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.6))
        assert velocity_ratio(tc, 0.0) == pytest.approx(0.6, rel=1e-15)

    def test_identity_transformation_passthrough(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.0))
        assert velocity_ratio(tc, 0.3) == 0.3

    def test_general_point(self):
        tc = solve_transform_coeffs(LineElementParams(v=0.6))
        assert velocity_ratio(tc, 0.6) == pytest.approx(0.984, rel=1e-12)

    def test_pole_rejected(self):
        tc = solve_transform_coeffs(LineElementParams(v=Fraction(3, 5), d=0, c=1))
        pole = -tc.eta / (-tc.alpha)  # denominator root
        with pytest.raises(PoleError):
            velocity_ratio(tc, pole)

    @given(v=st_.floats(min_value=0.0, max_value=0.99))
    def test_comoving_ratio_recovers_velocity(self, v):
        tc = solve_transform_coeffs(LineElementParams(v=v))
        assert velocity_ratio(tc, 0.0) == v

    @given(v=st_.floats(min_value=0.0, max_value=0.99))
    def test_certified_recovery_is_exact_at_any_speed(self, v):
        report = certify_derivation(v)
        assert report.checks["velocity_ratio_recovered"]
        assert -report.alpha == (v + 0.0) / 1.0


def closed_form_ratio(coeffs, x):
    """The hand-derived closed form velocity_ratio once was, kept as an oracle."""
    s = -coeffs.alpha
    denom = (s / coeffs.eta) * x + 1
    if denom == 0:
        raise PoleError(f"velocity ratio has a pole at dr_m/dT_m = {x}")
    return (x / coeffs.eta + s) / denom


def outcome(ratio, coeffs, x):
    """The ratio's type and bits, or its PoleError message."""
    try:
        value = ratio(coeffs, x)
    except PoleError as exc:
        return "PoleError", str(exc)
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return type(value).__name__, value


class TestVelocityRatioOracle:
    """velocity_ratio, read from transform_differentials, has the closed form's bits."""

    def test_float_bits(self):
        rng = np.random.default_rng(20261018)
        specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                    1e308, -1e308, 5e-324]
        for i in range(3000):
            v = float(rng.uniform(0, 0.999999))
            tc = solve_transform_coeffs(LineElementParams(v=v))
            if i % 3 == 0:
                x = specials[i // 3 % len(specials)]
            elif i % 3 == 1 and tc.alpha:
                x = -tc.eta / -tc.alpha  # at or next to the pole
            else:
                x = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-300, 300))
            assert outcome(velocity_ratio, tc, x) == outcome(closed_form_ratio, tc, x)

    def test_exact_fractions(self):
        rng = np.random.default_rng(20261019)
        for i in range(1000):
            q = int(rng.integers(1, 10 ** 6))
            tc = solve_transform_coeffs(LineElementParams(
                v=Fraction(int(rng.integers(0, q)), q), d=0, c=1))
            if i % 4 == 0 and tc.alpha:
                x = -tc.eta / -tc.alpha  # the pole itself
            else:
                x = Fraction(int(rng.integers(-10 ** 6, 10 ** 6)), q)
            expected = outcome(closed_form_ratio, tc, x)
            assert outcome(velocity_ratio, tc, x) == expected
            assert expected[0] in ("Fraction", "PoleError")


class TestLineElements:
    def test_pure_time_displacement(self):
        assert line_element_s(EPS(0.0), EPS(), 1.0).coeffs == (0.0, 0.0, 1.0)

    def test_lightlike_displacement(self):
        assert line_element_s(EPS(), EPS(), 1.0).coeffs == (0.0, 0.0, 0.0)

    def test_timelike_displacement(self):
        assert line_element_s(EPS(), EPS(2.0), 1.0).coeffs[2] == 3.0

    def test_moving_frame_at_rest_reduces_to_isotropic(self):
        p = LineElementParams(v=0.0)
        assert line_element_m(EPS(0.3), EPS(0.7), p).coeffs == \
            line_element_s(EPS(0.3), EPS(0.7), 1.0).coeffs

    def test_moving_frame_time_coefficient(self):
        p = LineElementParams(v=0.6)
        assert line_element_m(EPS(0.0), EPS(), p).coeffs[2] == \
            pytest.approx(0.64, rel=1e-12)

    def test_moving_frame_radial_coefficient(self):
        p = LineElementParams(v=0.6)
        assert line_element_m(EPS(), EPS(0.0), p).coeffs[2] == \
            pytest.approx(-1.5625, rel=1e-12)

    def test_time_reversal_symmetry_is_exact(self):
        p = LineElementParams(v=0.6)
        assert line_element_m(EPS(0.4), EPS(0.9), p).coeffs == \
            line_element_m(EPS(0.4), EPS(-0.9), p).coeffs

    def test_displacement_must_be_infinitesimal(self):
        real = TruncatedHyper.constant(1.0)
        with pytest.raises(ValueError, match="pure infinitesimals"):
            line_element_s(real, EPS(), 1.0)
        with pytest.raises(ValueError, match="pure infinitesimals"):
            line_element_s(EPS(), real, 1.0)
        with pytest.raises(ValueError, match="pure infinitesimals"):
            line_element_m(EPS(), real, LineElementParams(v=0.6))


class TestDerivationConsistency:
    """Transformed isotropic interval vs dilated interval, coefficient level."""

    def test_thousand_random_parameter_points(self):
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            eta_target = rng.uniform(1e-4, 1.0)
            v = math.sqrt(1.0 - eta_target)
            p = LineElementParams(v=v)
            tc = solve_transform_coeffs(p)
            drm = EPS(rng.uniform(-10, 10))
            dtm = EPS(rng.uniform(-10, 10))
            drs, dTs = transform_differentials(tc, drm, dtm * p.c)
            lhs = line_element_s(drs, dTs / p.c, p.c)
            rhs = line_element_m(drm, dtm, p)
            scale = max(abs(lhs.coeffs[2]), abs(rhs.coeffs[2]), 1e-30)
            assert abs(lhs.coeffs[2] - rhs.coeffs[2]) <= 1e-12 * scale

    def test_coefficient_identities_across_eta(self):
        for eta in np.linspace(1e-3, 1.0, 500):
            tc = solve_transform_coeffs(LineElementParams(v=math.sqrt(1.0 - eta)))
            coef_t, cross, coef_r = expand_quadratic(tc.alpha, tc.beta)
            assert coef_t == pytest.approx(tc.eta, rel=1e-12)
            assert abs(cross) <= 1e-12
            assert coef_r == pytest.approx(-1.0 / tc.eta, rel=1e-12)

    def test_exact_rational_certification(self):
        report = certify_derivation(Fraction(3, 5), Fraction(0), Fraction(1),
                                    exact=True)
        assert report.passed
        assert report.lhs_eps2 == report.rhs_eps2
        assert report.eps2_rel_error == 0.0
        assert report.eta == Fraction(16, 25)
        assert report.alpha == Fraction(-3, 5)

    def test_exact_certification_ignores_the_float_tolerance(self, monkeypatch):
        # a dilated interval off by one part in 10**12 fails at zero tolerance,
        # though the tol passed in would forgive it
        real = line_element._dilated_interval
        monkeypatch.setattr(line_element, "_dilated_interval",
                            lambda *args: real(*args) * (1 + Fraction(1, 10 ** 12)))
        report = certify_derivation(Fraction(3, 5), exact=True, tol=1e-6)
        assert [name for name, ok in report.checks.items() if not ok] == ["line_elements_match"]
        assert report.failures[0].endswith(" > tolerance 0.0")

    def test_float_certification_report_values(self):
        report = certify_derivation(0.6)
        assert report.passed
        assert report.eta == pytest.approx(0.64, rel=1e-15)
        assert report.alpha == pytest.approx(-0.6, rel=1e-15)
        assert report.beta == pytest.approx(0.9375, rel=1e-15)
        assert report.eps2_rel_error <= 1e-12

    @pytest.mark.parametrize("v, c", [
        (1, 10 ** 400),  # c itself
        (1, Fraction(1e200)),  # the eps**2 coefficient, about 4 c**2
        (1 - Fraction(1, 10 ** 400), 1),  # -1/eta as v -> c
    ])
    def test_exact_report_beyond_float_range_rejected(self, v, c):
        # such a report would pass, then fail to serialise its float fields
        with pytest.raises(ValueError, match="beyond the float range"):
            certify_derivation(v, 0, c, exact=True)

    def test_exact_report_near_float_range_accepted(self):
        report = certify_derivation(1, 0, Fraction(1e150), exact=True)
        assert report.passed and report.as_dict()["c"] == 1e150

    def test_certification_rejects_superluminal(self):
        with pytest.raises(SuperluminalError):
            certify_derivation(1.0)


def _atanh_reference(u: float) -> Decimal:
    """atanh(u) to 80 digits: its odd power series where ln((1+u)/(1-u)) at 80
    digits would lose u, else that log."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(u)
        if abs(x) >= Decimal("1e-3"):
            return ((1 + x) / (1 - x)).ln() / 2
        total, power, k = Decimal(0), x, 1
        while abs(power) > abs(x) * Decimal("1e-85"):
            total += power / k
            power, k = power * x * x, k + 2
        return total


class TestVelocityMaps:
    def test_rest_maps_to_zero_exactly(self):
        assert nsppm_velocity(0.0) == 0.0

    def test_frozen_oracle_values(self):
        assert nsppm_velocity(0.6) == pytest.approx(W_OF_0_6, abs=1e-12)
        assert nsppm_velocity(0.99) == pytest.approx(W_OF_0_99, abs=1e-12)

    def test_scale_invariance_in_c(self):
        assert nsppm_velocity(0.6 * 2.0, 2.0) == \
            pytest.approx(2.0 * W_OF_0_6, rel=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(SuperluminalError):
            nsppm_velocity(1.0)
        with pytest.raises(SuperluminalError):
            nsppm_velocity(-1.2)

    def test_even_in_velocity(self):
        assert nsppm_velocity(-0.3) == nsppm_velocity(0.3)
        assert nsppm_velocity(0.3) + nsppm_velocity(-0.3) == 2 * nsppm_velocity(0.3)

    def test_strictly_increasing_toward_light_speed(self):
        values = [nsppm_velocity((1 - 10.0 ** -k)) for k in range(1, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_differs_from_standard_rapidity(self):
        # same limit behavior, different map: at v=0.6 the textbook angle is
        # atanh(0.6) = 0.6931..., well away from w(0.6)
        assert standard_rapidity(0.6) == pytest.approx(math.atanh(0.6), rel=1e-15)
        assert abs(standard_rapidity(0.6) - nsppm_velocity(0.6)) > 0.3

    def test_standard_rapidity_keeps_tiny_speeds(self):
        # (1 + u) / (1 - u) rounds to 1 below u ~ 1e-16, and gave 0.0 here
        assert standard_rapidity(1e-20) == 1e-20
        assert standard_rapidity(-1e-300, 2.0) == -1e-300

    def test_standard_rapidity_within_two_ulps(self):
        # against atanh(u) at 80 digits, from the exact binary value of u:
        # tiny speeds, uniform ones and ones near light speed, of either sign.
        # math.atanh is not correctly rounded: on 20,000 uniform u it missed
        # by more than 1 ulp 115 times, at worst by 1.49 ulps, so the bound
        # is 2.  ln((1+u)/(1-u)) missed by up to 2**52 ulps
        rng = random.Random(20261020)
        speeds = [10 ** rng.uniform(-300, -1) for _ in range(1000)]
        speeds += [rng.random() for _ in range(1000)]
        speeds += [1 - 10 ** rng.uniform(-16, -1) for _ in range(1000)]
        for u in speeds:
            u = rng.choice((-u, u))
            exact = _atanh_reference(u)
            for c in (1.0, 2.0):  # scaling by a power of two is exact
                got = standard_rapidity(u * c, c) / c
                assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(float(exact))), u

    def test_inverse_round_trip(self):
        for v in (0.0, 0.1, 0.5, 0.9, 0.999):
            w = nsppm_velocity(v)
            assert invert_nsppm_velocity(w) == pytest.approx(v, abs=1e-10)
        assert invert_nsppm_velocity(nsppm_velocity(0.6)) == \
            pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [
        nsppm_velocity, standard_rapidity, invert_nsppm_velocity,
        lambda v, c: line_element_s(EPS(), EPS(), c),
    ], ids=["nsppm_velocity", "standard_rapidity", "invert_nsppm_velocity",
            "line_element_s"])
    def test_light_speed_must_be_positive_and_finite(self, fn, c):
        with pytest.raises(ValueError, match="light speed must be positive and finite"):
            fn(0.5, c)

    def test_inverse_domain_rejected(self):
        with pytest.raises(ValueError):
            invert_nsppm_velocity(-0.1)
        with pytest.raises(ValueError):
            invert_nsppm_velocity(1e9)
        with pytest.raises(ValueError):
            invert_nsppm_velocity(float("nan"))


class TestComposeVelocities:
    def test_identity_element(self):
        assert compose_velocities_additive_w(0.0, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_half_with_half_frozen_oracle(self):
        assert compose_velocities_additive_w(0.5, 0.5) == \
            pytest.approx(COMPOSE_HALF_HALF, abs=1e-10)

    def test_commutative(self):
        assert compose_velocities_additive_w(0.3, 0.7) == \
            pytest.approx(compose_velocities_additive_w(0.7, 0.3), abs=1e-12)

    def test_stays_below_light_speed(self):
        assert compose_velocities_additive_w(0.99, 0.99) < 1.0

    @given(v=st_.floats(min_value=0.0, max_value=0.99))
    def test_composing_with_rest_is_identity(self, v):
        assert compose_velocities_additive_w(v, 0.0) == pytest.approx(v, abs=1e-10)


@pytest.mark.parametrize("order", [1, 0, -1])
def test_certification_order_below_two_rejected(order):
    with pytest.raises(ValueError) as info:
        certify_derivation(0.5, order=order)
    assert str(info.value) == f"truncation order must be at least 2, got {order}"
