"""Tests for truncated infinitesimal arithmetic and grid approximation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from lightclock.errors import OrderMismatchError, OutOfGridError
from lightclock.infinitesimals import (
    GridApprox,
    TruncatedHyper,
    grid_approximate,
    infinitely_close,
    st,
)

H = TruncatedHyper


def coeff_floats(bound=1e3):
    return st_.floats(min_value=-bound, max_value=bound,
                      allow_nan=False, allow_infinity=False)


def hypers(order=2, bound=1e3):
    return st_.tuples(*[coeff_floats(bound)] * (order + 1)).map(H)


def rational_hypers(order=2):
    fracs = st_.fractions(min_value=-100, max_value=100, max_denominator=50)
    return st_.tuples(*[fracs] * (order + 1)).map(H)


def assert_close_scaled(a: H, b: H, scale: float, tol=1e-12):
    for x, y in zip(a.coeffs, b.coeffs):
        assert abs(x - y) <= tol * scale, (a, b)


def magnitude(*hs: H) -> float:
    m = 1.0
    for h in hs:
        m *= max(1.0, max(abs(c) for c in h.coeffs)) * len(h.coeffs)
    return m


class TestArithmetic:
    def test_addition_is_coefficientwise(self):
        assert (H((3.0, 2.0, 0.0)) + H((1.0, 1.0, 0.0))).coeffs == (4.0, 3.0, 0.0)

    def test_square_keeps_second_order_at_k2(self):
        one_plus_eps = H((1.0, 1.0, 0.0))
        assert (one_plus_eps * one_plus_eps).coeffs == (1.0, 2.0, 1.0)

    def test_square_truncates_at_k1(self):
        one_plus_eps = H((1.0, 1.0))
        assert (one_plus_eps * one_plus_eps).coeffs == (1.0, 2.0)

    def test_truncation_is_exact_discard(self):
        # eps * eps**2 at K=2 vanishes entirely; nothing folds downward
        eps = H.infinitesimal()
        eps2 = H.infinitesimal(power=2)
        assert (eps * eps2).coeffs == (0.0, 0.0, 0.0)

    def test_scalar_operations(self):
        a = H((1.0, 2.0, 3.0))
        assert (a * 2).coeffs == (2.0, 4.0, 6.0)
        assert (2 * a).coeffs == (2.0, 4.0, 6.0)
        assert (a / 2).coeffs == (0.5, 1.0, 1.5)
        assert (-a).coeffs == (-1.0, -2.0, -3.0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            H((1.0, 2.0)) + H((1.0, 2.0, 3.0))
        with pytest.raises(OrderMismatchError):
            H((1.0, 2.0)) * H((1.0, 2.0, 3.0))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            H((math.inf, 0.0, 0.0))
        with pytest.raises(ValueError):
            H((0.0, math.nan, 0.0))

    @given(a=hypers(), b=hypers())
    def test_commutativity(self, a, b):
        # float addition commutes exactly; products commute termwise but the
        # Cauchy sums accumulate in mirrored order, hence the scaled bound
        assert (a + b).coeffs == (b + a).coeffs
        assert_close_scaled(a * b, b * a, magnitude(a, b))

    @given(a=hypers(), b=hypers(), c=hypers())
    def test_associativity_and_distributivity_float(self, a, b, c):
        scale = magnitude(a, b, c)
        assert_close_scaled((a * b) * c, a * (b * c), scale)
        assert_close_scaled(a * (b + c), a * b + a * c, scale)
        assert_close_scaled((a + b) + c, a + (b + c), scale)

    @given(a=rational_hypers(), b=rational_hypers(), c=rational_hypers())
    def test_ring_laws_exact_over_rationals(self, a, b, c):
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    @given(a=hypers(), b=hypers())
    def test_standard_part_is_ring_homomorphism(self, a, b):
        assert st(a + b) == st(a) + st(b)
        assert st(a * b) == st(a) * st(b)


class TestStandardPart:
    def test_plain_value(self):
        assert st(H((3.0, 2.0, 0.0))) == 3.0

    def test_pure_infinitesimal(self):
        assert st(H((0.0, 5.0, 7.0))) == 0.0

    def test_irrational_standard_part(self):
        assert st(H((math.pi, -1.0, 0.0))) == math.pi


class TestInfinitelyClose:
    def test_same_standard_part(self):
        assert infinitely_close(H((2.0, 1.0, 0.0)), H((2.0, 3.0, 0.0)))

    def test_distinct_standard_parts(self):
        assert not infinitely_close(H((2.0, 1.0, 0.0)), H.constant(2.5))

    def test_below_default_tolerance(self):
        assert infinitely_close(H((1e-13, 1.0, 0.0)), H.constant(0.0))

    def test_custom_tolerance(self):
        a, b = H.constant(0.0), H.constant(1e-13)
        assert not infinitely_close(a, b, tol=1e-14)

    @given(st_.lists(
        st_.tuples(st_.integers(-5, 5), coeff_floats(10.0), coeff_floats(10.0)),
        min_size=1, max_size=6))
    def test_equivalence_relation_on_separated_sample(self, rows):
        # standard parts from a coarse grid: closeness means same grid point,
        # so transitivity cannot be spoiled by marginal 1e-12 chains
        sample = [H((k * 1e-6, c1, c2)) for k, c1, c2 in rows]
        for a in sample:
            assert infinitely_close(a, a)
        for a in sample:
            for b in sample:
                assert infinitely_close(a, b) == infinitely_close(b, a)
                for c in sample:
                    if infinitely_close(a, b) and infinitely_close(b, c):
                        assert infinitely_close(a, c)


class TestGridApprox:
    def test_zero(self):
        g = grid_approximate(0.0, 1000)
        assert g.numerator == 0 and g.value == 0

    def test_pi_at_megascale(self):
        g = grid_approximate(math.pi, 10 ** 6)
        assert g.numerator == 3141593
        assert abs(g.value - Fraction(math.pi)) <= Fraction(1, 2 * 10 ** 6)

    def test_out_of_grid(self):
        with pytest.raises(OutOfGridError):
            grid_approximate(10.0 ** 7, 1000)

    def test_boundary_has_no_grid_point(self):
        # within half a step of omega: nearest integer would break |m| < omega**2
        with pytest.raises(OutOfGridError):
            grid_approximate(9.9999999, 10)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            grid_approximate(0.5, 0)

    def test_direct_construction_validates_bound(self):
        with pytest.raises(OutOfGridError):
            GridApprox(numerator=100, scale=10)

    @given(st_.integers(1, 10 ** 9), st_.floats(-0.999, 0.999))
    @settings(max_examples=300)
    def test_error_bound_exact(self, omega, frac):
        # scaling by omega - 1/2 keeps targets out of the boundary dead zone
        r = frac * (omega - 0.5)
        g = grid_approximate(r, omega)
        assert abs(g.numerator) < omega ** 2
        assert abs(g.value - Fraction(r)) <= Fraction(1, 2 * omega)


class TestRejections:
    def test_no_coefficients(self):
        with pytest.raises(ValueError) as info:
            H(())
        assert str(info.value) == "at least one coefficient (the standard part) required"

    @pytest.mark.parametrize("power", [0, 4])
    def test_power_outside_the_order(self, power):
        with pytest.raises(ValueError) as info:
            H.infinitesimal(1.0, order=3, power=power)
        assert str(info.value) == f"power {power} outside 1..3"

    @pytest.mark.parametrize("zero", [0, 0.0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError) as info:
            H((1.0, 2.0)) / zero
        assert str(info.value) == "division of a truncated series by zero"

    @pytest.mark.parametrize("scale", [0, -3])
    def test_grid_scale_below_one(self, scale):
        with pytest.raises(ValueError) as info:
            GridApprox(numerator=0, scale=scale)
        assert str(info.value) == f"scale must be a positive integer, got {scale}"

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, r):
        with pytest.raises(ValueError) as info:
            grid_approximate(r, 4)
        assert str(info.value) == f"target {r!r} is not finite"

    @pytest.mark.parametrize("r", ["1", 1j, None])
    def test_non_real_target(self, r):
        with pytest.raises(TypeError) as info:
            grid_approximate(r, 4)
        assert str(info.value) == f"target {r!r} is not a real number"
