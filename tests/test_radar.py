"""Tests for the radar measurement protocol."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from lightclock.errors import (
    CausalityError,
    DegeneratePairError,
    GeometryError,
    SuperluminalError,
)
from lightclock.radar import (
    Reflector,
    einstein_measures,
    radar_velocity,
    simulate_ping,
)


class TestEinsteinMeasures:
    def test_basic_exchange(self):
        r = einstein_measures(1.0, 3.0, 1.0)
        assert (r.t_E, r.r_E, r.v_E) == (2.0, 1.0, 0.5)

    def test_zero_range_echo_pins_time_to_reception(self):
        r = einstein_measures(2.0, 2.0, 1.0)
        assert r.r_E == 0.0
        assert r.t_E == r.t3 == 2.0

    def test_zero_einstein_time_leaves_velocity_undefined(self):
        r = einstein_measures(-1.0, 1.0, 1.0)
        assert (r.t_E, r.r_E) == (0.0, 1.0)
        assert r.v_E is None

    def test_reception_before_emission_rejected(self):
        with pytest.raises(CausalityError):
            einstein_measures(3.0, 1.0, 1.0)

    def test_nonpositive_light_speed_rejected(self):
        with pytest.raises(ValueError):
            einstein_measures(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_light_speed_rejected_by_name(self, c):
        with pytest.raises(ValueError, match="light speed must be positive and finite"):
            einstein_measures(0.0, 1.0, c)

    def test_rederivation_is_idempotent(self):
        first = einstein_measures(0.7, 4.3, 2.0)
        second = einstein_measures(first.t1, first.t3, first.c)
        assert (second.t_E, second.r_E, second.v_E) == \
            (first.t_E, first.r_E, first.v_E)


class TestSimulatePing:
    def test_receding_reflector_through_origin(self):
        r = simulate_ping(Reflector(x0=0.0, v=0.5), 1.0, 1.0)
        assert (r.t3, r.t_E, r.r_E, r.v_E) == (3.0, 2.0, 1.0, 0.5)

    def test_stationary_reflector(self):
        # single-ping v_E counts from emission; it is 1 here even though the
        # target does not move, so velocity must come from ping differences
        r = simulate_ping(Reflector(x0=5.0, v=0.0), 0.0, 1.0)
        assert (r.t3, r.t_E, r.r_E) == (10.0, 5.0, 5.0)
        assert r.v_E == 1.0

    def test_superluminal_reflector_rejected(self):
        with pytest.raises(SuperluminalError):
            simulate_ping(Reflector(x0=0.0, v=1.5), 0.0, 1.0)

    def test_reflector_behind_emitter_rejected(self):
        with pytest.raises(GeometryError):
            simulate_ping(Reflector(x0=-1.0, v=0.0), 0.0, 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_light_speed_rejected_by_name(self, c):
        with pytest.raises(ValueError, match="light speed must be positive and finite"):
            simulate_ping(Reflector(x0=1.0, v=0.0), 0.0, c)


class TestRadarVelocity:
    def test_recession_speed_recovered(self):
        refl = Reflector(x0=0.0, v=0.5)
        a = simulate_ping(refl, 1.0, 1.0)
        b = simulate_ping(refl, 2.0, 1.0)
        assert radar_velocity(a, b) == pytest.approx(0.5, rel=1e-12)

    def test_identical_pings_rejected(self):
        a = simulate_ping(Reflector(x0=1.0, v=0.25), 1.0, 1.0)
        with pytest.raises(DegeneratePairError):
            radar_velocity(a, a)

    def test_stationary_reflector_measures_zero(self):
        refl = Reflector(x0=4.0, v=0.0)
        a = simulate_ping(refl, 0.0, 1.0)
        b = simulate_ping(refl, 3.0, 1.0)
        assert radar_velocity(a, b) == pytest.approx(0.0, abs=1e-12)

    @given(
        x0=st_.floats(min_value=0.0, max_value=100.0),
        v=st_.floats(min_value=0.0, max_value=0.9),
        t1=st_.floats(min_value=0.125, max_value=50.0),
        dt=st_.floats(min_value=0.25, max_value=10.0),
        c=st_.sampled_from([1.0, 2.0, 299792458.0]),
    )
    def test_two_ping_velocity_equals_worldline_velocity(self, x0, v, t1, dt, c):
        refl = Reflector(x0=x0, v=v * c)
        if refl.position(t1) <= 1e-6 * (1.0 + c * t1):
            return  # target too close to the emitter to resolve in floats
        a = simulate_ping(refl, t1, c)
        b = simulate_ping(refl, t1 + dt, c)
        assert radar_velocity(a, b) == pytest.approx(v * c, rel=1e-12, abs=1e-12 * c)

    @given(
        v=st_.floats(min_value=0.01, max_value=0.9),
        t1=st_.floats(min_value=0.125, max_value=50.0),
    )
    def test_range_matches_worldline_at_einstein_time_through_origin(self, v, t1):
        refl = Reflector(x0=0.0, v=v)
        r = simulate_ping(refl, t1, 1.0)
        assert r.r_E == pytest.approx(refl.position(r.t_E), rel=1e-12)


def test_two_ping_velocity_is_exact_for_rational_reflectors():
    # einstein_measures halves by division, so Fraction inputs stay Fractions
    rng = random.Random(12)
    for _ in range(500):
        c = Fraction(rng.randint(1, 300), rng.randint(1, 100))
        v = c * Fraction(rng.randint(-999, 999), 1000)
        x0 = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
        # a ping is valid while the reflector is ahead of the emitter
        span = x0 / -v if v < 0 else Fraction(100)
        t1a, t1b = sorted(span * Fraction(k, 1000) for k in rng.sample(range(1000), 2))
        refl = Reflector(x0=x0, v=v)
        measured = radar_velocity(simulate_ping(refl, t1a, c), simulate_ping(refl, t1b, c))
        assert type(measured) is Fraction and measured == v


def test_overflowing_einstein_velocity_rejected():
    # t_E is the smallest subnormal, so r_E / t_E overflows though r_E does not
    with pytest.raises(GeometryError) as info:
        simulate_ping(Reflector(1.0, 0.0), -5.8823529411764695e-309, 1.7e308)
    assert str(info.value) == ("radar measures overflow: t3=5.882352941176477e-309, "
                               "t_E=5e-324, r_E=1.0000000000000002, v_E=inf")
