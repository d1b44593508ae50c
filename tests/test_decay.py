"""Tests for the decay law, operator checks, dilation and ensembles."""

import itertools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st_

from lightclock.decay import (
    BLOCK,
    MAX_SAMPLES,
    _FRAME_KEY_SALT,
    DecayModel,
    SeparableSolution,
    _leaf_lifetimes,
    chain_rule_check,
    compare_frames,
    dilated_lifetime,
    ode_residual,
    operator_check,
    population,
    run_ensemble,
)
from lightclock.errors import SuperluminalError
from lightclock.line_element import LineElementParams, gamma_factor

# frozen mean of the (tau=3, M=1e5, seed=42) ensemble, recorded at first run
GOLDEN_TAU3_M1E5_SEED42 = float.fromhex("0x1.7eb4638140712p+1")  # 2.9898800259696907


def full_buffer_mean(tau, m, seed):
    """The engine as it was before streaming: one Philox fill of all m
    lifetimes into one buffer, in-place log1p, numpy's mean."""
    out = np.empty(m)
    np.random.Generator(np.random.Philox(key=seed)).random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out *= -tau
    return float(out.mean())


def stream(seed, start=0):
    """The Philox stream keyed by seed, from sample ``start`` (a multiple of 4)."""
    return np.random.Generator(np.random.Philox(key=seed).advance(start // 4))


@pytest.fixture
def inline_threads(monkeypatch):
    """Run each thread the engine starts inline, when it is started,
    recording how many threads ran tasks, the caller included, and how many
    generators were built, one per subtree task."""
    record = {"threads": 1, "tasks": 0}
    real = np.random.Philox

    class InlineThread:
        def __init__(self, target):
            record["threads"] += 1
            self.target = target

        def start(self):
            self.target()

        def join(self):
            pass

    def counting_philox(*args, **kwargs):
        record["tasks"] += 1
        return real(*args, **kwargs)

    # the engine imports threading at call time, so patch it at its source
    monkeypatch.setattr("threading.Thread", InlineThread)
    monkeypatch.setattr("numpy.random.Philox", counting_philox)
    return record


class TestDecayModel:
    def test_invalid_population(self):
        with pytest.raises(ValueError):
            DecayModel(n0=0.0, tau=1.0)

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError):
            DecayModel(n0=1.0, tau=0.0)
        with pytest.raises(ValueError):
            DecayModel(n0=1.0, tau=1e16)  # beyond the default bound

    @pytest.mark.parametrize("tau", [5e-324, math.nextafter(1e15, math.inf), math.nan])
    def test_lifetime_follows_the_rest_lifetime_rule(self, tau):
        with pytest.raises(ValueError) as model_error:
            DecayModel(n0=1.0, tau=tau)
        with pytest.raises(ValueError) as dilation_error:
            dilated_lifetime(tau, LineElementParams(v=0.6))
        assert str(model_error.value) == str(dilation_error.value)

    def test_lifetime_bounds_are_accepted(self):
        for tau in (sys.float_info.min, 1e15):
            assert DecayModel(n0=1.0, tau=tau).tau == tau

    @pytest.mark.parametrize("n0", [math.nan, math.inf, -math.inf])
    def test_non_finite_population_rejected(self, n0):
        with pytest.raises(ValueError, match="positive and finite"):
            DecayModel(n0=n0, tau=1.0)


class TestPopulation:
    @pytest.mark.parametrize("t", [-1.0, math.nan, -math.inf])
    def test_time_outside_domain_rejected(self, t):
        with pytest.raises(ValueError, match="nonnegative"):
            population(DecayModel(n0=1.0, tau=1.0), t)

    def test_initial_condition(self):
        assert population(DecayModel(n0=1.0, tau=1.0), 0.0) == 1.0

    def test_one_lifetime(self):
        # 50-digit oracle: exp(-1) = 0.36787944117144232159552377016146...
        assert population(DecayModel(n0=1.0, tau=1.0), 1.0) == \
            pytest.approx(0.36787944117144233, rel=1e-15)

    def test_half_life(self):
        model = DecayModel(n0=1000.0, tau=2.0)
        assert population(model, 2.0 * math.log(2.0)) == pytest.approx(500.0, rel=1e-12)

    def test_half_life_identity_along_curve(self):
        model = DecayModel(n0=3.0, tau=0.7)
        half = 0.7 * math.log(2.0)
        for t in np.linspace(0.0, 5.0, 50):
            assert population(model, t + half) == \
                pytest.approx(population(model, t) / 2.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            population(DecayModel(n0=1.0, tau=1.0), -0.1)


class TestOdeResidual:
    def test_small_residual_off_boundary(self):
        model = DecayModel(n0=1.0, tau=1.0)
        assert abs(ode_residual(model, 1.0, 1e-4)) <= 1e-7

    def test_second_order_convergence(self):
        model = DecayModel(n0=1.0, tau=1.0)
        coarse = abs(ode_residual(model, 0.5, 1e-3))
        fine = abs(ode_residual(model, 0.5, 5e-4))
        assert coarse / fine >= 3.5

    def test_boundary_is_first_order(self):
        model = DecayModel(n0=1.0, tau=1.0)
        res = abs(ode_residual(model, 0.0, 1e-4))
        assert 1e-6 < res < 1e-3  # ~step/2, clearly not O(step^2)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            ode_residual(DecayModel(n0=1.0, tau=1.0), 1.0, 0.0)


class TestOperatorCheck:
    def test_passes_at_generic_point(self):
        sol = SeparableSolution.canonical(DecayModel(n0=1.0, tau=1.0))
        assert operator_check(sol, 3.7, 2.0)

    def test_passes_at_origin_with_one_sided_difference(self):
        sol = SeparableSolution.canonical(DecayModel(n0=1.0, tau=0.5))
        assert operator_check(sol, 0.0, 0.0)

    def test_nonunit_spatial_factor_fails(self):
        model = DecayModel(n0=1.0, tau=1.0)
        bad = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0), temporal=model,
                                k=-model.tau)
        assert not operator_check(bad, 3.7, 2.0)

    def test_nonunit_spatial_factor_passes_only_where_it_equals_one(self):
        model = DecayModel(n0=1.0, tau=1.0)
        bad = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0), temporal=model,
                                k=-model.tau)
        assert operator_check(bad, 0.0, 2.0)  # r = 0 is the root of h(r) = 1

    def test_nonunit_spatial_factor_fails_at_a_tiny_population(self):
        # N(600) = 2.65e-261: an absolute tolerance passed it vacuously
        model = DecayModel(n0=1.0, tau=1.0)
        bad = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0), temporal=model,
                                k=-model.tau)
        assert not operator_check(bad, 3.7, 600.0)
        assert operator_check(SeparableSolution.canonical(model), 3.7, 600.0)

    def test_passes_at_the_largest_population(self):
        # N(t) = 1.7e308: a difference stencil over it overflows to inf
        sol = SeparableSolution.canonical(DecayModel(n0=1.7e308, tau=1.0))
        assert operator_check(sol, 0.0, 0.0)

    def test_grid_sweep_with_negative_control(self):
        for tau in (0.5, 1.0, 3.0):
            model = DecayModel(n0=1.0, tau=tau)
            good = SeparableSolution.canonical(model)
            bad = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0),
                                    temporal=model, k=-tau)
            r_grid = np.linspace(0.0, 5.0, 10)
            t_grid = np.linspace(0.0, 3.0 * tau, 10)
            assert all(operator_check(good, r, t) for r in r_grid for t in t_grid)
            assert all(not operator_check(bad, r, t)
                       for r in r_grid[1:] for t in t_grid)


CANONICAL = SeparableSolution.canonical(DecayModel(n0=1.0, tau=1.0))
NON_UNIT = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0), temporal=CANONICAL.temporal,
                             k=-1.0)


@pytest.mark.parametrize("check, match", [
    (lambda: operator_check(CANONICAL, 0.5, math.nan), "time"),
    (lambda: chain_rule_check(1.0, LineElementParams(v=0.6), math.nan), "time"),
    (lambda: chain_rule_check(1.0, LineElementParams(v=0.6), -1.0), "time"),
    (lambda: ode_residual(CANONICAL.temporal, 1.0, math.inf), "step"),
    (lambda: ode_residual(CANONICAL.temporal, 1.0, math.nan), "step"),
    (lambda: ode_residual(CANONICAL.temporal, -1.0, 1e-4), "time"),
    # each of these returned a pass: N(t) rounds to 0 on both sides
    (lambda: ode_residual(CANONICAL.temporal, math.inf, 1e-4), "time"),
    (lambda: ode_residual(CANONICAL.temporal, 1e6, 1e-4), "population"),
    (lambda: operator_check(NON_UNIT, 3.7, math.inf), "time"),
    (lambda: operator_check(NON_UNIT, 3.7, 1e6), "population"),
    # N(t) = exp(-740) is subnormal
    (lambda: operator_check(NON_UNIT, 3.7, 740.0), "population"),
    (lambda: chain_rule_check(1.0, LineElementParams(v=0.6), math.inf, tau_m=0.8),
     "time"),
    (lambda: chain_rule_check(1.0, LineElementParams(v=0.6), 1e6, tau_m=0.8),
     "population"),
    *[(lambda tau_m=tau_m: chain_rule_check(1.0, LineElementParams(v=0.6), 0.5,
                                            tau_m=tau_m), "tau_m")
      for tau_m in (0.0, -1.0, math.nan, math.inf)],
], ids=["operator-nan-time", "chain-nan-time", "chain-negative-time",
        "ode-inf-step", "ode-nan-step", "ode-negative-time",
        "ode-inf-time", "ode-underflow", "operator-inf-time", "operator-underflow",
        "operator-subnormal", "chain-inf-time", "chain-underflow",
        "chain-zero-tau-m", "chain-negative-tau-m", "chain-nan-tau-m", "chain-inf-tau-m"])
def test_finite_difference_guard(check, match):
    with pytest.raises(ValueError, match=f"^{match} must be"):
        check()


class TestDilatedLifetime:
    def test_rest(self):
        assert dilated_lifetime(2.0, LineElementParams(v=0.0)) == 2.0

    def test_canonical_point(self):
        assert dilated_lifetime(2.0, LineElementParams(v=0.6)) == \
            pytest.approx(2.5, rel=1e-15)

    def test_user_supplied_constants(self):
        # muon-style configuration: gamma chosen so 1/gamma = 29.33
        gamma = 1.0 / 29.33
        v = math.sqrt(1.0 - gamma * gamma)
        assert dilated_lifetime(2.1966, LineElementParams(v=v)) == \
            pytest.approx(64.43, abs=5e-3)

    def test_round_trip(self):
        for v in (0.0, 0.3, 0.6, 0.99):
            p = LineElementParams(v=v)
            tau_m = dilated_lifetime(7.3, p)
            assert tau_m * gamma_factor(p) == pytest.approx(7.3, rel=1e-15)

    def test_never_shrinks(self):
        for v in np.linspace(0.0, 0.99, 34):
            assert dilated_lifetime(1.0, LineElementParams(v=float(v))) >= 1.0

    def test_strictly_increasing_in_speed(self):
        values = [dilated_lifetime(1.0, LineElementParams(v=float(v)))
                  for v in np.linspace(0.0, 0.99, 100)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_requires_zero_secondary_term(self):
        with pytest.raises(ValueError):
            dilated_lifetime(1.0, LineElementParams(v=0.3, d=0.1))

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError):
            dilated_lifetime(0.0, LineElementParams(v=0.3))

    @pytest.mark.parametrize("tau_s", [math.nan, math.inf])
    def test_non_finite_lifetime_rejected(self, tau_s):
        with pytest.raises(ValueError, match="positive and finite"):
            dilated_lifetime(tau_s, LineElementParams(v=0.3))

    @pytest.mark.parametrize("tau_s", [5e-324, 2.2250738585072009e-308])
    def test_subnormal_lifetime_rejected(self, tau_s):
        with pytest.raises(ValueError, match="at least 2.2250738585072014e-308"):
            dilated_lifetime(tau_s, LineElementParams(v=0.6))

    def test_smallest_normal_lifetime_accepted(self):
        assert dilated_lifetime(2.2250738585072014e-308, LineElementParams(v=0.6)) == \
            2.2250738585072014e-308 / 0.8

    def test_overflowing_lifetime_rejected(self):
        # beyond the bound, so tau_s / gamma cannot overflow
        with pytest.raises(ValueError, match="at most 1e\\+15, got 1.7e\\+308"):
            dilated_lifetime(1.7e308, LineElementParams(v=0.6))

    def test_lifetime_at_the_bound_accepted(self):
        assert dilated_lifetime(1e15, LineElementParams(v=0.6)) == 1e15 / 0.8
        # the fastest float speed keeps gamma = 2**-26, so tau_m stays finite
        fastest = LineElementParams(v=math.nextafter(1.0, 0.0))
        assert dilated_lifetime(1e15, fastest) == 1e15 * 2.0 ** 26

    def test_lifetime_beyond_the_bound_rejected(self):
        with pytest.raises(ValueError, match="at most 1e\\+15"):
            dilated_lifetime(math.nextafter(1e15, math.inf), LineElementParams(v=0.6))

    def test_compare_frames_draws_at_the_bound(self, monkeypatch):
        drawn = []

        def record_draw(streams, n, workers):
            drawn.extend(tau for tau, _ in streams)
            return [tau * n for tau, _ in streams]

        monkeypatch.setattr("lightclock.decay._keyed_sums", record_draw)
        report = compare_frames(1e15, LineElementParams(v=0.6), 10, 1)
        assert drawn == [1e15, 1e15 / 0.8] and report.ratio == 1.25

    def test_compare_frames_rejects_beyond_the_bound_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("lightclock.decay._keyed_sums", no_draw)
        with pytest.raises(ValueError, match="at most 1e\\+15"):
            compare_frames(math.nextafter(1e15, math.inf), LineElementParams(v=0.6), 10, 1)

    @pytest.mark.parametrize("tau_s", [1.7e308, 5e-324])
    def test_compare_frames_rejects_before_drawing(self, monkeypatch, tau_s):
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("lightclock.decay._keyed_sums", no_draw)
        with pytest.raises(ValueError, match="rest lifetime|dilated lifetime"):
            compare_frames(tau_s, LineElementParams(v=0.6), 10, 1)


class TestChainRuleCheck:
    def test_passes_for_dilated_lifetime(self):
        assert chain_rule_check(1.0, LineElementParams(v=0.6), 1.0)

    def test_rest_case_reduces_to_decay_law(self):
        assert chain_rule_check(1.0, LineElementParams(v=0.0), 2.71)

    def test_boundary_probe(self):
        assert chain_rule_check(1.0, LineElementParams(v=0.6), 0.0)

    def test_wrong_dilation_direction_fails(self):
        p = LineElementParams(v=0.6)
        wrong = 1.0 * gamma_factor(p)  # contraction instead of dilation
        assert not chain_rule_check(1.0, p, 1.0, tau_m=wrong)

    def test_small_lifetime_error_fails_at_t_equal_tau_s(self):
        # the two sides agree to first order in the error at t = tau_s, so a
        # difference quotient at a relative tolerance of 1e-8 passed this
        p = LineElementParams(v=0.6)
        assert not chain_rule_check(1.0, p, 1.0, tau_m=dilated_lifetime(1.0, p) * (1 + 1e-4))

    @given(v=st_.floats(0.0, 0.999, exclude_max=True), tau_s=st_.floats(1e-3, 1e3),
           x=st_.floats(0.0, 30.0), delta=st_.floats(1e-12, 0.5),
           sign=st_.sampled_from([-1.0, 1.0]))
    def test_wrong_lifetime_fails_at_every_probe(self, v, tau_s, x, delta, sign):
        p = LineElementParams(v=v)
        tau_m = dilated_lifetime(tau_s, p)
        assert chain_rule_check(tau_s, p, x * tau_s)
        assert not chain_rule_check(tau_s, p, x * tau_s, tau_m=tau_m * (1 + sign * delta))


class TestRunEnsemble:
    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble(1.0, 0, 0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_lifetime_rejected(self, tau):
        with pytest.raises(ValueError, match="mean lifetime"):
            run_ensemble(tau, 10, 0)

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble(1.0, 10, -1)
        with pytest.raises(ValueError):
            run_ensemble(1.0, 10, 2 ** 64)

    def test_single_sample_is_inverse_cdf_of_first_word(self):
        seed = 7
        raw = np.random.Philox(key=seed).random_raw(1)
        u0 = (int(raw[0]) >> 11) * 2.0 ** -53
        assert run_ensemble(1.0, 1, seed).tau_hat == pytest.approx(-math.log1p(-u0), rel=1e-15)
        assert _leaf_lifetimes(1.0, stream(seed), 1).tolist() == [-math.log1p(-u0)]

    def test_leaf_starts_at_its_stream_position(self):
        whole = _leaf_lifetimes(2.0, stream(5), 64)
        assert np.array_equal(_leaf_lifetimes(2.0, stream(5, 24), 40), whole[24:])

    def test_leaves_drawn_in_turn_continue_the_stream(self):
        gen = stream(5)
        parts = [_leaf_lifetimes(2.0, gen, size) for size in (24, 3, 37)]
        assert np.array_equal(np.concatenate(parts), _leaf_lifetimes(2.0, stream(5), 64))

    def test_golden_value_frozen(self):
        run = run_ensemble(3.0, 100_000, 42)
        assert run.tau_hat == GOLDEN_TAU3_M1E5_SEED42

    def test_estimate_within_five_sigma(self):
        run = run_ensemble(3.0, 100_000, 42)
        assert abs(run.tau_hat - 3.0) <= 5.0 * 3.0 / math.sqrt(100_000)
        assert run.stderr == run.tau_hat / math.sqrt(100_000)

    def test_lifetimes_nonnegative(self):
        assert (_leaf_lifetimes(0.5, stream(3), 1000) >= 0.0).all()
        assert (_leaf_lifetimes(0.5, stream(3, BLOCK), 1000) >= 0.0).all()

    @pytest.mark.parametrize("m", [1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 10 ** 7])
    def test_mean_equals_full_buffer_mean_bitwise(self, m):
        expected = full_buffer_mean(3.0, m, 42)
        for workers in (1, 2, 3):
            assert run_ensemble(3.0, m, 42, workers=workers).tau_hat == expected

    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_bitwise_identical_across_worker_counts(self, workers):
        for m in (10_007, 2 * BLOCK + 8):
            base = run_ensemble(1.0, m, 99, workers=1)
            split = run_ensemble(1.0, m, 99, workers=workers)
            assert base == split

    @pytest.mark.parametrize("workers", [1, 3, 10 ** 6])
    @pytest.mark.parametrize("frames", [1, 2])
    def test_thread_count_capped_at_cpu_count(self, inline_threads, workers, frames):
        m = 2 * BLOCK + 8  # three leaves: BLOCK, BLOCK / 2, BLOCK / 2 + 8
        p = LineElementParams(v=0.6)
        draw = ((lambda w: run_ensemble(1.0, m, 0, workers=w)) if frames == 1
                else (lambda w: compare_frames(1.0, p, m, 0, workers=w)))
        base = draw(1)
        capped = draw(workers)
        # one task per leaf and frame, run by the caller and the threads it starts
        assert inline_threads["threads"] == min(workers, 3 * frames, os.cpu_count() or 1)
        assert base == capped

    def test_unknown_cpu_count_runs_one_thread(self, monkeypatch, inline_threads):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        m = 2 * BLOCK + 8
        assert run_ensemble(1.0, m, 0, workers=3) == run_ensemble(1.0, m, 0)
        assert inline_threads["threads"] == 1

    def test_default_is_the_calling_thread_alone(self, inline_threads):
        run_ensemble(1.0, 2 * BLOCK + 8, 0)
        compare_frames(1.0, LineElementParams(v=0.6), 2 * BLOCK + 8, 0)
        assert inline_threads["threads"] == 1

    @pytest.mark.parametrize("block", [2 ** 10, 2 ** 17, 2 ** 20])
    def test_leaf_and_task_size_move_no_bit(self, monkeypatch, block):
        # _pairwise reads BLOCK at call time; tasks are sized from it
        monkeypatch.setattr("lightclock.decay.BLOCK", block)
        for m in (2 * block + 8, 3145733):
            expected = full_buffer_mean(3.0, m, 42)
            for workers in (1, 2, 3):
                assert run_ensemble(3.0, m, 42, workers=workers).tau_hat == expected

    @pytest.mark.parametrize("frames", [1, 2])
    def test_pool_bookkeeping_is_bounded_by_threads(self, monkeypatch, inline_threads,
                                                    frames):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        # the sums are not under test: one zero per leaf runs in milliseconds
        monkeypatch.setattr("lightclock.decay._leaf_lifetimes", lambda *leaf: np.zeros(1))
        if frames == 1:
            assert run_ensemble(1.0, MAX_SAMPLES, 0, workers=2).tau_hat == 0.0
        else:
            with pytest.raises(ValueError, match="underflowed to 0"):
                compare_frames(1.0, LineElementParams(v=0.6), MAX_SAMPLES, 0, workers=2)
        # 8192 leaves per frame, but a few subtree tasks per thread and frame
        assert inline_threads["threads"] == 2
        assert 0 < inline_threads["tasks"] <= 16 * 2 * frames

    @pytest.mark.parametrize("workers, builds", [(1, 8), (2, 16)])
    def test_one_generator_per_subtree_task(self, monkeypatch, workers, builds):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        real, built = np.random.Philox, []

        def counting_philox(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("numpy.random.Philox", counting_philox)
        run_ensemble(1.0, 64 * BLOCK, 0, workers=workers)
        # 64 leaves, cut into 8 subtree tasks per thread
        assert len(built) == builds

    def test_memory_bounded_by_threads_times_block(self):
        threads = min(2, os.cpu_count() or 1)
        # warm: the first call also imports numpy and numpy.random
        run_ensemble(1.0, 64 * BLOCK, 0, workers=2)
        tracemalloc.start()
        try:
            run_ensemble(1.0, 64 * BLOCK, 0, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full buffer would be 64 MiB; each thread holds one 1 MiB leaf
        assert peak <= threads * 8 * BLOCK + 2 ** 20

    def test_ensemble_beyond_sample_cap_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match=f"must lie in 1..{MAX_SAMPLES}, got {MAX_SAMPLES + 1}"):
            run_ensemble(1.0, MAX_SAMPLES + 1, 0)
        # the cap is read at call time and is inclusive
        monkeypatch.setattr("lightclock.decay.MAX_SAMPLES", 10)
        assert run_ensemble(1.0, 10, 0).sample_count == 10
        with pytest.raises(ValueError, match="must lie in 1..10, got 11"):
            run_ensemble(1.0, 11, 0)

    def test_distinct_seeds_give_distinct_streams(self):
        a = _leaf_lifetimes(1.0, stream(1), 100)
        b = _leaf_lifetimes(1.0, stream(2), 100)
        assert not np.array_equal(a, b)
        assert run_ensemble(1.0, 100, 1).tau_hat != run_ensemble(1.0, 100, 2).tau_hat

    def test_estimator_unbiased_over_many_seeds(self):
        m, runs, tau = 1000, 200, 1.0
        grand = np.mean([run_ensemble(tau, m, seed).tau_hat
                         for seed in range(runs)])
        assert abs(grand - tau) <= 5.0 * tau / math.sqrt(runs * m)


class TestCompareFrames:
    def test_rest_ratio_is_unity(self):
        report = compare_frames(1.0, LineElementParams(v=0.0), 20_000, 5)
        assert report.ratio == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0 / 20_000))
        assert abs(report.z_score) <= 5.0

    def test_dilation_ratio_detected(self):
        report = compare_frames(1.0, LineElementParams(v=0.6), 100_000, 42)
        assert report.tau_m_analytic == pytest.approx(1.25, rel=1e-15)
        assert report.ratio == pytest.approx(1.25, abs=5.0 * 1.25 * math.sqrt(2e-5))
        assert abs(report.z_score) <= 5.0

    def test_superluminal_rejected(self):
        with pytest.raises(SuperluminalError):
            compare_frames(1.0, LineElementParams(v=1.01), 100, 0)

    def test_report_dict_fields(self):
        report = compare_frames(1.0, LineElementParams(v=0.6), 1000, 11)
        d = report.as_dict()
        assert list(d) == ["tau_s", "v", "c", "lambda", "gamma", "tau_m_analytic",
                           "tau_hat_s", "tau_hat_m", "ratio", "z_score",
                           "samples", "seed"]

    @pytest.mark.parametrize("m", [1, 7, 8, BLOCK, BLOCK + 8, 2 * BLOCK + 8, 3145733,
                                   10 ** 7])
    def test_one_call_draws_both_frames_as_two_ensembles(self, m):
        p = LineElementParams(v=0.6)
        for seed in (0, 42, 2 ** 63 + 5):
            for workers in (1, 2, 3):
                report = compare_frames(1.0, p, m, seed, workers=workers)
                rest = run_ensemble(1.0, m, seed, workers)
                moving = run_ensemble(report.tau_m_analytic, m, seed ^ _FRAME_KEY_SALT,
                                      workers)
                assert (report.tau_hat_s.hex(), report.tau_hat_m.hex()) == \
                    (rest.tau_hat.hex(), moving.tau_hat.hex()), (seed, workers)

    def test_tasks_handed_out_under_contention(self, monkeypatch):
        # 8 threads on fewer cores, switching every microsecond, share one
        # task list: a task run twice or lost would change a sum or leave a
        # slot unwritten
        monkeypatch.setattr("lightclock.decay.BLOCK", 2 ** 10)
        p, m = LineElementParams(v=0.6), 64 * 2 ** 10 + 8
        expected = compare_frames(1.0, p, m, 3, workers=1)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [compare_frames(1.0, p, m, 3, workers=8) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert all(report == expected for report in reports)

    def test_a_failing_task_stops_every_thread_and_is_raised(self, monkeypatch):
        calls, real = itertools.count(1), _leaf_lifetimes

        def third_fails(*leaf):
            if next(calls) == 3:
                raise MemoryError("leaf 3")
            return real(*leaf)

        monkeypatch.setattr("lightclock.decay._leaf_lifetimes", third_fails)
        before = threading.active_count()
        # 16 one-leaf tasks over both frames
        with pytest.raises(MemoryError, match="leaf 3"):
            compare_frames(1.0, LineElementParams(v=0.6), 8 * BLOCK, 1, workers=2)
        assert threading.active_count() == before
        # the other thread ends the leaf it holds, and at most one it took
        # before the failure was recorded
        assert next(calls) <= 5

    def test_deterministic_across_workers(self):
        a = compare_frames(1.0, LineElementParams(v=0.6), 10_000, 13, workers=1)
        b = compare_frames(1.0, LineElementParams(v=0.6), 10_000, 13, workers=8)
        assert a.as_dict() == b.as_dict()
