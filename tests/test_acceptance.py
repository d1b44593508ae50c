"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one line per criterion (run with ``pytest -s`` to see them
on passing runs).  Randomized sweeps use fixed seeds so the suite is
reproducible.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np

from lightclock.decay import (
    DecayModel,
    SeparableSolution,
    compare_frames,
    dilated_lifetime,
    ode_residual,
    operator_check,
)
from lightclock.infinitesimals import grid_approximate
from lightclock.line_element import (
    LineElementParams,
    certify_derivation,
    check_rejected_branch,
    compose_velocities_additive_w,
    expand_quadratic,
    gamma_factor,
    lambda_factor,
    nsppm_velocity,
    solve_transform_coeffs,
)
from lightclock.radar import Reflector, radar_velocity, simulate_ping


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def random_rational_velocity_pairs(count: int, seed: int):
    """Rational (v, d) with 0 <= v + d <= 0.99 at denominators up to 1000."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        q = rng.randint(1, 1000)
        total = rng.randint(0, (99 * q) // 100)
        v_num = rng.randint(0, total)
        pairs.append((Fraction(v_num, q), Fraction(total - v_num, q)))
    return pairs


def test_criterion_1_derivation_certification():
    with criterion(1, "derivation certification"):
        pairs = random_rational_velocity_pairs(1000, seed=101)
        start = perf_counter()
        for v, d in pairs:
            report = certify_derivation(float(v), float(d))
            assert report.passed
            assert report.eps2_rel_error <= 1e-12
        for v, d in pairs:
            report = certify_derivation(v, d, exact=True)
            assert report.passed
            assert report.lhs_eps2 == report.rhs_eps2
            assert report.eps2_rel_error == 0.0
        elapsed = perf_counter() - start
        print(f"  [2000 certifications in {elapsed:.3f} s]", end=" ")
        assert elapsed < 1.0


def test_criterion_2_cross_term_and_rejected_branch():
    with criterion(2, "cross-term nullity and branch rejection"):
        pairs = random_rational_velocity_pairs(1000, seed=101)
        for v, d in pairs:
            p = LineElementParams(v=float(v), d=float(d))
            eta = lambda_factor(p)
            tc = solve_transform_coeffs(p)
            coef_t, cross, coef_r = expand_quadratic(tc.alpha, tc.beta)
            assert abs(cross) <= 1e-12
            assert abs(coef_t - eta) <= 1e-12 * eta
            assert abs(coef_r - (-1.0 / eta)) <= 1e-12 / eta
        for k in range(1, 1000):
            ratio = check_rejected_branch(
                solve_transform_coeffs(LineElementParams(v=k / 1000.0)))
            assert ratio < 0.0
            assert ratio == -k / 1000.0


def test_criterion_3_radar_oracle():
    with criterion(3, "radar velocity oracle"):
        rng = np.random.default_rng(303)
        start = perf_counter()
        for case in range(100):
            c = float(rng.uniform(0.5, 3.0))
            v = 0.5 if case == 0 else float(rng.uniform(0.0, 0.9))
            x0 = 0.0 if case == 0 else float(rng.uniform(0.0, 100.0))
            refl = Reflector(x0=x0, v=v * c)
            t1a = float(rng.uniform(0.1, 10.0))
            t1b = t1a + float(rng.uniform(0.5, 10.0))
            if refl.position(t1a) <= 0:
                t1a, t1b = t1a + 1.0, t1b + 1.0
            measured = radar_velocity(simulate_ping(refl, t1a, c),
                                      simulate_ping(refl, t1b, c))
            assert abs(measured - v * c) <= 1e-12 * max(1.0, abs(v * c))
        elapsed = perf_counter() - start
        print(f"  [100 reflector pairs in {elapsed:.3f} s]", end=" ")
        assert elapsed < 1.0


def test_criterion_4_dilation_formula():
    with criterion(4, "lifetime dilation formula"):
        p_six = LineElementParams(v=0.6)
        for tau_s in (1.0, 2.0, 2.1966, 7.3, 1e-3):
            tau_m = dilated_lifetime(tau_s, p_six)
            assert abs(tau_m - 1.25 * tau_s) <= 1e-15 * 1.25 * tau_s
        for v in (0.0, 0.3, 0.6, 0.9, 0.999):
            p = LineElementParams(v=v)
            tau_m = dilated_lifetime(3.7, p)
            assert abs(tau_m * gamma_factor(p) - 3.7) <= 1e-15 * 3.7
        grid = [dilated_lifetime(1.0, LineElementParams(v=0.99 * i / 99))
                for i in range(100)]
        assert all(a < b for a, b in zip(grid, grid[1:]))


def test_criterion_5_monte_carlo_dilation():
    with criterion(5, "Monte Carlo dilation confirmation"):
        p = LineElementParams(v=0.6)
        start = perf_counter()
        report = compare_frames(1.0, p, 100_000, seed=42)
        assert abs(report.z_score) <= 5.0
        assert abs(report.ratio - 1.25) <= 5.0 * report.ratio * math.sqrt(2e-5)
        for workers in (3, 8):
            again = compare_frames(1.0, p, 100_000, seed=42, workers=workers)
            assert again.as_dict() == report.as_dict()
        elapsed = perf_counter() - start
        print(f"  [three 2x100k ensembles in {elapsed:.3f} s]", end=" ")
        assert elapsed < 5.0


def test_criterion_6_operator_equation():
    with criterion(6, "operator equation and residual convergence"):
        for tau in (0.5, 1.0, 3.0):
            model = DecayModel(n0=1.0, tau=tau)
            good = SeparableSolution.canonical(model)
            bad = SeparableSolution(spatial_coeffs=(1.0, 0.0, 1.0),
                                    temporal=model, k=-tau)
            r_grid = np.linspace(0.0, 5.0, 10)
            t_grid = np.linspace(0.0, 3.0 * tau, 10)
            assert all(operator_check(good, float(r), float(t))
                       for r in r_grid for t in t_grid)
            assert not all(operator_check(bad, float(r), float(t))
                           for r in r_grid for t in t_grid)
            coarse = abs(ode_residual(model, 0.7 * tau, 1e-3 * tau))
            fine = abs(ode_residual(model, 0.7 * tau, 5e-4 * tau))
            assert coarse / fine >= 3.5


def test_criterion_7_velocity_map():
    with criterion(7, "velocity map monotonicity and inversion"):
        assert nsppm_velocity(0.0) == 0.0
        values = [nsppm_velocity(0.999999 * i / 999) for i in range(1000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        rng = np.random.default_rng(707)
        for v in rng.uniform(0.0, 0.99, 100):
            assert abs(compose_velocities_additive_w(float(v), 0.0) - v) <= 1e-10


def test_criterion_8_grid_approximation():
    with criterion(8, "clock-count grid approximation"):
        rng = np.random.default_rng(808)
        for _ in range(10_000):
            omega = int(10 ** rng.uniform(0.0, 12.0)) + 1
            # stay clear of the half-step dead zone at +-omega, where no
            # grid point can satisfy the bound
            r = float(rng.uniform(-0.999, 0.999)) * (omega - 0.5)
            approx = grid_approximate(r, omega)
            assert abs(approx.numerator) < omega ** 2
            assert abs(approx.value - Fraction(r)) <= Fraction(1, 2 * omega)
