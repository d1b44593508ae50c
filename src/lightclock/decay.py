"""Exponential decay: analytic law, operator checks, dilation, ensembles.

The population law is ``N(t) = N0 * exp(-t / tau)``, the unique solution of
``(-tau) * dN/dt = N`` with ``N(0) = N0``.  A separable field
``T(r, t) = h(r) * N(t)`` with unit spatial factor satisfies the operator
equation ``D(T) = k * dT/dt`` where ``D`` acts as the identity through the
spatial factor and ``k = -tau``; ``operator_check`` verifies this with
finite differences and doubles as a negative control for non-unit spatial
factors.

For a source moving with line-element parameters ``p`` the mean lifetime
measured at rest dilates to ``tau_m = tau_s / gamma`` with
``gamma = sqrt(lam) <= 1``.  ``compare_frames`` confirms the dilation on
seeded Monte Carlo ensembles: lifetimes are inverse-CDF draws
``-tau * ln(1 - U)`` from a counter-based uniform stream (Philox keyed by
the seed, sample index = stream position) that fill threads, capped at the
CPU count, write into one buffer, so a run is bit-identical for a fixed
(tau, samples, seed) whatever the number of workers.

Only the ensemble fill imports numpy and the thread pool, on first call, so
importing lightclock and the derive, radar and velmap commands never load
them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .line_element import LineElementParams, gamma_factor, lambda_factor, report_dict

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TAU_BOUND = 1e15
FD_STEP_FACTOR = 1e-4
OPERATOR_TOL = 1e-8

# Philox emits 4 64-bit words per counter increment; span boundaries must
# sit on whole counter blocks for splitting to be bitwise transparent.
_PHILOX_BLOCK = 4
_SEED_LIMIT = 2 ** 64
# Odd 64-bit constant used to derive the moving-frame stream key from the
# user seed, so the two ensembles in compare_frames are independent.
_FRAME_KEY_SALT = 0x9E3779B97F4A7C15
# bytes of one float64 lifetime in the ensemble buffer
_SAMPLE_BYTES = 8


@dataclass(frozen=True)
class DecayModel:
    """Exponentially decaying population with mean lifetime ``tau``.

    ``tau`` must lie in (0, tau_bound]; the bound is a sanity guard, not a
    physical constant.
    """

    n0: float
    tau: float
    frame: str = "s"
    tau_bound: float = DEFAULT_TAU_BOUND

    def __post_init__(self):
        # negated comparisons, so NaN fails each check it reaches
        if not 0 < self.n0 < math.inf:
            raise ValueError(f"initial population must be positive and finite, got {self.n0}")
        if not 0 < self.tau <= self.tau_bound:
            raise ValueError(
                f"mean lifetime must lie in (0, {self.tau_bound}], got {self.tau}"
            )
        if self.frame not in ("s", "m"):
            raise ValueError(f"frame must be 's' or 'm', got {self.frame!r}")


def population(model: DecayModel, t: float) -> float:
    """Population ``N0 * exp(-t / tau)`` at time t >= 0."""
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return model.n0 * math.exp(-t / model.tau)


def _ddt_central(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def _ddt_forward(f, t: float, h: float) -> float:
    # first order; keeps evaluation inside t >= 0
    return (f(t + h) - f(t)) / h


def _ddt_forward3(f, t: float, h: float) -> float:
    # second order, one-sided: (-3f + 4f(+h) - f(+2h)) / 2h
    return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2.0 * h)) / (2.0 * h)


def ode_residual(model: DecayModel, t: float, step: float) -> float:
    """Residual ``N(t) + tau * dN/dt`` with a finite-difference derivative.

    Central differences give an O(step**2) residual; at the t = 0 boundary
    a one-sided first-order difference is used instead, so the residual is
    only O(step) there.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    f = lambda x: population(model, x)
    if t >= step:
        deriv = _ddt_central(f, t, step)
    else:
        deriv = _ddt_forward(f, t, step)
    return population(model, t) + model.tau * deriv


@dataclass(frozen=True)
class SeparableSolution:
    """Separable field ``T(r, t) = h(r) * N(t)`` with operator constant k.

    ``spatial_coeffs`` are polynomial coefficients of h by power of r.  A
    valid solution has a spatial factor that is identically 1 and
    ``k = -tau``; other spatial factors are accepted so they can serve as
    negative controls in ``operator_check``.
    """

    spatial_coeffs: tuple
    temporal: DecayModel
    k: float

    @classmethod
    def canonical(cls, model: DecayModel) -> "SeparableSolution":
        """The admissible solution: h(r) = 0*r**2 + 1 and k = -tau."""
        return cls(spatial_coeffs=(1.0, 0.0, 0.0), temporal=model, k=-model.tau)

    def spatial(self, r: float) -> float:
        return sum(c * r ** i for i, c in enumerate(self.spatial_coeffs))

    def field(self, r: float, t: float) -> float:
        return self.spatial(r) * population(self.temporal, t)


def operator_check(sol: SeparableSolution, r: float, t: float,
                   step: float | None = None, tol: float = OPERATOR_TOL) -> bool:
    """Check ``D(T) = k * dT/dt`` at one probe point.

    The operator image is taken through the solution's defining unit
    spatial factor, ``D(T) = 1 * N(t)``, while the time derivative is taken
    on the actual field ``h(r) * N(t)`` by finite differences (second-order
    one-sided at the t = 0 boundary).  A solution whose spatial factor is
    not identically 1 therefore fails away from the roots of ``h(r) = 1``.
    The absolute tolerance assumes populations of order unity.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    h = step if step is not None else FD_STEP_FACTOR * sol.temporal.tau
    f = lambda x: sol.field(r, x)
    if t >= h:
        deriv = _ddt_central(f, t, h)
    else:
        deriv = _ddt_forward3(f, t, h)
    operator_image = population(sol.temporal, t)
    return abs(operator_image - sol.k * deriv) <= tol


def dilated_lifetime(tau_s: float, p: LineElementParams) -> float:
    """Moving-frame mean lifetime ``tau_s / gamma``; never below ``tau_s``."""
    if not 0 < tau_s < math.inf:
        raise ValueError(f"rest lifetime must be positive and finite, got {tau_s}")
    if p.d != 0:
        raise ValueError("decay dilation requires d = 0")
    return tau_s / gamma_factor(p)


def chain_rule_check(tau_s: float, p: LineElementParams, t_probe: float,
                     n0: float = 1.0, tau_m: float | None = None,
                     step: float | None = None, tol: float = 1e-8) -> bool:
    """Verify the frame-transfer identity behind the dilation.

    With ``t_m = t_s / gamma`` and the moving-frame population
    ``Nbar(t_m) = n0 * exp(-t_m / tau_m)``, the rest-frame law transfers to

        N(t_s) = (-tau_s / gamma) * dNbar/dt_m,

    which holds exactly when ``tau_m = tau_s / gamma``.  The derivative is
    finite-difference, the comparison relative.  Passing an explicit
    ``tau_m`` (e.g. ``tau_s * gamma``) turns this into a negative control.
    """
    tau_dilated = dilated_lifetime(tau_s, p)  # rejects tau_s <= 0 and d != 0
    if t_probe < 0:
        raise ValueError(f"probe time must be nonnegative, got {t_probe}")
    gamma = gamma_factor(p)
    if tau_m is None:
        tau_m = tau_dilated
    t_m = t_probe / gamma
    h = step if step is not None else FD_STEP_FACTOR * tau_m
    nbar = lambda x: n0 * math.exp(-x / tau_m)
    if t_m >= h:
        deriv = _ddt_central(nbar, t_m, h)
    else:
        deriv = _ddt_forward3(nbar, t_m, h)
    lhs = n0 * math.exp(-t_probe / tau_s)
    rhs = (-tau_s / gamma) * deriv
    return abs(lhs - rhs) <= tol * abs(lhs)


def _physical_memory_bytes() -> int | None:
    """Physical memory of the host, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _keyed_lifetimes(tau: float, seed: int, n: int, workers: int) -> np.ndarray:
    """Lifetimes ``-tau * ln(1 - U_i)``, U_i word i of the Philox stream of seed.

    Up to ``min(workers, cpu_count)`` threads fill spans of one buffer that
    start on Philox counter blocks, so the result is bitwise independent of
    ``workers``; the transform then runs in place.
    """
    # imported here, the one place that needs them, to keep them off the
    # start-up path of every other command
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    out = np.empty(n, dtype=np.float64)
    threads = min(workers, os.cpu_count() or 1)
    span = _PHILOX_BLOCK * -(-n // (threads * _PHILOX_BLOCK))

    def fill(start):
        bg = np.random.Philox(key=seed)
        bg.advance(start // _PHILOX_BLOCK)
        np.random.Generator(bg).random(out=out[start:start + span])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, range(0, n, span)))
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out *= -tau
    return out


@dataclass(frozen=True, eq=False)
class EnsembleRun:
    """One seeded ensemble of exponential lifetimes and its estimates."""

    sample_count: int
    seed: int
    lifetimes: np.ndarray
    tau_hat: float
    stderr: float


def run_ensemble(tau: float, sample_count: int, seed: int,
                 workers: int = 1) -> EnsembleRun:
    """Draw ``sample_count`` exponential lifetimes with mean ``tau``.

    Lifetimes are ``-tau * ln(1 - U_i)`` with ``U_i`` from the keyed
    counter-based stream; the estimator is the sample mean (numpy's
    pairwise summation) with standard error ``tau_hat / sqrt(M)``.  Results
    are bit-identical for fixed (tau, sample_count, seed) regardless of
    ``workers``.  An ensemble whose buffer would exceed physical memory is
    rejected before anything is allocated.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"mean lifetime must be positive and finite, got {tau}")
    if sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # refused before allocation: where memory is overcommitted, np.empty of
    # this size would succeed and the fill would exhaust the host
    needed = _SAMPLE_BYTES * sample_count
    physical = _physical_memory_bytes()
    if physical is not None and needed > physical:
        raise ValueError(f"{sample_count} samples need {needed} bytes, more than "
                         f"the {physical} bytes of physical memory")
    lifetimes = _keyed_lifetimes(tau, seed, sample_count, workers)
    tau_hat = float(lifetimes.mean())
    return EnsembleRun(
        sample_count=sample_count,
        seed=seed,
        lifetimes=lifetimes,
        tau_hat=tau_hat,
        stderr=tau_hat / math.sqrt(sample_count),
    )


@dataclass(frozen=True)
class FrameComparison:
    """Rest- vs moving-frame ensemble estimates and the dilation z-score."""

    tau_s: float
    v: float
    c: float
    lam: float
    gamma: float
    tau_m_analytic: float
    tau_hat_s: float
    tau_hat_m: float
    ratio: float
    z_score: float
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return report_dict(self, lam="lambda")


def compare_frames(tau_s: float, p: LineElementParams, sample_count: int,
                   seed: int, workers: int = 1) -> FrameComparison:
    """Estimate the lifetime dilation ratio from two seeded ensembles.

    The rest-frame ensemble uses the given seed; the moving-frame ensemble
    uses a salted key derived from it, so the two streams are independent
    and the z-score of ``ratio - 1/gamma`` is meaningful.  The combined
    standard error of the ratio uses the 1/sqrt(M) relative error of each
    sample mean.  A mean that underflows to 0 is rejected.
    """
    gamma = gamma_factor(p)
    tau_m = dilated_lifetime(tau_s, p)
    # keeping only the means frees each ensemble's lifetimes before the next
    tau_hat_s = run_ensemble(tau_s, sample_count, seed, workers).tau_hat
    tau_hat_m = run_ensemble(tau_m, sample_count, seed ^ _FRAME_KEY_SALT, workers).tau_hat
    if tau_hat_s == 0 or tau_hat_m == 0:
        raise ValueError(f"tau_s={tau_s} is too small: an ensemble mean underflowed to 0")
    ratio = tau_hat_m / tau_hat_s
    expected = 1.0 / gamma
    sigma = ratio * math.sqrt(2.0 / sample_count)
    return FrameComparison(
        tau_s=tau_s, v=p.v, c=p.c,
        lam=lambda_factor(p), gamma=gamma, tau_m_analytic=tau_m,
        tau_hat_s=tau_hat_s, tau_hat_m=tau_hat_m,
        ratio=ratio, z_score=(ratio - expected) / sigma,
        samples=sample_count, seed=seed,
    )
