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
the seed, sample index = stream position), streamed in blocks of at most
``BLOCK`` samples, the leaves of numpy's pairwise summation tree.  Threads,
capped at the CPU count and the block count, each hold one block at a time,
so memory is O(threads * 8 MiB) and a run is bit-identical for a fixed
(tau, samples, seed) whatever the number of workers.

Only the ensemble engine imports numpy, and the thread pool only when more
than one thread runs, so importing lightclock and the derive, radar and
velmap commands never load them.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .line_element import LineElementParams, gamma_factor, lambda_factor, report_dict

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TAU_BOUND = 1e15
FD_STEP_FACTOR = 1e-4
OPERATOR_TOL = 1e-8

# Largest ensemble run_ensemble draws, the same on every host whatever its
# memory: about 8.5 s per ensemble at two threads on a 2-CPU Xeon.
MAX_SAMPLES = 10 ** 9
# Leaf size of the streaming sum, in samples: a thread holds one leaf of
# 8 * BLOCK bytes at a time, so memory is O(threads * 8 MiB) for any M.
BLOCK = 2 ** 20
# Philox emits 4 64-bit words per counter increment; leaf starts must sit
# on whole counter blocks for Philox.advance to land on them.
_PHILOX_BLOCK = 4
_SEED_LIMIT = 2 ** 64
# Odd 64-bit constant used to derive the moving-frame stream key from the
# user seed, so the two ensembles in compare_frames are independent.
_FRAME_KEY_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DecayModel:
    """Exponentially decaying population ``n0`` with mean lifetime ``tau``.

    ``n0`` must be positive and finite and ``tau`` lie in
    (0, DEFAULT_TAU_BOUND]; the bound is a sanity guard, not a physical
    constant.
    """

    n0: float
    tau: float

    def __post_init__(self):
        # negated comparisons, so NaN fails each check it reaches
        if not 0 < self.n0 < math.inf:
            raise ValueError(f"initial population must be positive and finite, got {self.n0}")
        if not 0 < self.tau <= DEFAULT_TAU_BOUND:
            raise ValueError(
                f"mean lifetime must lie in (0, {DEFAULT_TAU_BOUND}], got {self.tau}"
            )


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


def _ddt(f, t: float, h: float, boundary) -> float:
    """df/dt at finite t >= 0 by central differences, or ``boundary`` within
    h of 0.

    The guard of time and step in the finite-difference checks; negated, so
    NaN fails it.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if not 0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h}")
    return _ddt_central(f, t, h) if t >= h else boundary(f, t, h)


def _probe_population(n: float, t: float) -> float:
    """N(t) at the probe of a check.  Where N(t) is zero or subnormal, both
    sides of the check round to about 0 and it could not fail, so such a
    probe is rejected."""
    if not abs(n) >= sys.float_info.min:
        raise ValueError(f"population must be a normal float at the probe, "
                         f"got N({t}) = {n!r}")
    return n


def ode_residual(model: DecayModel, t: float, step: float) -> float:
    """Residual ``N(t) + tau * dN/dt`` with a finite-difference derivative.

    Central differences give an O(step**2) residual; at the t = 0 boundary
    a one-sided first-order difference is used instead, so the residual is
    only O(step) there.
    """
    deriv = _ddt(lambda x: population(model, x), t, step, _ddt_forward)
    return _probe_population(population(model, t), t) + model.tau * deriv


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
    The tolerance is relative to ``|N(t)|``, so the check is as strict for
    a tiny population as for one of order unity.
    """
    h = step if step is not None else FD_STEP_FACTOR * sol.temporal.tau
    deriv = _ddt(lambda x: sol.field(r, x), t, h, _ddt_forward3)
    operator_image = _probe_population(population(sol.temporal, t), t)
    return abs(operator_image - sol.k * deriv) <= tol * abs(operator_image)


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
    A negative or NaN probe is reported as its moving-frame time ``t_m``.
    """
    tau_dilated = dilated_lifetime(tau_s, p)  # rejects tau_s <= 0 and d != 0
    gamma = gamma_factor(p)
    if tau_m is None:
        tau_m = tau_dilated
    h = step if step is not None else FD_STEP_FACTOR * tau_m
    nbar = lambda x: n0 * math.exp(-x / tau_m)
    deriv = _ddt(nbar, t_probe / gamma, h, _ddt_forward3)
    lhs = _probe_population(n0 * math.exp(-t_probe / tau_s), t_probe)
    rhs = (-tau_s / gamma) * deriv
    return abs(lhs - rhs) <= tol * abs(lhs)


def _pairwise(lo: int, n: int, leaf):
    """numpy's pairwise sum of items [lo, lo + n), ``leaf(start, size)`` per leaf.

    numpy halves a contiguous float64 array at ``n//2 - (n//2) % 8``, so the
    same split down to ``BLOCK`` items gives ``np.sum`` of it bit for bit,
    and every leaf starts on a multiple of 8, a Philox counter block.
    """
    if n <= BLOCK:
        return leaf(lo, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, half, leaf) + _pairwise(lo + half, n - half, leaf)


def _leaf_lifetimes(tau: float, seed: int, start: int, size: int) -> np.ndarray:
    """Lifetimes ``-tau * ln(1 - U_i)`` for i in [start, start + size).

    ``U_i`` is word i of the Philox stream keyed by seed; ``start`` must be
    a multiple of 4, the words of one counter block.
    """
    # imported here, to keep numpy off the start-up path of every other command
    import numpy as np

    bg = np.random.Philox(key=seed)
    bg.advance(start // _PHILOX_BLOCK)
    out = np.random.Generator(bg).random(size)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out *= -tau
    return out


def _keyed_sum(tau: float, seed: int, n: int, workers: int) -> float:
    """Sum of the first n lifetimes of the stream, as ``np.sum`` of all gives.

    ``min(workers, leaves, cpu_count)`` threads, and no pool for one.
    """
    def leaf_sum(lo, size):
        return float(_leaf_lifetimes(tau, seed, lo, size).sum(initial=0.0))

    leaves = _pairwise(0, n, lambda lo, size: [(lo, size)])
    threads = min(workers, len(leaves), os.cpu_count() or 1)
    if threads == 1:
        return _pairwise(0, n, leaf_sum)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        sums = dict(zip(leaves, pool.map(lambda leaf: leaf_sum(*leaf), leaves)))
    return _pairwise(0, n, lambda lo, size: sums[lo, size])


@dataclass(frozen=True)
class EnsembleRun:
    """One seeded ensemble of exponential lifetimes and its estimates."""

    sample_count: int
    seed: int
    tau_hat: float
    stderr: float


def run_ensemble(tau: float, sample_count: int, seed: int,
                 workers: int = 1) -> EnsembleRun:
    """Draw ``sample_count`` exponential lifetimes with mean ``tau``.

    Lifetimes are ``-tau * ln(1 - U_i)`` with ``U_i`` from the keyed
    counter-based stream; the estimator is their ``np.mean``, bit for bit,
    with standard error ``tau_hat / sqrt(M)``.  Results are bit-identical
    for fixed (tau, sample_count, seed) regardless of ``workers``.  At most
    ``MAX_SAMPLES`` lifetimes are drawn.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"mean lifetime must be positive and finite, got {tau}")
    if not 1 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in 1..{MAX_SAMPLES}, got {sample_count}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tau_hat = _keyed_sum(tau, seed, sample_count, workers) / sample_count
    return EnsembleRun(
        sample_count=sample_count,
        seed=seed,
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
