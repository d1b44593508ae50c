"""Exponential decay: analytic law, operator checks, dilation, ensembles.

The population law is ``N(t) = N0 * exp(-t / tau)``, the unique solution of
``(-tau) * dN/dt = N`` with ``N(0) = N0``.  A separable field
``T(r, t) = h(r) * N(t)`` with unit spatial factor satisfies the operator
equation ``D(T) = k * dT/dt`` where ``D`` acts as the identity through the
spatial factor and ``k = -tau``; ``operator_check`` verifies this with
the closed-form derivative ``dN/dt = -N / tau`` and doubles as a negative
control for non-unit spatial factors.

For a source moving with line-element parameters ``p`` the mean lifetime
measured at rest dilates to ``tau_m = tau_s / gamma`` with
``gamma = sqrt(lam) <= 1``.  ``compare_frames`` confirms the dilation on
seeded Monte Carlo ensembles: lifetimes are inverse-CDF draws
``-tau * ln(1 - U)`` from a counter-based uniform stream (Philox keyed by
the seed, sample index = stream position), streamed in blocks of at most
``BLOCK`` samples, the leaves of numpy's pairwise summation tree.  Both
frames' subtrees go into one task list; the calling thread and plain
``threading.Thread``s, capped at the CPU count and the task count, take
them in turn, draw each from one generator and hold one block at a time,
so memory is O(threads * 1 MiB) and a run is bit-identical for a fixed
(tau, samples, seed) whatever the number of workers.

Only the ensemble engine imports numpy, when it draws, so importing
lightclock and the derive, radar and velmap commands never load it.
"""

from __future__ import annotations

import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import BLOCK, MAX_SAMPLES, Record, check_positive
from .line_element import LineElementParams, gamma_factor, lambda_factor

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TAU_BOUND = 1e15
# Philox emits 4 64-bit words per counter increment; task starts must sit
# on whole counter blocks for Philox.advance to land on them.
_PHILOX_BLOCK = 4
_SEED_LIMIT = 2 ** 64
# Odd 64-bit constant used to derive the moving-frame stream key from the
# user seed, so the two ensembles in compare_frames are independent.
_FRAME_KEY_SALT = 0x9E3779B97F4A7C15


def _check_rest_lifetime(tau_s: float) -> None:
    """The one rest-lifetime rule: ``tau_s`` is a normal float (a subnormal
    keeps too few bits to be divided by gamma) of at most
    ``DEFAULT_TAU_BOUND``, a sanity guard, not a physical constant.  Negated,
    so NaN fails it."""
    if not sys.float_info.min <= tau_s <= DEFAULT_TAU_BOUND:
        raise ValueError(f"rest lifetime must be positive and finite, at least "
                         f"{sys.float_info.min!r} and at most {DEFAULT_TAU_BOUND:g}, "
                         f"got {tau_s}")


class DecayModel(Record):
    """Exponentially decaying population ``n0`` with mean lifetime ``tau``.

    ``n0`` must be positive and finite and ``tau`` a rest lifetime as
    ``_check_rest_lifetime`` accepts it.
    """

    n0: float
    tau: float

    def __post_init__(self):
        check_positive("initial population", self.n0)
        _check_rest_lifetime(self.tau)


def population(model: DecayModel, t: float) -> float:
    """Population ``N0 * exp(-t / tau)`` at time t >= 0."""
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return model.n0 * math.exp(-t / model.tau)


def _ddt_forward(f, t: float, h: float) -> float:
    # first order; keeps evaluation inside t >= 0
    return (f(t + h) - f(t)) / h


def _ddt(f, t: float, h: float) -> float:
    """df/dt at t >= 0 by central differences, or forward ones within h of 0."""
    check_positive("step", h)
    return (f(t + h) - f(t - h)) / (2.0 * h) if t >= h else _ddt_forward(f, t, h)


def _probe_population(n: float, t: float) -> float:
    """N(t) at the finite probe t >= 0 of a check.  Where N(t) is zero or
    subnormal, the identity rounds to 0 = 0 or is divided by noise, so such
    a probe is rejected.  The guards are negated, so NaN fails them."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if not abs(n) >= sys.float_info.min:
        raise ValueError(f"population must be a normal float at the probe, "
                         f"got N({t}) = {n!r}")
    return n


def _close(a: float, b: float, x: float) -> bool:
    """``a == b`` within 8 ulps, widened by ``|x|``, the condition number of
    ``exp`` at x (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed.)."""
    return abs(a - b) <= 8.0 * sys.float_info.epsilon * (1.0 + abs(x)) * abs(a)


def ode_residual(model: DecayModel, t: float, step: float) -> float:
    """Residual ``N(t) + tau * dN/dt`` with a finite-difference derivative.

    Central differences give an O(step**2) residual; at the t = 0 boundary
    a one-sided first-order difference is used instead, so the residual is
    only O(step) there.
    """
    n = _probe_population(population(model, t), t)
    return n + model.tau * _ddt(lambda x: population(model, x), t, step)


class SeparableSolution(Record):
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


def operator_check(sol: SeparableSolution, r: float, t: float) -> bool:
    """Check ``D(T) = k * dT/dt`` at one probe point.

    The operator image is taken through the solution's defining unit
    spatial factor, ``D(T) = 1 * N(t)``, while the time derivative is taken
    on the actual field, ``h(r) * dN/dt = -h(r) * N(t) / tau``.  Divided by
    the normal ``N(t)``, the identity reads ``k * h(r) = -tau``, checked to
    8 ulps, so it is as strict for a tiny population as for a huge one.  A
    solution whose spatial factor is not identically 1 therefore fails away
    from the roots of ``h(r) = 1``.
    """
    _probe_population(population(sol.temporal, t), t)
    return _close(-sol.temporal.tau, sol.k * sol.spatial(r), 0.0)


def dilated_lifetime(tau_s: float, p: LineElementParams) -> float:
    """Moving-frame mean lifetime ``tau_s / gamma``; never below ``tau_s``.
    ``tau_s`` must pass ``_check_rest_lifetime``, so the quotient is finite:
    a float speed ratio below 1 keeps ``gamma >= 2**-26``."""
    _check_rest_lifetime(tau_s)
    if p.d != 0:
        raise ValueError("decay dilation requires d = 0")
    return tau_s / gamma_factor(p)


def chain_rule_check(tau_s: float, p: LineElementParams, t_probe: float,
                     tau_m: float | None = None) -> bool:
    """Verify the frame-transfer identity behind the dilation.

    With ``t_m = t_s / gamma`` and the moving-frame population
    ``Nbar(t_m) = exp(-t_m / tau_m)``, the rest-frame law transfers to

        N(t_s) = (-tau_s / gamma) * dNbar/dt_m,

    which holds exactly when ``tau_m = tau_s / gamma``.  With the exact
    ``dNbar/dt_m = -Nbar / tau_m`` it splits into the value transfer
    ``N(t_s) = Nbar(t_m)``, within exp's condition number ``t_s / tau_s``,
    and, divided by ``N(t_s)``, ``gamma * tau_m = tau_s`` to 8 ulps, which
    sees a wrong ``tau_m`` at every probe.  Passing an explicit ``tau_m``
    (e.g. ``tau_s * gamma``) turns this into a negative control.
    """
    tau_dilated = dilated_lifetime(tau_s, p)  # rejects a bad tau_s and d != 0
    gamma = gamma_factor(p)
    tau_m = tau_dilated if tau_m is None else tau_m
    check_positive("tau_m", tau_m)
    n = _probe_population(math.exp(-t_probe / tau_s), t_probe)
    # t_m / tau_m, dividing by tau_m first, so it stays finite where tau_m >= tau_s
    return (_close(n, math.exp(-(t_probe / tau_m) / gamma), t_probe / tau_s)
            and _close(tau_s, gamma * tau_m, 0.0))


def _pairwise(lo: int, n: int, leaf, node: int = 0):
    """numpy's pairwise sum of items [lo, lo + n), ``leaf(start, size)`` per
    node of at most ``max(node, BLOCK)`` items.

    numpy halves a contiguous float64 array at ``n//2 - (n//2) % 8``, so the
    same split down to ``BLOCK`` items gives ``np.sum`` of it bit for bit,
    and every leaf starts on a multiple of 8, a Philox counter block.  A
    larger ``node`` stops the split at subtrees: summed on their own and
    added through the same top, they give the same bits.
    """
    if n <= max(node, BLOCK):
        return leaf(lo, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, half, leaf, node) + _pairwise(lo + half, n - half, leaf, node)


def _leaf_lifetimes(tau: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """The next ``size`` lifetimes ``-tau * ln(1 - U)`` drawn from gen."""
    import numpy as np

    out = gen.random(size)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out *= -tau
    return out


def _keyed_sums(streams: list[tuple[float, int]], n: int, workers: int) -> list[float]:
    """Sum of the first n lifetimes of each ``(tau, seed)`` stream, each as
    ``np.sum`` of all of them gives.

    Every stream is cut into the same subtree tasks, about 8 per thread,
    each drawing its leaves in order from one Philox advanced to its first
    sample.  All tasks go into one list, handed out under a lock, so no
    thread idles while another stream still has work.  ``min(workers,
    cpu_count, tasks)`` threads run them, the caller among them; the first
    error any thread hits is raised once all have stopped.  Each stream's
    task sums go back through the same ``_pairwise`` top.
    """
    # imported here, to keep numpy off the start-up path of every other command
    import threading

    import numpy as np

    cpus = min(workers, os.cpu_count() or 1)
    node = n // (8 * cpus)
    spans = _pairwise(0, n, lambda lo, size: [(lo, size)], node)
    tasks = [(tau, seed, lo, size) for tau, seed in streams for lo, size in spans]
    sums = [None] * len(tasks)
    todo, lock, failures = iter(enumerate(tasks)), threading.Lock(), []

    def run_tasks():
        try:
            while not failures:
                with lock:
                    task = next(todo, None)
                if task is None:
                    return
                i, (tau, seed, lo, size) = task
                philox = np.random.Philox(key=seed).advance(lo // _PHILOX_BLOCK)
                gen = np.random.Generator(philox)
                sums[i] = _pairwise(lo, size, lambda _, leaf: float(
                    _leaf_lifetimes(tau, gen, leaf).sum(initial=0.0)))
        except BaseException as exc:  # raised again by the caller, after the join
            failures.append(exc)

    threads = [threading.Thread(target=run_tasks)
               for _ in range(min(cpus, len(tasks)) - 1)]
    for thread in threads:
        thread.start()
    run_tasks()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    task_sums = iter(sums)  # each stream's top takes its own tasks' sums, in order
    return [_pairwise(0, n, lambda lo, size: next(task_sums), node) for _ in streams]


class EnsembleRun(Record):
    """One seeded ensemble of exponential lifetimes and its estimates."""

    sample_count: int
    seed: int
    tau_hat: float
    stderr: float


def _check_ensemble(tau: float, sample_count: int, seed: int, workers: int) -> None:
    _check_rest_lifetime(tau)
    if not 1 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in 1..{MAX_SAMPLES}, got {sample_count}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def run_ensemble(tau: float, sample_count: int, seed: int,
                 workers: int = 1) -> EnsembleRun:
    """Draw ``sample_count`` exponential lifetimes with mean ``tau``.

    Lifetimes are ``-tau * ln(1 - U_i)`` with ``U_i`` from the keyed
    counter-based stream; the estimator is their ``np.mean``, bit for bit,
    with standard error ``tau_hat / sqrt(M)``.  Results are bit-identical
    for fixed (tau, sample_count, seed) regardless of ``workers``.  At most
    ``MAX_SAMPLES`` lifetimes are drawn, and ``tau`` is a rest lifetime.
    """
    _check_ensemble(tau, sample_count, seed, workers)
    tau_hat = _keyed_sums([(tau, seed)], sample_count, workers)[0] / sample_count
    return EnsembleRun(
        sample_count=sample_count,
        seed=seed,
        tau_hat=tau_hat,
        stderr=tau_hat / math.sqrt(sample_count),
    )


class FrameComparison(Record):
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

    _renames = {"lam": "lambda"}


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
    # the moving frame passes the same checks: tau_m is a dilated rest
    # lifetime, and the salt keeps a valid seed's key below 2**64
    tau_m = dilated_lifetime(tau_s, p)
    _check_ensemble(tau_s, sample_count, seed, workers)
    key_m = seed ^ _FRAME_KEY_SALT
    sum_s, sum_m = _keyed_sums([(tau_s, seed), (tau_m, key_m)], sample_count, workers)
    tau_hat_s, tau_hat_m = sum_s / sample_count, sum_m / sample_count
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
