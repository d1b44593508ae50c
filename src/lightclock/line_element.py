"""Velocity-dependent line element: derivation chain and velocity maps.

The chain encoded here starts from the isotropic light-clock interval

    dS**2 = (c*dt_s)**2 - dr_s**2                                   (s-frame)

and a linear infinitesimal transformation of moving-frame differentials

    dr_s = (1 - alpha*beta) * dr_m - alpha * dT_m
    dT_s = beta * dr_m + dT_m,          dT_m = c * dt_m,

whose coefficients are fixed by two requirements: the quadratic expansion
of dS**2 must be symmetric under time reversal (the cross term in
dr_m * dT_m vanishes), and a co-moving point (dr_m/dT_m = 0) must be seen
from the s-frame with the forward velocity ratio s = (v + d)/c.  Writing
eta = 1 - s**2 the admissible branch is

    alpha = -s,     beta = s / eta,

and substitution back into the interval gives the dilated form

    dS**2 = lam * (c*dt_m)**2 - (1/lam) * dr_m**2,     lam = eta.

The chain is built from s alone, with no square root, so rational inputs
keep it over exact rationals, which is what
``certify_derivation(..., exact=True)`` exploits to check the identities at
zero tolerance.

The module also carries the substratum velocity map
``w = (c/2) * ln((1 + v**2/c**2) / (1 - v**2/c**2))`` under which composed
velocities add linearly, together with its closed-form inverse.  The
textbook hyperbolic-angle map ``(c/2) * ln((1 + v/c) / (1 - v/c))`` is
exposed separately as ``standard_rapidity`` for comparison only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import FrameError, PoleError, SuperluminalError
from .infinitesimals import DEFAULT_ORDER, TruncatedHyper, st

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class LineElementParams:
    """Velocity parameters (v, d, c) with 0 <= v + d < c < inf.

    The one domain check of the derivation chain; NaN fails it.  ``d`` is
    the secondary velocity term; it is zero everywhere in the decay paths.
    Rational inputs are kept as-is so derived quantities stay exact.
    """

    v: float
    d: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        # negated comparisons, so NaN fails each check it reaches
        if not 0 < self.c < math.inf:
            raise ValueError(f"light speed must be positive and finite, got {self.c}")
        total = self.v + self.d
        if not 0 <= total:
            raise ValueError(f"v + d = {total} is outside 0 <= v + d < c")
        if not total < self.c:
            raise SuperluminalError(f"v + d = {total} >= c = {self.c}")


def lambda_factor(p: LineElementParams):
    """``1 - (v + d)**2 / c**2``, strictly in (0, 1]."""
    ratio = (p.v + p.d) / p.c
    return 1 - ratio * ratio


def gamma_factor(p: LineElementParams) -> float:
    """Square root of the lambda factor; in (0, 1], equal to 1 at rest."""
    return math.sqrt(lambda_factor(p))


@dataclass(frozen=True)
class TransformCoeffs:
    """Coefficients (alpha, beta) of the admissible branch, with their eta."""

    alpha: float
    beta: float
    eta: float


def solve_transform_coeffs(p: LineElementParams) -> TransformCoeffs:
    """Coefficients satisfying the time-symmetry constraint at ``p``.

    With the speed ratio ``s = (v + d)/c``, which is ``sqrt(1 - eta)``
    identically, picks ``alpha = -s``, hence ``beta = s / eta``, which zeroes
    the cross term ``2*(alpha + beta*(1 - alpha**2))``.  Rational parameters
    give exact rational coefficients.
    """
    s = (p.v + p.d) / p.c
    eta = lambda_factor(p)
    return TransformCoeffs(alpha=-s, beta=s / eta, eta=eta)


@dataclass(frozen=True)
class BranchDiagnostic:
    """Outcome of evaluating the sign-flipped square-root branch."""

    alpha: float
    beta: float
    ratio: float
    rejected: bool


def check_rejected_branch(p: LineElementParams) -> BranchDiagnostic:
    """Evaluate the sign-flipped branch ``alpha = +s`` and report its ratio.

    For a co-moving point (dr_m/dT_m = 0) this branch yields
    ``dr_s/dT_s = -s = -(v + d)/c``, which is negative for every forward
    velocity 0 < v + d < c and therefore inconsistent with it.  At rest
    both branches coincide and nothing is rejected.
    """
    admissible = solve_transform_coeffs(p)
    alpha, beta = -admissible.alpha, -admissible.beta
    ratio = -alpha
    return BranchDiagnostic(alpha=alpha, beta=beta, ratio=ratio,
                            rejected=bool(ratio < 0))


def expand_quadratic(alpha, beta):
    """Coefficients of the quadratic expansion of dS**2 in moving-frame terms.

    Returns ``(coef_dT2, coef_cross, coef_dr2)`` multiplying ``dT_m**2``,
    ``dr_m * dT_m`` and ``dr_m**2`` respectively:

        (1 - alpha**2,  2*(alpha + beta*(1 - alpha**2)),
         beta**2 - (1 - alpha*beta)**2)
    """
    one_minus_a2 = 1 - alpha * alpha
    cross = 2 * (alpha + beta * one_minus_a2)
    radial = beta * beta - (1 - alpha * beta) ** 2
    return one_minus_a2, cross, radial


def transform_differentials(coeffs: TransformCoeffs, drm: TruncatedHyper,
                            dTm: TruncatedHyper):
    """Map moving-frame differentials (dr_m, dT_m) to s-frame (dr_s, dT_s).

    With the solved coefficients and ``s = -alpha`` the transformation reads

        dr_s = (1/eta) * dr_m + s * dT_m
        dT_s = (s/eta) * dr_m + dT_m.
    """
    s = -coeffs.alpha
    drs = drm / coeffs.eta + dTm * s
    dTs = drm * (s / coeffs.eta) + dTm
    return drs, dTs


def velocity_ratio(coeffs: TransformCoeffs, drm_over_dTm):
    """s-frame velocity ratio dr_s/dT_s for a given moving-frame ratio.

    ``((1/eta)*x + s) / ((s/eta)*x + 1)`` for ``x = dr_m/dT_m`` and
    ``s = -alpha``; at ``x = 0`` this is ``s = (v + d)/c``.
    """
    s = -coeffs.alpha
    x = drm_over_dTm
    denom = (s / coeffs.eta) * x + 1
    if denom == 0:
        raise PoleError(f"velocity ratio has a pole at dr_m/dT_m = {x}")
    return (x / coeffs.eta + s) / denom


@dataclass(frozen=True)
class Displacement:
    """Pure-infinitesimal displacement (dr, dt) tagged with its frame."""

    dr: TruncatedHyper
    dt: TruncatedHyper
    frame: str

    def __post_init__(self):
        if self.frame not in ("s", "m"):
            raise FrameError(f"frame must be 's' or 'm', got {self.frame!r}")
        if st(self.dr) != 0 or st(self.dt) != 0:
            raise ValueError("displacements must be pure infinitesimals")


def line_element_s(d: Displacement, c) -> TruncatedHyper:
    """Isotropic interval ``dS**2 = (c*dt)**2 - dr**2`` for s-frame data."""
    if d.frame != "s":
        raise FrameError(f"expected an s-frame displacement, got {d.frame!r}")
    if c <= 0:
        raise ValueError(f"light speed must be positive, got {c}")
    d_t = d.dt * c
    return d_t * d_t - d.dr * d.dr


def line_element_m(d: Displacement, p: LineElementParams) -> TruncatedHyper:
    """Dilated interval ``dS**2 = lam*(c*dt)**2 - (1/lam)*dr**2`` for m-frame data."""
    if d.frame != "m":
        raise FrameError(f"expected an m-frame displacement, got {d.frame!r}")
    lam = lambda_factor(p)
    d_t = d.dt * p.c
    return d_t * d_t * lam - (d.dr * d.dr) / lam


def nsppm_velocity(v, c=1.0):
    """Substratum velocity map ``w = (c/2)*ln((1+v**2/c**2)/(1-v**2/c**2))``.

    Even in ``v``, zero at rest, strictly increasing on [0, c) and divergent
    as ``v -> c``.  Composed physical velocities correspond to *adding*
    their w-values.
    """
    if c <= 0:
        raise ValueError(f"light speed must be positive, got {c}")
    if abs(v) >= c:
        raise SuperluminalError(f"|v| = {abs(v)} >= c = {c}")
    u = (v / c) ** 2
    # log1p difference evaluates ln((1+u)/(1-u)) without losing tiny u to
    # the 1+u rounding floor
    return 0.5 * c * (math.log1p(u) - math.log1p(-u))


def standard_rapidity(v, c=1.0):
    """Textbook hyperbolic-angle map ``(c/2)*ln((1+v/c)/(1-v/c))``.

    Provided only as a labelled alternate column for comparison with
    ``nsppm_velocity``; nothing in this package derives from it.
    """
    if c <= 0:
        raise ValueError(f"light speed must be positive, got {c}")
    if abs(v) >= c:
        raise SuperluminalError(f"|v| = {abs(v)} >= c = {c}")
    u = v / c
    return 0.5 * c * math.log((1 + u) / (1 - u))


def invert_nsppm_velocity(w, c=1.0):
    """Inverse of ``nsppm_velocity`` on the nonnegative branch.

    Closed form ``v = c * sqrt(tanh(w / c))``, since
    ``(1 + v**2/c**2) / (1 - v**2/c**2) = exp(2*w/c)``.  Negative or NaN
    ``w`` is rejected, and so is any ``w`` whose ``tanh(w / c)`` rounds to 1
    (above about ``w = 19.06 * c``), where ``v`` would reach ``c``.
    """
    if c <= 0:
        raise ValueError(f"light speed must be positive, got {c}")
    if not w >= 0:
        raise ValueError(f"w must be a nonnegative number, got {w}")
    u = math.tanh(w / c)
    if u == 1.0:
        raise ValueError(f"w = {w} beyond the invertible range at c = {c}")
    return c * math.sqrt(u)


def compose_velocities_additive_w(v1, v2, c=1.0):
    """Compose two velocities by adding their substratum w-values.

    Returns ``w_inverse(w(v1) + w(v2))`` on the nonnegative branch (the map
    is even in its argument, so the result is the composed speed).
    """
    total = nsppm_velocity(v1, c) + nsppm_velocity(v2, c)
    return invert_nsppm_velocity(total, c)


def _json_value(value):
    """A report field as JSON data: Fraction to float, tuple to float list."""
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, tuple):
        return [float(x) for x in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def report_dict(report, **renames) -> dict:
    """Every field of a report dataclass, in order, keyed by name or rename."""
    return {renames.get(f.name, f.name): _json_value(getattr(report, f.name))
            for f in fields(report)}


def _relative_error(a, b) -> float:
    if a == b:
        return 0.0
    return float(abs(a - b) / max(abs(a), abs(b)))


@dataclass(frozen=True)
class CertificationReport:
    """Machine-checkable record of the full derivation chain at (v, d, c).

    ``lhs_eps2`` is the eps**2 coefficient of the isotropic interval
    evaluated on transformed differentials; ``rhs_eps2`` is the same
    coefficient from the dilated interval directly.  In exact mode every
    check is an equality over rationals and ``eps2_rel_error`` is exactly 0.
    """

    v: float
    d: float
    c: float
    exact: bool
    order: int
    eta: float
    alpha: float
    beta: float
    coef_time: float
    coef_cross: float
    coef_radial: float
    lhs_coeffs: tuple
    rhs_coeffs: tuple
    lhs_eps2: float
    rhs_eps2: float
    eps2_rel_error: float
    rejected_branch_ratio: float
    checks: dict
    passed: bool

    def as_dict(self) -> dict:
        return report_dict(self)


def certify_derivation(v, d=0, c=1, order: int = DEFAULT_ORDER,
                       exact: bool = False,
                       tol: float = IDENTITY_TOL) -> CertificationReport:
    """Run every identity of the derivation chain at one parameter point.

    Checks performed:

    * the cross term of the quadratic expansion vanishes;
    * the time and radial coefficients equal ``eta`` and ``-1/eta``;
    * the transformed isotropic interval equals the dilated interval on a
      probe displacement (dr_m, dt_m) = (eps, 2*eps);
    * a co-moving point is seen with velocity ratio ``(v + d)/c``;
    * the sign-flipped branch is inconsistent (negative ratio) for
      ``(v + d)/c > 0``.

    In ``exact`` mode the inputs are converted to ``Fraction`` and every
    check is a zero-tolerance rational equality; the coefficients are built
    from the speed ratio ``(v + d)/c``, so the whole chain stays rational.
    """
    if order < 2:
        raise ValueError(f"truncation order must be at least 2, got {order}")
    if exact:
        v, d, c = Fraction(v), Fraction(d), Fraction(c)
        one = Fraction(1)
        tol = 0.0
    else:
        v, d, c = float(v), float(d), float(c)
        one = 1.0

    p = LineElementParams(v=v, d=d, c=c)
    coeffs = solve_transform_coeffs(p)
    eta = coeffs.eta
    coef_time, coef_cross, coef_radial = expand_quadratic(coeffs.alpha, coeffs.beta)

    drm = TruncatedHyper.infinitesimal(one, order=order)
    dtm = TruncatedHyper.infinitesimal(one + one, order=order)
    drs, dTs = transform_differentials(coeffs, drm, dtm * c)
    lhs = line_element_s(Displacement(dr=drs, dt=dTs / c, frame="s"), c)
    rhs = line_element_m(Displacement(dr=drm, dt=dtm, frame="m"), p)
    lhs_eps2 = lhs.coeffs[2]
    rhs_eps2 = rhs.coeffs[2]
    eps2_rel_error = _relative_error(lhs_eps2, rhs_eps2)

    branch = check_rejected_branch(p)
    recovered = velocity_ratio(coeffs, 0 * one)

    checks = {
        "cross_term_zero": bool(abs(coef_cross) <= tol),
        "time_coefficient_is_eta": _relative_error(coef_time, eta) <= tol,
        "radial_coefficient_is_neg_inverse_eta":
            _relative_error(coef_radial, -1 / eta) <= tol,
        "line_elements_match": eps2_rel_error <= tol,
        "velocity_ratio_recovered":
            _relative_error(recovered, (v + d) / c) <= tol,
        # keyed on s = -alpha > 0, not on eta < 1: in floats eta rounds to 1
        # once s is below about 1e-8, and s can underflow to 0 while v + d > 0
        "rejected_branch_inconsistent":
            branch.rejected if coeffs.alpha < 0 else branch.ratio == 0,
    }
    if exact:
        try:  # as_dict makes these floats, and they bound every other field
            list(map(float, (v, d, c, coef_radial, lhs_eps2, rhs_eps2)))
        except OverflowError:
            raise ValueError(f"the exact report at v = {v}, d = {d}, c = {c} "
                             "is beyond the float range") from None
    return CertificationReport(
        v=v, d=d, c=c, exact=exact, order=order,
        eta=eta, alpha=coeffs.alpha, beta=coeffs.beta,
        coef_time=coef_time, coef_cross=coef_cross, coef_radial=coef_radial,
        lhs_coeffs=lhs.coeffs, rhs_coeffs=rhs.coeffs,
        lhs_eps2=lhs_eps2, rhs_eps2=rhs_eps2, eps2_rel_error=eps2_rel_error,
        rejected_branch_ratio=branch.ratio,
        checks=checks, passed=all(checks.values()),
    )
