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

The chain is built from s and c alone, with no square root, so rational
inputs keep it over exact rationals, where ``certify_derivation(...,
exact=True)`` checks the identities at zero tolerance.  It validates (v, d, c)
once, then runs ``_chain``, which makes no order comparison, so any field of
numbers runs it; each formula has one body, shared with the public functions.

The module also carries the substratum velocity map
``w = (c/2) * ln((1 + v**2/c**2) / (1 - v**2/c**2))`` under which composed
velocities add linearly, together with its closed-form inverse.  The
textbook hyperbolic-angle map ``(c/2) * ln((1 + v/c) / (1 - v/c))`` is
exposed separately as ``standard_rapidity`` for comparison only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (DEFAULT_ORDER, IDENTITY_TOL, PoleError, Record, check_light_speed,
                     check_speed)

if TYPE_CHECKING:
    from .infinitesimals import TruncatedHyper


class LineElementParams(Record):
    """Velocity parameters (v, d, c) with 0 <= v + d < c < inf.

    The one domain check of the derivation chain; NaN fails it.  ``d`` is
    the secondary velocity term; it is zero everywhere in the decay paths.
    Rational inputs are kept as-is so derived quantities stay exact.
    """

    v: float
    d: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        total = self.v + self.d
        check_speed(total, self.c)
        if total < 0:
            raise ValueError(f"v + d = {total} is outside 0 <= v + d < c")


def lambda_factor(p: LineElementParams):
    """``1 - (v + d)**2 / c**2``, strictly in (0, 1]."""
    return solve_transform_coeffs(p).eta


def gamma_factor(p: LineElementParams) -> float:
    """Square root of the lambda factor; in (0, 1], equal to 1 at rest."""
    return math.sqrt(lambda_factor(p))


class TransformCoeffs(Record):
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
    return _solved((p.v + p.d) / p.c)


def _solved(s) -> TransformCoeffs:
    eta = 1 - s * s
    return TransformCoeffs(alpha=-s, beta=s / eta, eta=eta)


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


def transform_differentials(coeffs: TransformCoeffs, drm, dTm):
    """Map moving-frame differentials (dr_m, dT_m) to s-frame (dr_s, dT_s).

    The one encoding of the map: the differentials may be series or plain
    numbers.  With the solved coefficients and ``s = -alpha`` it reads

        dr_s = (1/eta) * dr_m + s * dT_m
        dT_s = (s/eta) * dr_m + dT_m.
    """
    s = -coeffs.alpha
    drs = drm / coeffs.eta + dTm * s
    dTs = drm * (s / coeffs.eta) + dTm
    return drs, dTs


def velocity_ratio(coeffs: TransformCoeffs, drm_over_dTm):
    """s-frame velocity ratio dr_s/dT_s for a given moving-frame ratio.

    Pushes ``(dr_m, dT_m) = (x, 1)`` for ``x = dr_m/dT_m`` through
    ``transform_differentials`` on plain numbers, so a broken transformation
    shows in the ratio; at ``x = 0`` it is ``s = -alpha = (v + d)/c``.
    """
    drs, dTs = transform_differentials(coeffs, drm_over_dTm, 1)
    if dTs == 0:
        raise PoleError(f"velocity ratio has a pole at dr_m/dT_m = {drm_over_dTm}")
    return drs / dTs


def check_rejected_branch(coeffs: TransformCoeffs):
    """Velocity ratio of a co-moving point on the sign-flipped branch ``alpha = +s``.

    ``velocity_ratio`` of the flipped coefficients at ``dr_m/dT_m = 0`` is
    ``-s = -(v + d)/c``: negative for every forward velocity 0 < v + d < c
    and therefore inconsistent with it.  At rest both branches coincide and
    the ratio is 0.  ``certify_derivation`` decides the rejection.
    """
    flipped = TransformCoeffs(alpha=-coeffs.alpha, beta=-coeffs.beta, eta=coeffs.eta)
    return velocity_ratio(flipped, 0)


def _check_displacement(dr: TruncatedHyper, dt: TruncatedHyper) -> None:
    if dr.coeffs[0] != 0 or dt.coeffs[0] != 0:  # the standard parts
        raise ValueError("displacements must be pure infinitesimals")


def line_element_s(dr: TruncatedHyper, dt: TruncatedHyper, c) -> TruncatedHyper:
    """Isotropic interval ``dS**2 = (c*dt)**2 - dr**2`` for s-frame data."""
    _check_displacement(dr, dt)
    check_light_speed(c)
    return _isotropic_interval(dr, dt, c)


def line_element_m(dr: TruncatedHyper, dt: TruncatedHyper,
                   p: LineElementParams) -> TruncatedHyper:
    """Dilated interval ``dS**2 = lam*(c*dt)**2 - (1/lam)*dr**2`` for m-frame data."""
    _check_displacement(dr, dt)
    return _dilated_interval(dr, dt, p.c, lambda_factor(p))


def _isotropic_interval(dr, dt, c):
    d_t = dt * c
    return d_t * d_t - dr * dr


def _dilated_interval(dr, dt, c, lam):
    d_t = dt * c
    return d_t * d_t * lam - (dr * dr) / lam


def nsppm_velocity(v, c=1.0):
    """Substratum velocity map ``w = (c/2)*ln((1+v**2/c**2)/(1-v**2/c**2))``.

    Even in ``v``, zero at rest, strictly increasing on [0, c) and divergent
    as ``v -> c``.  Composed physical velocities correspond to *adding*
    their w-values.
    """
    check_speed(v, c)
    r = abs(v / c)
    u = r * r
    # ln(1 + 2u/(1 - u)) keeps a tiny u that 1 + u would round away.  From
    # r = 1/2 on, 1 - u is (1 - r)(1 + r), whose 1 - r is exact, so near c the
    # rounding of u is not magnified (it cost up to 2**20 ulps); below, 1 - u
    # is as accurate, and a rounded 1 - r there would let w step down
    return 0.5 * c * math.log1p(2 * u / ((1 - r) * (1 + r) if r >= 0.5 else 1 - u))


def standard_rapidity(v, c=1.0):
    """Textbook hyperbolic-angle map ``(c/2)*ln((1+v/c)/(1-v/c))``, taken as
    ``c*atanh(v/c)``, which keeps the tiny ``v/c`` that ``1 + v/c`` rounds away.

    Provided only as a labelled alternate column for comparison with
    ``nsppm_velocity``; nothing in this package derives from it.
    """
    check_speed(v, c)
    return c * math.atanh(v / c)


def invert_nsppm_velocity(w, c=1.0):
    """Inverse of ``nsppm_velocity`` on the nonnegative branch.

    Closed form ``v = c * sqrt(tanh(w / c))``, since
    ``(1 + v**2/c**2) / (1 - v**2/c**2) = exp(2*w/c)``.  Negative or NaN
    ``w`` is rejected, and so is any ``w`` whose ``tanh(w / c)`` rounds to 1
    (above about ``w = 19.06 * c``), where ``v`` would reach ``c``.
    """
    check_light_speed(c)
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


def _relative_error(a, b) -> float:
    if a == b:
        return 0.0
    return float(abs(a - b) / max(abs(a), abs(b)))


class CertificationReport(Record):
    """Machine-checkable record of the full derivation chain at (v, d, c).

    ``lhs_eps2`` is the eps**2 coefficient of the isotropic interval
    evaluated on transformed differentials; ``rhs_eps2`` is the same
    coefficient from the dilated interval directly.  In exact mode every
    check is an equality over rationals and ``eps2_rel_error`` is exactly 0.
    ``failures`` says, one line per failed check, what was measured against
    which tolerance; it is a diagnostic, not part of the JSON report.
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
    failures: tuple = ()

    _uncompared = ("failures",)


def _chain(s, c, one, order: int):
    """The chain at speed ratio ``s`` and light speed ``c``, in the field whose
    unit is ``one``: the coefficients, their expansion, the isotropic interval
    of the transformed probe (dr_m, dt_m) = (eps, 2*eps), the dilated interval
    of the probe, and the co-moving velocity ratios of both branches."""
    from .infinitesimals import TruncatedHyper  # only derive certifies

    coeffs = _solved(s)
    drm = TruncatedHyper.infinitesimal(one, order=order)
    dtm = TruncatedHyper.infinitesimal(one + one, order=order)
    drs, dTs = transform_differentials(coeffs, drm, dtm * c)
    lhs = _isotropic_interval(drs, dTs / c, c)
    rhs = _dilated_interval(drm, dtm, c, coeffs.eta)
    return (coeffs, expand_quadratic(coeffs.alpha, coeffs.beta), lhs, rhs,
            velocity_ratio(coeffs, 0 * one), check_rejected_branch(coeffs))


def certify_derivation(v, d=0, c=1, order: int = DEFAULT_ORDER, exact: bool = False,
                       tol: float = IDENTITY_TOL) -> CertificationReport:
    """Run every identity of the derivation chain at one parameter point.

    Checks performed:

    * the cross term of the quadratic expansion vanishes;
    * the time and radial coefficients equal ``eta`` and ``-1/eta``;
    * the transformed isotropic interval equals the dilated interval on a
      probe displacement (dr_m, dt_m) = (eps, 2*eps);
    * a co-moving point is seen with velocity ratio ``(v + d)/c``;
    * the sign-flipped branch sees a co-moving point move backwards
      (negative ratio) for ``(v + d)/c > 0``, and at rest for ``v + d = 0``.

    In ``exact`` mode the inputs are converted to ``Fraction`` and every
    check is a zero-tolerance rational equality.  The inputs are validated
    here, once, and ``_chain`` computes what the checks compare.
    """
    from fractions import Fraction  # only derive certifies

    if order < 2:
        raise ValueError(f"truncation order must be at least 2, got {order}")
    number = Fraction if exact else float
    v, d, c, one = number(v), number(d), number(c), number(1)
    tol = 0.0 if exact else tol
    LineElementParams(v=v, d=d, c=c)
    s = (v + d) / c
    coeffs, (coef_time, coef_cross, coef_radial), lhs, rhs, recovered, branch_ratio = \
        _chain(s, c, one, order)
    lhs_eps2 = lhs.coeffs[2]
    rhs_eps2 = rhs.coeffs[2]
    eps2_rel_error = _relative_error(lhs_eps2, rhs_eps2)

    measured = {  # each check passes when its measured value is <= tol
        "cross_term_zero": abs(coef_cross),
        "time_coefficient_is_eta": _relative_error(coef_time, coeffs.eta),
        "radial_coefficient_is_neg_inverse_eta":
            _relative_error(coef_radial, -1 / coeffs.eta),
        "line_elements_match": eps2_rel_error,
        "velocity_ratio_recovered": _relative_error(recovered, s),
    }
    checks = {name: bool(value <= tol) for name, value in measured.items()}
    failures = [f"{name}: measured {float(value)!r} > tolerance {float(tol)!r}"
                for name, value in measured.items() if not checks[name]]
    # keyed on s = -alpha > 0, not on eta < 1: in floats eta rounds to 1
    # once s is below about 1e-8, and s can underflow to 0 while v + d > 0
    moving = coeffs.alpha < 0
    checks["rejected_branch_inconsistent"] = branch_ratio < 0 if moving else branch_ratio == 0
    if not checks["rejected_branch_inconsistent"]:
        failures.append(f"rejected_branch_inconsistent: flipped branch sees "
                        f"dr_s/dT_s = {float(branch_ratio)!r} for a co-moving "
                        f"point, expected {'< 0' if moving else '0'}")
    if exact:
        try:  # as_dict makes these floats, and they bound every other field
            list(map(float, (v, d, c, coef_radial, lhs_eps2, rhs_eps2)))
        except OverflowError:
            raise ValueError(f"the exact report at v = {v}, d = {d}, c = {c} "
                             "is beyond the float range") from None
    return CertificationReport(
        v=v, d=d, c=c, exact=exact, order=order,
        eta=coeffs.eta, alpha=coeffs.alpha, beta=coeffs.beta,
        coef_time=coef_time, coef_cross=coef_cross, coef_radial=coef_radial,
        lhs_coeffs=lhs.coeffs, rhs_coeffs=rhs.coeffs,
        lhs_eps2=lhs_eps2, rhs_eps2=rhs_eps2, eps2_rel_error=eps2_rel_error,
        # -s itself: -0.0 at rest, where the flipped branch's ratio reads 0.0
        rejected_branch_ratio=coeffs.alpha,
        checks=checks, passed=all(checks.values()), failures=tuple(failures),
    )
