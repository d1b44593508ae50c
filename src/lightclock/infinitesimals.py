"""Truncated infinitesimal arithmetic and clock-count grid approximation.

A finite, testable stand-in for infinitesimal analysis.  Numbers are
polynomials ``c0 + c1*eps + ... + cK*eps**K`` in one formal infinitesimal
``eps``, truncated exactly at order ``K``: products discard every term of
order above ``K`` and never round it into lower orders.  The standard part
of a number is ``c0``, and two numbers are *infinitely close* when their
standard parts agree within a configurable absolute tolerance.

Reals are approximated on the clock-count grid ``{m/omega : |m| < omega**2}``
by rounding to the nearest grid rational; the error is at most half a grid
step, ``1/(2*omega)``.

Coefficients may be floats or exact ``fractions.Fraction`` values.  The
exact-rational mode is what the line-element certification path uses to
turn identity checks into zero-tolerance proofs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational, Real

from .errors import DEFAULT_ORDER, OrderMismatchError, OutOfGridError, Record

CLOSENESS_TOL = 1e-12
_PLAIN_REALS = frozenset((float, int, Fraction))


def _require_same_order(a: "TruncatedHyper", b: "TruncatedHyper") -> None:
    if a.order != b.order:
        raise OrderMismatchError(
            f"truncation orders differ: {a.order} vs {b.order}"
        )


class TruncatedHyper(Record):
    """Truncated power series in one formal infinitesimal.

    ``coeffs[k]`` is the coefficient of ``eps**k``; the tuple length fixes
    the truncation order ``K = len(coeffs) - 1``.  Instances are immutable
    and safe to share across threads.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) < 1:
            raise ValueError("at least one coefficient (the standard part) required")
        for c in coeffs:
            # the exact type test spares the slow ABC check on the hot path
            if type(c) not in _PLAIN_REALS and not isinstance(c, Real):
                raise TypeError(f"coefficient {c!r} is not a real number")
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} is not finite")
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER) -> "TruncatedHyper":
        """A standard real embedded at the given truncation order."""
        zero = value * 0  # preserves Fraction vs float coefficient type
        return cls((value,) + (zero,) * order)

    @classmethod
    def infinitesimal(cls, coeff=1.0, order: int = DEFAULT_ORDER,
                      power: int = 1) -> "TruncatedHyper":
        """``coeff * eps**power`` at the given truncation order."""
        if not 1 <= power <= order:
            raise ValueError(f"power {power} outside 1..{order}")
        zero = coeff * 0
        coeffs = [zero] * (order + 1)
        coeffs[power] = coeff
        return cls(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        if not isinstance(other, TruncatedHyper):
            return NotImplemented
        _require_same_order(self, other)
        return TruncatedHyper(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedHyper):
            return NotImplemented
        _require_same_order(self, other)
        return TruncatedHyper(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedHyper(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TruncatedHyper):
            _require_same_order(self, other)
            k_max = self.order
            return TruncatedHyper(tuple(
                sum(self.coeffs[i] * other.coeffs[k - i] for i in range(k + 1))
                for k in range(k_max + 1)
            ))
        if isinstance(other, Real):
            return TruncatedHyper(tuple(a * other for a in self.coeffs))
        return NotImplemented

    # scalar * series: the product commutes bit for bit, in float and in Fraction
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Real):
            if other == 0:
                raise ZeroDivisionError("division of a truncated series by zero")
            return TruncatedHyper(tuple(a / other for a in self.coeffs))
        return NotImplemented

    def __repr__(self):
        powers = ["", "*eps"] + [f"*eps**{k}" for k in range(2, len(self.coeffs))]
        terms = " + ".join(f"{c}{eps}" for c, eps in zip(self.coeffs, powers))
        return f"TruncatedHyper({terms})"


def st(a: TruncatedHyper):
    """Standard part: the order-zero coefficient."""
    return a.coeffs[0]


def infinitely_close(a: TruncatedHyper, b: TruncatedHyper,
                     tol: float = CLOSENESS_TOL) -> bool:
    """True when the standard parts of ``a`` and ``b`` agree within ``tol``.

    The tolerance is absolute; with exact-rational coefficients pass
    ``tol=0`` for strict monad membership.
    """
    _require_same_order(a, b)
    return abs(st(a - b)) <= tol


class GridApprox(Record):
    """A clock-count rational ``numerator/scale`` from the grid
    ``{m/scale : |m| < scale**2}``."""

    numerator: int
    scale: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale}")
        if abs(self.numerator) >= self.scale ** 2:
            raise OutOfGridError(
                f"|{self.numerator}| >= {self.scale}**2 violates the grid bound"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.scale)


def grid_approximate(r, omega: int) -> GridApprox:
    """Nearest grid rational ``m/omega`` to the real ``r``.

    Requires ``|r| < omega``.  The result satisfies ``|m/omega - r| <=
    1/(2*omega)`` exactly (the comparison is done in rational arithmetic,
    so the bound holds for the binary value of a float input, not a decimal
    ideal of it).  Reals within half a grid step of ``+-omega`` have no
    admissible grid point, and ``GridApprox``'s grid bound rejects them.
    """
    if not isinstance(omega, int) or isinstance(omega, bool) or omega < 1:
        raise ValueError(f"omega must be a positive integer, got {omega!r}")
    if isinstance(r, float) and not math.isfinite(r):
        raise ValueError(f"target {r!r} is not finite")
    if not isinstance(r, (Rational, float)):
        raise TypeError(f"target {r!r} is not a real number")
    # GridApprox would reject these too; this keeps a huge m out of the message
    if abs(r) >= omega:
        raise OutOfGridError(f"|{r}| >= omega={omega}: target outside the grid range")
    return GridApprox(round(Fraction(r) * omega), omega)
