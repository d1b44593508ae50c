"""The certification chain's identities hold for every (s, c), proved through
the shipped code.

``certify_derivation`` reads (v, d, c) only through the speed ratio
``s = (v + d)/c`` and ``c``, and hands them to ``line_element._chain``, which
makes no order comparison.  So the chain runs on ``RationalFunction``, the
field Q(s, c) of rational functions in two indeterminates, and every identity
it should satisfy is checked there as an identity of rational functions: it
then holds at every parameter point where no denominator vanishes, irrational
ones included, and the sampled checks of criteria 1 and 2 become instances of
it.  ``RationalFunction`` has no ordering, so a chain that compared values
would raise instead of passing.

The numerator and denominator are kept as written, with no cancellation, and
their degrees are pinned: a change to the chain's arithmetic then shows here
even when the identities still hold.
"""

import numbers
from fractions import Fraction

import pytest

from lightclock import line_element
from lightclock.line_element import _chain


def _trim(terms: dict) -> dict:
    return {m: a for m, a in terms.items() if a != 0}


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, a in q.items():
        out[m] = out.get(m, 0) + a
    return _trim(out)


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return _trim(out)


def _degree(p: dict) -> tuple:
    """Highest power of s and highest power of c in the polynomial."""
    return max(i for i, _ in p), max(j for _, j in p)


class RationalFunction:
    """``num / den`` over Q[s, c]: each polynomial a dict from the exponent
    pair (i, j) of ``s**i * c**j`` to a ``Fraction``.  Only field operations
    are defined; ``==`` cross-multiplies, and any ordering raises."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None):
        den = {(0, 0): Fraction(1)} if den is None else den
        if not den:
            raise ZeroDivisionError("rational function with a zero denominator")
        self.num, self.den = _trim(num), den

    @classmethod
    def lift(cls, x):
        if isinstance(x, cls):
            return x
        # a float constant in the chain would make the proof inexact
        if isinstance(x, (int, Fraction)):
            return cls({(0, 0): Fraction(x)})
        return NotImplemented

    def __add__(self, other):
        other = self.lift(other)
        if other is NotImplemented:
            return other
        return RationalFunction(_add(_mul(self.num, other.den), _mul(other.num, self.den)),
                                _mul(self.den, other.den))

    def __neg__(self):
        return RationalFunction({m: -a for m, a in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self.lift(other)
        return other if other is NotImplemented else self + -other

    def __mul__(self, other):
        other = self.lift(other)
        if other is NotImplemented:
            return other
        return RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other):
        other = self.lift(other)
        if other is NotImplemented:
            return other
        return RationalFunction(_mul(self.num, other.den), _mul(self.den, other.num))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = RationalFunction.lift(1)
        for _ in range(n):
            result = result * self
        return result

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __rtruediv__(self, other):
        other = self.lift(other)
        return other if other is NotImplemented else other / self

    def __eq__(self, other):
        other = self.lift(other)
        if other is NotImplemented:
            return other
        return _mul(self.num, other.den) == _mul(other.num, self.den)

    __hash__ = None

    def _unordered(self, *args):
        raise TypeError("Q(s, c) has no ordering")

    __lt__ = __le__ = __gt__ = __ge__ = __abs__ = _unordered

    def degrees(self) -> tuple:
        """(degrees of the numerator, degrees of the denominator), as written."""
        return _degree(self.num), _degree(self.den)


numbers.Real.register(RationalFunction)

S = RationalFunction({(1, 0): Fraction(1)})
C = RationalFunction({(0, 1): Fraction(1)})
ETA = 1 - S * S


class TestTheType:
    def test_field_operations(self):
        assert (S + C) * (S - C) == S * S - C * C
        assert (S / C) * C == S and 1 / (1 / S) == S
        assert S != C and S + 0 == S and 0 * S == 0

    @pytest.mark.parametrize("compare", [lambda a, b: a < b, lambda a, b: a <= b,
                                         lambda a, b: a > b, lambda a, b: a >= b,
                                         lambda a, b: abs(a)])
    def test_no_ordering(self, compare):
        with pytest.raises(TypeError, match="no ordering"):
            compare(S, C)

    def test_no_float_constants(self):
        with pytest.raises(TypeError):
            S * 0.5  # noqa: B018

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            S / (S - S)  # noqa: B018


def chain(order: int):
    return _chain(S, C, RationalFunction.lift(1), order)


@pytest.mark.parametrize("order", [2, 3])
def test_chain_identities_hold_identically(order):
    coeffs, (time, cross, radial), lhs, rhs, recovered, branch_ratio = chain(order)
    assert coeffs.alpha == -S and coeffs.beta == S / ETA and coeffs.eta == ETA
    assert cross == 0
    assert time == ETA
    assert radial == -1 / ETA
    assert lhs.coeffs[2] == rhs.coeffs[2]
    assert recovered == S
    assert branch_ratio == -S
    for k in set(range(order + 1)) - {2}:
        assert lhs.coeffs[k] == 0 and rhs.coeffs[k] == 0, k
    assert lhs.coeffs[2].degrees() == ((26, 8), (24, 6))
    assert rhs.coeffs[2].degrees() == ((4, 2), (2, 0))


def test_a_faulty_interval_is_no_identity(monkeypatch):
    # the dilated interval with lam where 1/lam belongs
    def radial_not_inverted(dr, dt, c, lam):
        d_t = dt * c
        return d_t * d_t * lam - (dr * dr) * lam

    monkeypatch.setattr(line_element, "_dilated_interval", radial_not_inverted)
    _, _, lhs, rhs, _, _ = chain(2)
    assert lhs.coeffs[2] != rhs.coeffs[2]
