"""Behaviour of lightclock's 12 immutable records, and of a record whose
every field has a default, pinned field by field.

Each record is built from keywords, then checked for its literal repr,
equality and hash, immutability, defaults, argument errors and a pickle
round trip.  Only construction, repr, ==, hash, pickle and ``as_dict`` are
used, so the pins hold whatever machinery builds the records.
"""

import pickle
from fractions import Fraction

import pytest

from lightclock.cli import _Option
from lightclock.decay import DecayModel, EnsembleRun, FrameComparison, SeparableSolution
from lightclock.errors import Record
from lightclock.infinitesimals import GridApprox, TruncatedHyper
from lightclock.line_element import CertificationReport, LineElementParams, TransformCoeffs
from lightclock.radar import RadarRecord, Reflector

REPORT = dict(v=0.5, d=0.0, c=1.0, exact=False, order=2, eta=0.75, alpha=-0.5,
              beta=0.5, coef_time=0.75, coef_cross=0.0, coef_radial=-1.25,
              lhs_coeffs=(0.0, 0.0, 2.5), rhs_coeffs=(0.0, 0.0, 2.5),
              lhs_eps2=2.5, rhs_eps2=2.5, eps2_rel_error=0.0,
              rejected_branch_ratio=-0.5, checks={"cross_term_zero": True},
              passed=True)
FRAMES = dict(tau_s=1.0, v=0.6, c=1.0, lam=0.64, gamma=0.8, tau_m_analytic=1.25,
              tau_hat_s=1.0, tau_hat_m=1.25, ratio=1.25, z_score=0.0, samples=10, seed=1)



class Defaults(Record):
    """No lightclock record defaults every field, so this one stands in."""

    c: float = 1.0
    format: str = "csv"
    out: str | None = None


# (record, keywords giving every field, defaults, literal repr)
CASES = [
    (Defaults, dict(c=2.0, format="json", out="x.json"),
     dict(c=1.0, format="csv", out=None),
     "Defaults(c=2.0, format='json', out='x.json')"),
    (_Option, dict(flag="--x0", convert=None, help="Position.", default=None,
                   required=True, multiple=False),
     dict(default=None, required=False, multiple=False),
     "_Option(flag='--x0', convert=None, help='Position.', default=None, "
     "required=True, multiple=False)"),
    (LineElementParams, dict(v=0.5, d=0.0, c=1.0), dict(d=0.0, c=1.0),
     "LineElementParams(v=0.5, d=0.0, c=1.0)"),
    (TransformCoeffs, dict(alpha=-0.5, beta=0.5, eta=0.75), {},
     "TransformCoeffs(alpha=-0.5, beta=0.5, eta=0.75)"),
    (CertificationReport, dict(REPORT, failures=("cross_term_zero: measured 1.0",)),
     dict(failures=()),
     "CertificationReport(v=0.5, d=0.0, c=1.0, exact=False, order=2, eta=0.75, "
     "alpha=-0.5, beta=0.5, coef_time=0.75, coef_cross=0.0, coef_radial=-1.25, "
     "lhs_coeffs=(0.0, 0.0, 2.5), rhs_coeffs=(0.0, 0.0, 2.5), lhs_eps2=2.5, "
     "rhs_eps2=2.5, eps2_rel_error=0.0, rejected_branch_ratio=-0.5, "
     "checks={'cross_term_zero': True}, passed=True, "
     "failures=('cross_term_zero: measured 1.0',))"),
    (TruncatedHyper, dict(coeffs=(1.0, 2.0, 0.5)), {},
     "TruncatedHyper(1.0 + 2.0*eps + 0.5*eps**2)"),
    (GridApprox, dict(numerator=3, scale=4), {}, "GridApprox(numerator=3, scale=4)"),
    (DecayModel, dict(n0=100.0, tau=2.0), {}, "DecayModel(n0=100.0, tau=2.0)"),
    (SeparableSolution, dict(spatial_coeffs=(1.0, 0.0, 0.0),
                             temporal=DecayModel(n0=100.0, tau=2.0), k=-2.0), {},
     "SeparableSolution(spatial_coeffs=(1.0, 0.0, 0.0), "
     "temporal=DecayModel(n0=100.0, tau=2.0), k=-2.0)"),
    (EnsembleRun, dict(sample_count=10, seed=1, tau_hat=0.5, stderr=0.25), {},
     "EnsembleRun(sample_count=10, seed=1, tau_hat=0.5, stderr=0.25)"),
    (FrameComparison, FRAMES, {},
     "FrameComparison(tau_s=1.0, v=0.6, c=1.0, lam=0.64, gamma=0.8, "
     "tau_m_analytic=1.25, tau_hat_s=1.0, tau_hat_m=1.25, ratio=1.25, "
     "z_score=0.0, samples=10, seed=1)"),
    (RadarRecord, dict(t1=1.0, t3=3.0, c=1.0, t_E=2.0, r_E=1.0, v_E=0.5),
     dict(v_E=None), "RadarRecord(t1=1.0, t3=3.0, c=1.0, t_E=2.0, r_E=1.0, v_E=0.5)"),
    (Reflector, dict(x0=1.0, v=0.5), {}, "Reflector(x0=1.0, v=0.5)"),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_record_is_covered():
    assert len(CASES) == len(set(IDS)) == 13
    assert set(Record.__subclasses__()) == {case[0] for case in CASES}


@pytest.mark.parametrize("cls, kwargs, defaults, text", CASES, ids=IDS)
class TestRecord:
    def test_repr_is_literal(self, cls, kwargs, defaults, text):
        assert repr(cls(**kwargs)) == text

    def test_positional_follows_field_order(self, cls, kwargs, defaults, text):
        assert cls(*kwargs.values()) == cls(**kwargs)

    def test_equal_instances_hash_alike(self, cls, kwargs, defaults, text):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a == b and not a != b and a is not b
        if cls is CertificationReport:  # its checks field is a dict
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_unequal_across_classes(self, cls, kwargs, defaults, text):
        record = cls(**kwargs)
        assert record != tuple(kwargs.values())
        for other, other_kwargs, _, _ in CASES:
            if other is not cls:
                assert record != other(**other_kwargs)

    def test_assignment_and_deletion_raise(self, cls, kwargs, defaults, text):
        record = cls(**kwargs)
        for name in (*kwargs, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        for name in kwargs:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**kwargs)

    def test_defaults(self, cls, kwargs, defaults, text):
        required = {k: v for k, v in kwargs.items() if k not in defaults}
        assert cls(**required) == cls(**{**kwargs, **defaults})
        for name, value in defaults.items():
            assert getattr(cls(**required), name) == value

    def test_missing_unknown_or_repeated_argument(self, cls, kwargs, defaults, text):
        required = [k for k in kwargs if k not in defaults]
        if required:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in kwargs.items() if k != required[0]})
        with pytest.raises(TypeError):
            cls(**kwargs, no_such_field=1)
        with pytest.raises(TypeError):
            cls(next(iter(kwargs.values())), **kwargs)
        # every field by position and one again by keyword
        with pytest.raises(TypeError, match="multiple values"):
            cls(*kwargs.values(), **dict([next(iter(kwargs.items()))]))

    def test_pickle_round_trip(self, cls, kwargs, defaults, text):
        record = cls(**kwargs)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and repr(copy) == text


def test_report_failures_shown_but_not_compared():
    hashable = dict(REPORT, checks=None)
    failed = CertificationReport(**hashable, failures=("x: measured 1.0 > tolerance 0.0",))
    clean = CertificationReport(**hashable)
    assert "failures=('x: measured 1.0 > tolerance 0.0',)" in repr(failed)
    assert failed == clean and hash(failed) == hash(clean)
    assert list(failed.as_dict()) == list(REPORT)
    assert failed.as_dict() == clean.as_dict()


def test_frame_comparison_json_renames_lam():
    assert list(FrameComparison(**FRAMES).as_dict()) == \
        ["lambda" if k == "lam" else k for k in FRAMES]


# TruncatedHyper has its own __init__, which takes the one coefficient tuple
BASE_INIT = [case for case in CASES if case[0] is not TruncatedHyper]


@pytest.mark.parametrize("cls, kwargs, defaults, text", BASE_INIT,
                         ids=[case[0].__name__ for case in BASE_INIT])
def test_too_many_positional_arguments(cls, kwargs, defaults, text):
    with pytest.raises(TypeError) as info:
        cls(*kwargs.values(), None)
    assert str(info.value) == \
        f"{cls.__name__}() takes {len(kwargs)} arguments, got {len(kwargs) + 1}"


def test_radar_record_json_renames_einstein_measures():
    record = RadarRecord(t1=1.0, t3=3.0, c=1.0, t_E=2.0, r_E=1.0)
    assert record.as_dict() == {"t1": 1.0, "t3": 3.0, "c": 1.0, "tE": 2.0, "rE": 1.0,
                                "vE": None}


def test_as_dict_makes_json_data():
    # rationals become floats, tuples float lists and dicts copies; ints stay
    exact = CertificationReport(**dict(REPORT, v=Fraction(1, 2),
                                       lhs_coeffs=(Fraction(1, 4), 0, 1)))
    data = exact.as_dict()
    assert type(data["v"]) is float and data["v"] == 0.5
    assert data["lhs_coeffs"] == [0.25, 0.0, 1.0]
    assert list(map(type, data["lhs_coeffs"])) == [float] * 3
    assert type(data["order"]) is int and data["exact"] is False
    assert data["checks"] == REPORT["checks"] and data["checks"] is not exact.checks
