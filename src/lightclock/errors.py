"""Exception types, the record base, the input rules and the constants shared
across the lightclock package; every command loads this module."""

import math

DEFAULT_ORDER = 2  # default truncation order of series and certification
IDENTITY_TOL = 1e-12  # default tolerance of a float certification check
# Largest ensemble decay.run_ensemble draws, the same on every host whatever
# its memory: about 7 s per ensemble at two threads on a 2-CPU Xeon.
MAX_SAMPLES = 10 ** 9
# Leaf size of decay's streaming sum, in samples: a thread holds one leaf of
# 8 * BLOCK bytes at a time, so memory is O(threads * 1 MiB) for any sample
# count, and a leaf fits in one core's L2 cache.
BLOCK = 2 ** 17


class LightClockError(Exception):
    """Base class for every error raised by this package."""


class OrderMismatchError(LightClockError, ValueError):
    """Arithmetic attempted between series of different truncation order."""


class OutOfGridError(LightClockError, ValueError):
    """Target real lies outside the range a clock-count grid can represent."""


class SuperluminalError(LightClockError, ValueError):
    """Velocity parameters at or beyond the local light speed."""


class CausalityError(LightClockError, ValueError):
    """Radar reception before emission."""


class GeometryError(LightClockError, ValueError):
    """Radar intercept does not occur at a valid position and time."""


class DegeneratePairError(LightClockError, ValueError):
    """Velocity requested from two radar records with equal Einstein time."""


class PoleError(LightClockError, ZeroDivisionError):
    """Vanishing denominator in a velocity-ratio evaluation."""


def check_positive(name: str, value) -> None:
    """The one positive-and-finite rule; negated, so NaN fails it like 0 and inf."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_light_speed(c) -> None:
    """The light-speed rule: ``c`` is positive and finite."""
    check_positive("light speed", c)


def check_speed(v, c) -> None:
    """The one slower-than-light rule, ``|v| < c``, after the light-speed rule;
    negated, so NaN fails it."""
    check_light_speed(c)
    if not abs(v) < c:
        raise SuperluminalError(
            f"superluminal: the speed {v} is not below c = {c} in magnitude")


def _json_value(value):
    """A field as JSON data: tuple to float list, dict copied, Fraction to float."""
    if isinstance(value, tuple):
        return [float(x) for x in value]
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, int) or not hasattr(value, "denominator"):
        return value
    return float(value)


class Record:
    """Base of the package's immutable records.  The fields are the subclass's
    own annotations, in order, and a class attribute of the same name is a
    field's default.  ``__init__`` takes them by position or keyword, then
    calls ``__post_init__``.  Fields named in ``_uncompared`` are left out of
    ``==``, ``hash`` and ``as_dict``, which keys the others by the name
    ``_renames`` gives them, or else by their own."""

    _uncompared = ()
    _renames = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        if not kwargs and len(args) == len(fields):  # the two fast paths
            values.update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:
            values.update(kwargs)
        else:
            name, given = type(self).__name__, dict(zip(fields, args))
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
            for key in kwargs:
                if key in given or key not in self._field_set:
                    problem = "multiple values for" if key in given else "an unexpected"
                    raise TypeError(f"{name}() got {problem} argument {key!r}")
            values.update(self._defaults, **given, **kwargs)
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """The compared fields, in order, as the JSON data of a report."""
        return {self._renames.get(f, f): _json_value(self.__dict__[f]) for f in self._compared}
