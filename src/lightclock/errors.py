"""Exception types shared across the lightclock package."""


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
