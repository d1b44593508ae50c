"""The radar measurement protocol and its Einstein measures.

A stationary anchor point (the ``s``-point) measures a moving target (the
``m``-point) by radar: emit a light pulse at ``t1``, receive the reflection
back at ``t3``, and form the Einstein measures

    t_E = (t1 + t3) / 2
    r_E = c * (t3 - t1) / 2
    v_E = r_E / t_E        (defined only when t_E != 0)

The simulator works in one spatial dimension.  Light propagates at constant
speed ``c`` in both directions of the s-frame, reflections are instantaneous,
and reflectors move on straight worldlines ``x(t) = x0 + v*t``.  Velocity of
a reflector not moving through the origin is obtained from differences of
two pings rather than from a single ``v_E``.
"""

from __future__ import annotations

import math

from .errors import (CausalityError, DegeneratePairError, GeometryError, Record,
                     check_light_speed, check_speed)


class RadarRecord(Record):
    """One radar exchange and its Einstein measures.

    ``v_E`` is ``None`` when ``t_E == 0`` (the single-ping velocity is then
    undefined).  A zero-range echo forces ``t_E == t3``.  Measures that
    overflow the float range are rejected.
    """

    t1: float
    t3: float
    c: float
    t_E: float
    r_E: float
    v_E: float | None = None

    _renames = {"t_E": "tE", "r_E": "rE", "v_E": "vE"}

    def __post_init__(self):
        check_light_speed(self.c)
        v_e = 0.0 if self.v_E is None else self.v_E
        if not all(map(math.isfinite, (self.t3, self.t_E, self.r_E, v_e))):
            raise GeometryError(f"radar measures overflow: t3={self.t3}, "
                                f"t_E={self.t_E}, r_E={self.r_E}, v_E={self.v_E}")
        if self.t3 < self.t1:
            raise CausalityError(f"reception t3={self.t3} precedes emission t1={self.t1}")


def einstein_measures(t1: float, t3: float, c: float) -> RadarRecord:
    """Einstein time, distance and (when defined) velocity from one exchange."""
    # halved by division, so rational inputs stay exact
    t_e = (t3 + t1) / 2
    r_e = c / 2 * (t3 - t1)
    v_e = r_e / t_e if t_e != 0 else None
    return RadarRecord(t1=t1, t3=t3, c=c, t_E=t_e, r_E=r_e, v_E=v_e)


class Reflector(Record):
    """Uniformly moving target on the worldline x(t) = x0 + v*t."""

    x0: float
    v: float

    def position(self, t: float) -> float:
        return self.x0 + self.v * t


def simulate_ping(refl: Reflector, t1: float, c: float = 1.0) -> RadarRecord:
    """One full radar exchange with a uniformly moving reflector.

    The outbound pulse emitted at ``t1`` from the origin meets the worldline
    at ``t_r = (x0 + c*t1) / (c - v)``; the echo returns after a further
    ``x(t_r)/c``.  The reflector must be slower than light, strictly ahead
    of the emitter (positive position) at emission and not behind it at the
    reflection event, and the closing speed ``c - v`` must not overflow the
    float range.
    """
    check_speed(refl.v, c)
    closing = c - refl.v
    if not math.isfinite(closing):
        raise GeometryError(f"closing speed c - v overflows at c={c}, v={refl.v}")
    t_r = (refl.x0 + c * t1) / closing
    if t_r <= t1:
        raise GeometryError(
            f"reflector at x={refl.position(t1)} is not ahead of the emitter at t1={t1}"
        )
    x_r = refl.position(t_r)
    if x_r < 0:
        raise GeometryError(f"reflection position {x_r} is negative")
    t3 = t_r + x_r / c
    return einstein_measures(t1, t3, c)


def radar_velocity(ping_a: RadarRecord, ping_b: RadarRecord) -> float:
    """Finite-difference Einstein velocity between two pings.

    ``(r_E(b) - r_E(a)) / (t_E(b) - t_E(a))``; consistent with the
    single-ping ``v_E = r_E / t_E`` for motion through the origin.
    """
    dt = ping_b.t_E - ping_a.t_E
    if dt == 0:
        raise DegeneratePairError("pings share the same Einstein time")
    return (ping_b.r_E - ping_a.r_E) / dt
