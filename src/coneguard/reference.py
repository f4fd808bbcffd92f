"""Reference trajectories for the tracking controller.

A reference is sampled as (position, velocity, acceleration) at time t.
Built-ins: hover point, straight line at constant speed, waypoint sequence
with constant-speed segments (position continuous, velocity piecewise
constant, acceleration zero).

A reference copies and checks its inputs once, when it is built, and holds
them read-only; a sample hands out those arrays (and one shared read-only
zero vector) rather than copies, so the samples' arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .records import checked_array, checked_real, prebuilt


@dataclass(frozen=True, eq=False)
class ReferenceSample:
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


_sample = prebuilt(ReferenceSample)
_ZERO = np.zeros(3)
_ZERO.setflags(write=False)
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))  # about 1.5e-154


class HoverReference:
    """Fixed point, zero velocity/acceleration."""

    def __init__(self, point):
        self.point = checked_array(point, 3, "hover point")

    def sample(self, t: float) -> ReferenceSample:
        return _sample(self.point, _ZERO, _ZERO)


class LineReference:
    """Straight line start + velocity * t."""

    def __init__(self, start, velocity):
        self.start = checked_array(start, 3, "line start")
        self.velocity = checked_array(velocity, 3, "line velocity")

    def sample(self, t: float) -> ReferenceSample:
        return _sample(self.start + self.velocity * t, self.velocity, _ZERO)


class WaypointReference:
    """Piecewise-linear path through waypoints at constant speed.

    Velocity is piecewise constant (discontinuous at waypoints); after the
    last waypoint the reference hovers there.
    """

    def __init__(self, points, speed: float):
        pts = checked_array(points, (-1, 3), "waypoints")
        if len(pts) < 2:
            raise ConfigError("waypoint reference needs at least two points")
        self.points = pts
        self.speed = checked_real(speed, "speed", above=0.0)
        # an overflowing length is refused below, an overflowing knot never reached
        with np.errstate(over="ignore"):
            seg = np.diff(pts, axis=0)
            seg_len = np.linalg.norm(seg, axis=1)
        if np.any(np.all(seg == 0.0, axis=1)):
            raise ConfigError("consecutive waypoints must be distinct")
        if not np.all(np.isfinite(seg_len)):
            raise ConfigError("waypoint segment length overflows")
        # below 1e-154 the squares in the norm underflow: scale those segments first
        tiny = seg_len < _SQRT_TINY
        if np.any(tiny):
            largest = np.max(np.abs(seg[tiny]), axis=1)
            seg_len[tiny] = largest * np.linalg.norm(seg[tiny] / largest[:, None], axis=1)
        with np.errstate(over="ignore"):
            self._t_knots = np.concatenate([[0.0], np.cumsum(seg_len) / self.speed])
        self._seg_dir = seg / seg_len[:, None]

    def sample(self, t: float) -> ReferenceSample:
        if t >= self._t_knots[-1]:
            return _sample(self.points[-1], _ZERO, _ZERO)
        i = int(np.searchsorted(self._t_knots, t, side="right") - 1)
        i = max(i, 0)
        pos = self.points[i] + self._seg_dir[i] * self.speed * (t - self._t_knots[i])
        return _sample(pos, self._seg_dir[i] * self.speed, _ZERO)
