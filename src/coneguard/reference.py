"""Reference trajectories for the tracking controller.

A reference is sampled as (position, velocity, acceleration) at time t.
Built-ins: hover point, straight line at constant speed, waypoint sequence
with constant-speed segments (position continuous, velocity piecewise
constant, acceleration zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ReferenceSample:
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


def _finite(values, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{what} must be finite")
    return array


class HoverReference:
    """Fixed point, zero velocity/acceleration."""

    def __init__(self, point):
        self.point = _finite(point, "hover point").reshape(3)

    def sample(self, t: float) -> ReferenceSample:
        return ReferenceSample(self.point.copy(), np.zeros(3), np.zeros(3))


class LineReference:
    """Straight line start + velocity * t."""

    def __init__(self, start, velocity):
        self.start = _finite(start, "line start").reshape(3)
        self.velocity = _finite(velocity, "line velocity").reshape(3)

    def sample(self, t: float) -> ReferenceSample:
        return ReferenceSample(
            self.start + self.velocity * t, self.velocity.copy(), np.zeros(3)
        )


class WaypointReference:
    """Piecewise-linear path through waypoints at constant speed.

    Velocity is piecewise constant (discontinuous at waypoints); after the
    last waypoint the reference hovers there.
    """

    def __init__(self, points, speed: float):
        pts = _finite(points, "waypoints").reshape(-1, 3)
        if len(pts) < 2:
            raise ConfigError("waypoint reference needs at least two points")
        if not (np.isfinite(speed) and speed > 0.0):
            raise ConfigError(f"speed must be finite and > 0, got {speed!r}")
        self.points = pts
        self.speed = float(speed)
        seg = np.diff(pts, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        if np.any(seg_len == 0.0):
            raise ConfigError("consecutive waypoints must be distinct")
        self._seg_dir = seg / seg_len[:, None]
        self._t_knots = np.concatenate([[0.0], np.cumsum(seg_len) / self.speed])

    def sample(self, t: float) -> ReferenceSample:
        if t >= self._t_knots[-1]:
            return ReferenceSample(self.points[-1].copy(), np.zeros(3), np.zeros(3))
        i = int(np.searchsorted(self._t_knots, t, side="right") - 1)
        i = max(i, 0)
        pos = self.points[i] + self._seg_dir[i] * self.speed * (t - self._t_knots[i])
        return ReferenceSample(pos, self._seg_dir[i] * self.speed, np.zeros(3))
