"""PD trajectory-tracking controller with small-angle attitude targets.

Pipeline (track):
  1. commanded_acceleration: a_cmd = a_d + Kd (v_d - v) + Kp (x_d - x)
  2. attitude_targets:       roll_d = -ay/(g+az), pitch_d = ax/(g+az)
  3. attitude_pd:            angular acceleration commands on roll/pitch
                             (target rates taken as 0)
  4. mixer:                  thrusts = M^-1 (T, Iyy*pitch_acc/L, Ixx*roll_acc/L, 0)
                             T = m sqrt(ax^2 + ay^2 + (g+az)^2)

with the allocation matrix

  M = [[1, 1, 1, 1],
       [0, 1, 0, -1],
       [1, 0, -1, 0],
       [1, -1, 1, -1]]

The right-hand side is ordered so that the commanded roll acceleration lands
on the f1 - f3 channel and pitch on f2 - f4, matching the dynamics' moment
rows exactly: feeding the mixer output through those rows reproduces
(roll_acc, pitch_acc, 0). Yaw is uncontrolled (fourth component 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlInput, QuadrotorParams, QuadrotorState, euler_rate_matrix
from .errors import ConfigError, DegenerateThrustError
from .reference import ReferenceSample

# Guard on the attitude-target denominator g + az, m/s^2. Commands below it
# are rejected, not clamped, to surface controller misuse.
DENOM_MIN = 0.1

ALLOCATION = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, -1.0, 0.0],
        [1.0, -1.0, 1.0, -1.0],
    ]
)
# Exact inverse; entries are dyadic so the hover allocation is exact.
ALLOCATION_INV = np.array(
    [
        [0.25, 0.0, 0.5, 0.25],
        [0.25, 0.5, 0.0, -0.25],
        [0.25, 0.0, -0.5, 0.25],
        [0.25, -0.5, 0.0, -0.25],
    ]
)


@dataclass(frozen=True)
class ControllerGains:
    """Position PD gains (per axis) and attitude PD gains.

    Defaults put the attitude loop roughly five times faster than the
    position loop.
    """

    pos_p: tuple[float, float, float] = (4.0, 4.0, 4.0)  # 1/s^2
    pos_d: tuple[float, float, float] = (3.0, 3.0, 3.0)  # 1/s
    roll_p: float = 70.0  # 1/s^2
    pitch_p: float = 70.0
    roll_d: float = 16.0  # 1/s
    pitch_d: float = 16.0

    def __post_init__(self):
        vals = (*self.pos_p, *self.pos_d, self.roll_p, self.pitch_p, self.roll_d, self.pitch_d)
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ConfigError("gains must be finite and >= 0")


def commanded_acceleration(
    state: QuadrotorState, ref: ReferenceSample, gains: ControllerGains
) -> np.ndarray:
    """a_cmd = a_d + Kd (v_d - v) + Kp (x_d - x), componentwise."""
    kp = np.asarray(gains.pos_p)
    kd = np.asarray(gains.pos_d)
    return (
        ref.acceleration
        + kd * (ref.velocity - state.velocity)
        + kp * (ref.position - state.position)
    )


def attitude_targets(accel_cmd: np.ndarray, gravity: float) -> tuple[float, float]:
    """Small-angle attitude targets (roll_d, pitch_d) for a desired acceleration.

    roll_d = -ay/(g+az), pitch_d = ax/(g+az).

    Raises:
        DegenerateThrustError: g + az <= DENOM_MIN.
    """
    ax, ay, az = accel_cmd
    denom = gravity + az
    if denom <= DENOM_MIN:
        raise DegenerateThrustError(
            f"attitude-target denominator g+az = {denom:.4f} <= {DENOM_MIN}"
        )
    return -ay / denom, ax / denom


def attitude_pd(
    state: QuadrotorState, roll_d: float, pitch_d: float, gains: ControllerGains
) -> tuple[float, float]:
    """PD law on roll/pitch errors; target angular rates are 0.

    Angle rates are the exact Euler rates W^-1 @ omega.
    """
    _, W_inv = euler_rate_matrix(state.attitude)
    eta_dot = W_inv @ state.body_rates
    roll, pitch = state.attitude[0], state.attitude[1]
    roll_acc = gains.roll_p * (roll_d - roll) + gains.roll_d * (0.0 - eta_dot[0])
    pitch_acc = gains.pitch_p * (pitch_d - pitch) + gains.pitch_d * (0.0 - eta_dot[1])
    return roll_acc, pitch_acc


def mixer(
    accel_cmd: np.ndarray,
    roll_acc: float,
    pitch_acc: float,
    params: QuadrotorParams,
) -> ControlInput:
    """Allocate total thrust and angular-acceleration commands to rotors."""
    ax, ay, az = accel_cmd
    total = params.mass * np.sqrt(ax * ax + ay * ay + (params.gravity + az) ** 2)
    ixx, iyy, _ = params.inertia_diag
    rhs = np.array(
        [
            total,
            iyy * pitch_acc / params.arm_span,
            ixx * roll_acc / params.arm_span,
            0.0,
        ]
    )
    return ControlInput(ALLOCATION_INV @ rhs)


def track(
    state: QuadrotorState,
    ref: ReferenceSample,
    gains: ControllerGains,
    params: QuadrotorParams,
) -> ControlInput:
    """Full pipeline producing the nominal (pre-filter) input u_des."""
    accel_cmd = commanded_acceleration(state, ref, gains)
    roll_d, pitch_d = attitude_targets(accel_cmd, params.gravity)
    roll_acc, pitch_acc = attitude_pd(state, roll_d, pitch_d, gains)
    return mixer(accel_cmd, roll_acc, pitch_acc, params)
