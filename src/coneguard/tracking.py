"""PD trajectory-tracking controller with small-angle attitude targets.

Pipeline (track):
  1. commanded_acceleration: a_cmd = a_d + Kd (v_d - v) + Kp (x_d - x)
  2. attitude_targets:       roll_d = -ay/(g+az), pitch_d = ax/(g+az)
  3. attitude_pd:            angular acceleration commands on roll/pitch
                             (target rates taken as 0)
  4. mixer:                  thrusts = M^-1 (T, Iyy*pitch_acc/L, Ixx*roll_acc/L, 0)
                             T = m sqrt(ax^2 + ay^2 + (g+az)^2)

with the allocation matrix M: a row of ones (total thrust) over the moment
rows of ``dynamics.MOMENT_MIX`` (the rotor layout's one spelling) in the
order pitch (f2 - f4), roll (f1 - f3), yaw. M's rows are orthogonal, with
squared norms 4, 2, 2, 4, so M^-1 = M^T diag(1/4, 1/2, 1/2, 1/4) exactly.

The right-hand side is ordered so that the commanded roll acceleration lands
on the f1 - f3 channel and pitch on f2 - f4, matching the dynamics' moment
rows exactly: feeding the mixer output through those rows reproduces
(roll_acc, pitch_acc, 0). Yaw is uncontrolled (fourth component 0).

Scalars run on Python floats and matrix products on numpy, for the reasons
and with the rounding the ``dynamics`` module docstring gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    MOMENT_MIX,
    ControlInput,
    QuadrotorParams,
    QuadrotorState,
    control_of,
    euler_rate_matrix,
)
from .errors import DegenerateThrustError
from .records import checked_array, checked_real
from .reference import ReferenceSample

# Guard on the attitude-target denominator g + az, m/s^2. Commands below it
# are rejected, not clamped, to surface controller misuse.
DENOM_MIN = 0.1

# The allocation matrix M of the module docstring and its exact inverse;
# entries are dyadic so the hover allocation is exact. C order: dgemv's
# rounding depends on the layout, and the mixer's bits are C order's.
_ALLOCATION = np.array([np.ones(4), MOMENT_MIX[1], MOMENT_MIX[0], MOMENT_MIX[2]])
ALLOCATION_INV = np.divide(
    _ALLOCATION.T, (_ALLOCATION * _ALLOCATION).sum(axis=1), order="C"
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
        for name in ("pos_p", "pos_d"):
            triple = checked_array(getattr(self, name), 3, name).tolist()
            triple = tuple(checked_real(v, name, at_least=0.0) for v in triple)
            object.__setattr__(self, name, triple)
        for name in ("roll_p", "pitch_p", "roll_d", "pitch_d"):
            value = checked_real(getattr(self, name), name, at_least=0.0)
            object.__setattr__(self, name, value)


def commanded_acceleration(
    state: QuadrotorState, ref: ReferenceSample, gains: ControllerGains
) -> list[float]:
    """a_cmd = a_d + Kd (v_d - v) + Kp (x_d - x), componentwise on floats."""
    return [
        a + kd * (vd - v) + kp * (xd - x)
        for a, kd, vd, v, kp, xd, x in zip(
            ref.acceleration.tolist(),
            gains.pos_d,
            ref.velocity.tolist(),
            state.velocity.tolist(),
            gains.pos_p,
            ref.position.tolist(),
            state.position.tolist(),
        )
    ]


def attitude_targets(accel_cmd, gravity: float) -> tuple[float, float]:
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
    W_inv = euler_rate_matrix(state.attitude)
    roll_rate, pitch_rate, _ = W_inv.dot(state.body_rates).tolist()
    roll, pitch, _ = state.attitude.tolist()
    roll_acc = gains.roll_p * (roll_d - roll) + gains.roll_d * (0.0 - roll_rate)
    pitch_acc = gains.pitch_p * (pitch_d - pitch) + gains.pitch_d * (0.0 - pitch_rate)
    return roll_acc, pitch_acc


def mixer(
    accel_cmd,
    roll_acc: float,
    pitch_acc: float,
    params: QuadrotorParams,
) -> ControlInput:
    """Allocate total thrust and angular-acceleration commands to rotors.

    The thrusts are checked here, where they are made, and the returned
    input holds the allocation's own array.

    Raises:
        DegenerateThrustError: the commanded thrust overflows.
        ConfigError: a non-finite thrust.
    """
    ax, ay, az = accel_cmd
    try:
        total = params.mass * math.sqrt(ax * ax + ay * ay + (params.gravity + az) ** 2)
    except OverflowError:  # float ** raises where numpy's gave inf
        raise DegenerateThrustError("commanded thrust overflows") from None
    ixx, iyy, _ = params.inertia_diag
    rhs = np.array(
        [
            total,
            iyy * pitch_acc / params.arm_span,
            ixx * roll_acc / params.arm_span,
            0.0,
        ]
    )
    return control_of(ALLOCATION_INV.dot(rhs))


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
