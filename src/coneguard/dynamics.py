"""Quadrotor rigid-body dynamics in control-affine form x_dot = f(x) + g(x) u.

State (12,): x = [position(3), velocity(3), attitude(3), body_rates(3)]
  position  inertial frame, meters
  velocity  inertial frame, m/s
  attitude  Euler angles (roll phi, pitch theta, yaw psi), radians, ZYX
  body_rates omega = (w1, w2, w3), body frame, rad/s

Input u = (f1, f2, f3, f4): rotor thrusts in newtons.

Drift f(x):
  p_dot     = v
  v_dot     = (0, 0, -g)
  eta_dot   = W^-1(eta) @ omega
  omega_dot = -I^-1 (omega x I omega)

Actuation g(x) (12x4):
  rows 3:6  = (1/m) R e3 [1 1 1 1]          (thrust along body z)
  rows 9:12 = I^-1 L [[1,0,-1,0],
                      [0,1,0,-1],
                      [1,-1,1,-1]]           (moment mixing, lever arm L)

so that w1_dot ~ (L/Ixx)(f1 - f3), w2_dot ~ (L/Iyy)(f2 - f4),
w3_dot ~ (L/Izz)(f1 - f2 + f3 - f4).

R is the body-to-inertial rotation, ZYX convention R = Rz(psi) Ry(theta) Rx(phi).
W maps Euler-angle rates to body rates, omega = W @ eta_dot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttitudeSingularError, ConfigError, NonFiniteStateError

# Singularity threshold on |cos(theta)| for the Euler-rate transform.
COS_PITCH_MIN = 1e-9

# Moment mixing matrix of the actuation term (columns = rotors 1..4).
MOMENT_MIX = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
    ]
)


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical parameters (defaults are the Crazyflie set).

    arm_span is the lever arm L used by the moment rows; center_offset is the
    distance l of the body center above the base (it is what couples moments
    into the collision-cone barrier). body_width w inflates obstacle radii by
    w/2; the Crazyflie's max width is taken equal to its motor-to-motor span.
    """

    mass: float = 0.027  # kg
    arm_span: float = 0.13  # m
    center_offset: float = 0.014  # m
    inertia_diag: tuple[float, float, float] = (2.39e-5, 2.39e-5, 3.23e-5)  # kg m^2
    gravity: float = 9.81  # m/s^2
    body_width: float = 0.13  # m

    def __post_init__(self):
        vals = (
            self.mass,
            self.arm_span,
            self.center_offset,
            *self.inertia_diag,
            self.gravity,
            self.body_width,
        )
        if not all(np.isfinite(v) and v > 0.0 for v in vals):
            raise ConfigError("all quadrotor parameters must be finite and > 0")

    @property
    def hover_thrust(self) -> float:
        """Per-rotor thrust that balances gravity."""
        return self.mass * self.gravity / 4.0


@dataclass(frozen=True)
class QuadrotorState:
    """Value-semantic 12-dimensional state."""

    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray
    body_rates: np.ndarray

    def __post_init__(self):
        for name in ("position", "velocity", "attitude", "body_rates"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_vector(x: np.ndarray) -> "QuadrotorState":
        x = np.asarray(x, dtype=float).reshape(12)
        return QuadrotorState(x[0:3], x[3:6], x[6:9], x[9:12])

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.position, self.velocity, self.attitude, self.body_rates]
        )

    def validate(self) -> None:
        """Raise if the state leaves the admissible set.

        |roll| and |pitch| must stay below pi/2: the small-angle attitude
        targets and the Euler-rate transform both assume it. Violation is a
        simulation fault, not something to clamp.
        """
        x = self.as_vector()
        if not np.all(np.isfinite(x)):
            raise NonFiniteStateError("state contains non-finite components")
        roll, pitch = self.attitude[0], self.attitude[1]
        if abs(roll) >= np.pi / 2 or abs(pitch) >= np.pi / 2:
            raise AttitudeSingularError(
                f"attitude out of range: roll={roll:.4f}, pitch={pitch:.4f}"
            )


@dataclass(frozen=True)
class ControlInput:
    """Four rotor thrusts in newtons."""

    thrusts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.thrusts, dtype=float).reshape(4).copy()
        if not np.all(np.isfinite(arr)):
            raise ConfigError("thrusts must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "thrusts", arr)


def rotation_matrix(attitude: np.ndarray) -> np.ndarray:
    """Body-to-inertial rotation, ZYX: R = Rz(psi) @ Ry(theta) @ Rx(phi)."""
    phi, theta, psi = attitude
    cphi, sphi = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cpsi, spsi = np.cos(psi), np.sin(psi)
    return np.array(
        [
            [cpsi * cth, cpsi * sth * sphi - spsi * cphi, cpsi * sth * cphi + spsi * sphi],
            [spsi * cth, spsi * sth * sphi + cpsi * cphi, spsi * sth * cphi - cpsi * sphi],
            [-sth, cth * sphi, cth * cphi],
        ]
    )


def euler_rate_matrix(attitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W and W^-1 with omega = W @ eta_dot for the ZYX convention.

    Raises:
        AttitudeSingularError: |cos(theta)| < 1e-9 (gimbal lock).
    """
    phi, theta = attitude[0], attitude[1]
    cphi, sphi = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    if abs(cth) < COS_PITCH_MIN:
        raise AttitudeSingularError(f"euler-rate transform singular at pitch={theta!r}")
    W = np.array(
        [
            [1.0, 0.0, -sth],
            [0.0, cphi, sphi * cth],
            [0.0, -sphi, cphi * cth],
        ]
    )
    tth = sth / cth
    W_inv = np.array(
        [
            [1.0, sphi * tth, cphi * tth],
            [0.0, cphi, -sphi],
            [0.0, sphi / cth, cphi / cth],
        ]
    )
    return W, W_inv


def _derivative(x: np.ndarray, thrusts: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """x_dot = f(x) + g(x) u on raw 12-vectors (hot path for the integrator)."""
    phi, theta = x[6], x[7]
    cphi, sphi = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    if abs(cth) < COS_PITCH_MIN:
        raise AttitudeSingularError(f"euler-rate transform singular at pitch={theta!r}")
    R = rotation_matrix(x[6:9])
    omega = x[9:12]
    I = np.asarray(params.inertia_diag)
    total = thrusts[0] + thrusts[1] + thrusts[2] + thrusts[3]

    out = np.empty(12)
    out[0:3] = x[3:6]
    out[3:6] = R[:, 2] * (total / params.mass)
    out[5] -= params.gravity
    # W^-1 @ omega, written out to avoid building the matrix each stage
    tth = sth / cth
    out[6] = omega[0] + sphi * tth * omega[1] + cphi * tth * omega[2]
    out[7] = cphi * omega[1] - sphi * omega[2]
    out[8] = (sphi * omega[1] + cphi * omega[2]) / cth
    out[9:12] = (-np.cross(omega, I * omega) + params.arm_span * (MOMENT_MIX @ thrusts)) / I
    return out


def step(
    state: QuadrotorState,
    control: ControlInput,
    dt: float,
    params: QuadrotorParams,
) -> QuadrotorState:
    """One classical RK4 step of x_dot = f(x) + g(x) u with u held constant.

    Raises:
        ConfigError: dt <= 0.
        AttitudeSingularError: gimbal lock reached at any stage.
        NonFiniteStateError: the step diverged.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be > 0")
    x = state.as_vector()
    u = control.thrusts
    k1 = _derivative(x, u, params)
    k2 = _derivative(x + 0.5 * dt * k1, u, params)
    k3 = _derivative(x + 0.5 * dt * k2, u, params)
    k4 = _derivative(x + dt * k3, u, params)
    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteStateError("integration step produced non-finite state")
    return QuadrotorState.from_vector(x_next)
