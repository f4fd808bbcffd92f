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

A ``QuadrotorState`` is one read-only 12-vector; its four named parts are
views of it. The control step is small-array work, where numpy spends most
of each call on dispatch, so everything elementwise runs on Python floats:
the RK4 stages and updates on 12-lists, and the sines, cosines and square
roots from ``math``. That rounds exactly as the array code did. Python
float arithmetic is the IEEE double arithmetic numpy applies element by
element, every expression keeps the operation order of its array form, and
math's cos, sin and sqrt return numpy's bits (tests pin this). Dot and
matrix-vector products go to BLAS, whose fused multiply-adds a plain Python
sum would not reproduce, through ``ndarray.dot``: it calls the routine
``@`` calls (ddot, dgemv) on the same operands, so the same bits, without
matmul's generalized-ufunc dispatch (tests pin this for every operand
layout the step passes).

Validation. The public constructors, ``QuadrotorParams``, ``ControlInput``
and both of ``QuadrotorState`` (12 finite numbers), copy their input and
check it with the ``records`` checks (``ConfigError``). Values this module
makes are checked where they are made and not copied again: ``control_of``
checks thrusts the tracking controller has just computed and keeps their
array, and ``step`` checks that the state it returns is finite.
``check_attitude`` refuses |roll| or |pitch| at or past pi/2 in the states
a run steps from and, as ``ConfigError``, in a scenario's start states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AttitudeSingularError, ConfigError, NonFiniteStateError
from .records import checked_array, checked_real, float_copy, prebuilt

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
        for name in ("mass", "arm_span", "center_offset", "gravity", "body_width"):
            value = checked_real(getattr(self, name), name, above=0.0)
            object.__setattr__(self, name, value)
        # a tuple, so the parameter set can key per-parameter caches
        inertia = checked_array(self.inertia_diag, 3, "inertia_diag").tolist()
        inertia = tuple(checked_real(v, "inertia_diag", above=0.0) for v in inertia)
        object.__setattr__(self, "inertia_diag", inertia)


_PARTS = ("position", "velocity", "attitude", "body_rates")


@dataclass(frozen=True, eq=False)
class QuadrotorState:
    """12-dimensional state, held as one read-only vector.

    A state's value is ``as_vector()``: states, like every record that holds
    arrays, compare and hash by identity. position, velocity, attitude and
    body_rates are read-only views of that vector. The four-part constructor
    copies its arguments into it, and ``from_vector`` copies its argument,
    so a state never shares memory with its caller. Either refuses values that are not 12 finite numbers
    (ConfigError).
    """

    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray
    body_rates: np.ndarray

    def __post_init__(self):
        parts = [float_copy(getattr(self, n), 3, n) for n in _PARTS]
        _hold(self, checked_array(np.concatenate(parts), 12, "state", copy=False))

    @staticmethod
    def from_vector(x: np.ndarray) -> "QuadrotorState":
        """The state holding a copy of the 12-vector x."""
        return _wrap(checked_array(x, 12, "state"))

    def as_vector(self) -> np.ndarray:
        """The state's own read-only 12-vector (not a copy)."""
        return self._x


def check_attitude(state: QuadrotorState) -> None:
    """Refuse a state outside the admissible set: |roll| and |pitch| must
    stay below pi/2, as the small-angle attitude targets and the Euler-rate
    transform both assume. Violation is a fault of the run, not something
    to clamp (``ScenarioConfig`` re-raises it for a start state).

    Raises:
        AttitudeSingularError: |roll| or |pitch| >= pi/2.
    """
    roll, pitch = state._x[6:8].tolist()
    if abs(roll) >= math.pi / 2 or abs(pitch) >= math.pi / 2:
        raise AttitudeSingularError(
            f"attitude out of range: roll={roll:.4f}, pitch={pitch:.4f}"
        )


def _hold(state: QuadrotorState, x: np.ndarray) -> None:
    """Make the 12-vector x the state's storage and its fields views of it."""
    x.setflags(write=False)
    state.__dict__.update(
        _x=x, position=x[0:3], velocity=x[3:6], attitude=x[6:9], body_rates=x[9:12]
    )


def _wrap(x: np.ndarray) -> QuadrotorState:
    """A state that takes ownership of the fresh 12-vector x (no copy)."""
    state = object.__new__(QuadrotorState)
    _hold(state, x)
    return state


@dataclass(frozen=True, eq=False)
class ControlInput:
    """Four rotor thrusts in newtons."""

    thrusts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thrusts", checked_array(self.thrusts, 4, "thrusts"))


_control_input = prebuilt(ControlInput)


def control_of(u: np.ndarray) -> ControlInput:
    """The ControlInput that takes the fresh float 4-vector u (no copy),
    checked finite as by the constructor.

    Raises:
        ConfigError: a non-finite thrust.
    """
    return _control_input(checked_array(u, 4, "thrusts", copy=False))


def rotation_matrix(attitude: np.ndarray) -> np.ndarray:
    """Body-to-inertial rotation, ZYX: R = Rz(psi) @ Ry(theta) @ Rx(phi)."""
    phi, theta, psi = np.asarray(attitude, dtype=float).tolist()
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cpsi * cth, cpsi * sth * sphi - spsi * cphi, cpsi * sth * cphi + spsi * sphi],
            [spsi * cth, spsi * sth * sphi + cpsi * cphi, spsi * sth * cphi - cpsi * sphi],
            [-sth, cth * sphi, cth * cphi],
        ]
    )


def thrust_axes(attitudes: np.ndarray) -> np.ndarray:
    """R e3 for each row of an (N, 3) attitude array: rotation_matrix's third
    column, evaluated in its operation order, so with its bits."""
    cphi, sphi = np.cos(attitudes[:, 0]), np.sin(attitudes[:, 0])
    cth, sth = np.cos(attitudes[:, 1]), np.sin(attitudes[:, 1])
    cpsi, spsi = np.cos(attitudes[:, 2]), np.sin(attitudes[:, 2])
    return np.stack(
        [cpsi * sth * cphi + spsi * sphi, spsi * sth * cphi - cpsi * sphi, cth * cphi],
        axis=1,
    )


def euler_rate_matrix(attitude: np.ndarray) -> np.ndarray:
    """W^-1, which maps body rates to Euler-angle rates: eta_dot = W^-1 @ omega.

    Raises:
        AttitudeSingularError: |cos(theta)| < 1e-9 (gimbal lock).
    """
    phi, theta, _ = np.asarray(attitude, dtype=float).tolist()
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    if abs(cth) < COS_PITCH_MIN:
        raise AttitudeSingularError(f"euler-rate transform singular at pitch={theta!r}")
    tth = sth / cth
    return np.array(
        [
            [1.0, sphi * tth, cphi * tth],
            [0.0, cphi, -sphi],
            [0.0, sphi / cth, cphi / cth],
        ]
    )


def _cross(a, b) -> tuple[float, float, float]:
    """a x b of two 3-sequences of floats: numpy's cross formula, in its order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _derivative(
    x: list[float],
    thrust_accel: float,
    torque: list[float],
    inertia: tuple[float, float, float],
    gravity: float,
) -> list[float]:
    """x_dot = f(x) + g(x) u on a 12-list of floats (the integrator's hot path).

    Each expression keeps the operation order of its array form: R e3 is
    ``rotation_matrix``'s third column, W^-1 omega is written out, and
    omega x I omega is numpy's cross formula, so the result has the array
    code's bits (see the module docstring). The thrusts are held over an
    RK4 step, so the terms that depend on them and the parameters only are
    fixed for all four stages and come in from ``step``: thrust_accel =
    total thrust / m, torque = L (MOMENT_MIX @ u), and the inertia diagonal.
    """
    phi, theta, psi = x[6], x[7], x[8]
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    if abs(cth) < COS_PITCH_MIN:
        raise AttitudeSingularError(f"euler-rate transform singular at pitch={theta!r}")
    cpsi, spsi = math.cos(psi), math.sin(psi)
    omega = x[9:12]
    w0, w1, w2 = omega
    i0, i1, i2 = inertia
    gyro = _cross(omega, (i0 * w0, i1 * w1, i2 * w2))
    tth = sth / cth
    return [
        x[3],
        x[4],
        x[5],
        (cpsi * sth * cphi + spsi * sphi) * thrust_accel,
        (spsi * sth * cphi - cpsi * sphi) * thrust_accel,
        cth * cphi * thrust_accel - gravity,
        w0 + sphi * tth * w1 + cphi * tth * w2,
        cphi * w1 - sphi * w2,
        (sphi * w1 + cphi * w2) / cth,
        (-gyro[0] + torque[0]) / i0,
        (-gyro[1] + torque[1]) / i1,
        (-gyro[2] + torque[2]) / i2,
    ]


def step(
    state: QuadrotorState,
    control: ControlInput,
    dt: float,
    params: QuadrotorParams,
) -> QuadrotorState:
    """One classical RK4 step of x_dot = f(x) + g(x) u with u held constant.

    The stages run on 12-lists of floats, each update in the operation
    order of its array form x + (h k), x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).

    Raises:
        ConfigError: dt is not a number > 0.
        AttitudeSingularError: gimbal lock reached at any stage.
        NonFiniteStateError: the step diverged.
    """
    try:
        if not dt > 0.0:  # true for nan
            raise TypeError
    except TypeError:  # dt is not a number, or not > 0
        raise ConfigError(f"dt must be a number > 0, got {dt!r}") from None
    x = state.as_vector().tolist()
    u = control.thrusts
    u0, u1, u2, u3 = u.tolist()
    fixed = (
        (u0 + u1 + u2 + u3) / params.mass,
        (params.arm_span * MOMENT_MIX.dot(u)).tolist(),
        params.inertia_diag,
        params.gravity,
    )
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        k1 = _derivative(x, *fixed)
        k2 = _derivative([a + half * b for a, b in zip(x, k1)], *fixed)
        k3 = _derivative([a + half * b for a, b in zip(x, k2)], *fixed)
        k4 = _derivative([a + dt * b for a, b in zip(x, k3)], *fixed)
    except ValueError:  # math.cos or sin of a stage angle that overflowed
        raise NonFiniteStateError("integration stage left the finite range") from None
    x_next = [
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
    ]
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteStateError("integration step produced non-finite state")
    return _wrap(np.array(x_next))
