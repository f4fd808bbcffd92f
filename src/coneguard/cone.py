"""Collision-cone barrier: one formula with two knobs, one QP row per obstacle.

Every barrier in the package is

    h = <p, v> + weight * s,    s = sqrt(max(||p||^2 - r^2, 0)),

on the position p and velocity v of an obstacle center relative to the
quadrotor's body center (position + R e3 l), for a radius r. Two knobs pick
the variant:

- the projector: none for a sphere, or P = I - n n^T for a cylinder with
  axis n, applied to p and v so that nothing along the axis enters;
- the weight: ||v|| for the collision cone, or a constant gamma for the
  higher-order baseline. With weight ||v||, h >= 0 exactly when v points
  outside the cone of half-angle phi, cos(phi) = s/||p||, so keeping h >= 0
  keeps the relative velocity off every collision course.

``cone_terms`` evaluates the formula on (p, v, r, weight) alone. Along the
closed loop its time derivative is affine in the rotor thrusts f,

    dh/dt = rate + <w, a_d> + input_row . f,    input_row = -M^T (R^T w),

with w = dh/dv (p + v s/||v|| for the cone, p for a constant weight), rate
the derivative at zero relative acceleration (||v||^2 + weight <p, v>/s),
a_d the thrust-independent part of -d(v_rel)/dt, and M the map from rotor
thrust to body-frame acceleration of the body center. R, the body center
and a_d depend on the vehicle only, so ``BodyFrame`` computes them once per
control step; -M^T (``input_map``) is built once per parameter set.
``contract`` turns a frame and the cone terms into (drift, input_row), and
``barrier_row`` into the QP row input_row . f + drift + kappa_gamma h >= 0,
whose last term is the linear class-K function of h. A constant projector
commutes with d/dt and w lies in its range, so cylinders contract with the
same unprojected maps. Constant-velocity obstacles enter through p and v
only.

``barrier_3d`` and ``barrier_projection`` are the collision-cone adapters:
the inflated radius, no projector or the axis projector, and weight ||v||.
``barrier_ho`` is the higher-order baseline (Xiao & Belta, CDC 2019): from
b = ||p||^2 - r^2, one derivative chain with a square-root class-K function
collapses to h = <p, v> + gamma s, no projector and the constant weight
gamma, so dh/dv = p. Its effective half angle phi' has cos(phi') =
(gamma/||v||) cos(phi): above a closing speed of gamma its cone is wider than
the true one, and gamma = ||v|| pointwise recovers the cone barrier. It sees
each obstacle as its encompassing sphere, so it misjudges elongated shapes.
All three adapters return the cone terms, which carry h, the clearance
||p|| - r and phi, and the row.

``barrier_stack`` is the same collision cone for all N obstacles of a step
at once: (N, 3) relative states and (N,) inflated radii in, as
``ObstacleStack`` builds them, cylinder rows projected; h, clearance, phi,
the (N, 4) input rows and the (N,) offsets out. It keeps the scalar path's
operation order, and each value the bits ``barrier_3d`` and
``barrier_projection`` give it: every row-wise dot, w . a_d included, is
one ``np.vecdot``, the 1-D dot of each row, and R^T w and -M^T y are the
per-step matrices broadcast over (N, 3, 1), the matrix-vector product of
each row (w @ R may flip the sign of a zero). ``ObstacleStack`` and
``cone_angles``, the kernel's p -> ||p||, s, phi steps, also run the
harness's phi'/phi replay, over all its recorded rows at once. The kernel
checks every row in one array test: min ||input_row|| > GRADIENT_MIN, and
a finite sum of all entries and offsets (a nan or an inf makes it
non-finite). Only when that fails does it check row by row, with the
``qp`` checks ``contract`` and ``barrier_row`` call, and raise the first
bad row's error in obstacle order, the vanished gradient before the finite
check. The harness takes it for C3BF steps with at least
``harness.STACK_MIN_ROWS`` rows and the scalar adapters below that.

The gradient check rests on a lemma. M's rows are orthogonal, M M^T =
diag(2 b^2, 2 a^2, 4/m^2) with a = l L/Ixx and b = l L/Iyy, so with y = R^T w

    ||input_row||^2 = 2 b^2 y_0^2 + 2 a^2 y_1^2 + (4/m^2) y_2^2
                   >= sigma_min^2 ||w||^2,   sigma_min = min(sqrt(2) a, sqrt(2) b, 2/m).

For the cone ||w|| >= ||p|| - s = r^2 / (||p|| + s) outside the radius and
||w|| = ||p|| inside it; for a constant weight w = p. A row can vanish only
where p does (the obstacle center on the body center) or sigma_min does,
as l -> 0 (``QuadrotorParams`` refuses l = 0, not a tiny l). Those, and
non-finite states, are what ``DegenerateGradientError`` still catches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dynamics import QuadrotorParams, QuadrotorState, _cross, rotation_matrix
from .errors import ConfigError
from .qp import GRADIENT_MIN, _check_finite, _check_gradient
from .records import check_label, checked_array, checked_real

EPS_V = 1e-6  # ||v_rel|| regularization floor (m/s)
EPS_SQRT = 1e-9  # guard for the ||p_rel|| division in cos(phi)
# The drift term divides by sqrt(||p_rel||^2 - r^2), which vanishes at the
# inflated surface. A boundary-riding trajectory sits at s ~ sqrt(2 r d) for
# clearance d (~1e-2 for millimeter grazing), so the floor must stay below
# that to keep the riding equilibrium exact; it only engages in the last
# ~2 microns before contact, where it bounds the constraint offset instead
# of letting it diverge.
S_FLOOR = 1e-3
# Same surface-singularity guard for the constant weight, but an order of
# magnitude wider: the baseline exists to show failure cases, and when it
# does cross the inflated surface the run has to stay integrable so the
# penetration depth can be reported. The cone filter never crosses, so it
# keeps the tight floor.
S_FLOOR_HO = 5e-2

_E3_FLOATS = (0.0, 0.0, 1.0)
_E3 = np.array(_E3_FLOATS)


@dataclass(frozen=True, eq=False)
class Obstacle:
    """Spherical or cylindrical obstacle translating at constant velocity.

    Cylinders are modeled as infinite along their axis: height never enters
    the cone constraint, and sizes only the HO-CBF baseline's encompassing
    sphere (``encompassing_radius``).
    """

    kind: str  # "sphere" | "cylinder"
    center: np.ndarray  # position of the center at t = 0 (m)
    radius_raw: float  # geometric radius before inflation (m)
    velocity: np.ndarray = (0.0, 0.0, 0.0)  # constant (m/s)
    axis: np.ndarray | None = None  # cylinder axis, unit vector
    height: float | None = None  # cylinder height (m), HO-CBF sphere only
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("sphere", "cylinder"):
            raise ConfigError(f"unknown obstacle kind {self.kind!r}")
        check_label(self.label)
        for name in ("center", "velocity"):
            value = checked_array(getattr(self, name), 3, name)
            object.__setattr__(self, name, value)
        radius = checked_real(self.radius_raw, "radius_raw", above=0.0)
        object.__setattr__(self, "radius_raw", radius)
        if self.kind == "sphere":
            if self.axis is not None or self.height is not None:
                raise ConfigError("sphere takes no axis/height")
            return
        if self.axis is None:
            raise ConfigError("cylinder needs an axis")
        axis = checked_array(self.axis, 3, "cylinder axis")
        object.__setattr__(self, "axis", axis)
        if abs(math.hypot(*axis.tolist()) - 1.0) > 1e-12:  # hypot: no overflow
            raise ConfigError("cylinder axis must be unit length")
        # axial velocity is allowed: the column is infinite, so sliding
        # along its own axis never moves the constraint surface
        if self.height is not None:
            height = checked_real(self.height, "cylinder height", above=0.0)
            object.__setattr__(self, "height", height)
        # the constant projector P = I - n n^T of every cylinder row, built once
        object.__setattr__(self, "_projector", np.eye(3) - np.outer(axis, axis))


def inflated_radius(obstacle: Obstacle, body_width: float) -> float:
    """Effective obstacle radius r = radius_raw + w/2.

    w is the quadrotor's max width, absorbed into the obstacle so the vehicle
    can be treated as a point. For a circular cylinder the second-largest
    half-extent is the cross-sectional radius regardless of height, so both
    shapes inflate their radius_raw. Both inputs are validated positive.
    """
    return obstacle.radius_raw + 0.5 * body_width


@lru_cache(maxsize=16)
def input_map(params: QuadrotorParams) -> np.ndarray:
    """-M^T, which takes y = R^T w to the input row, for M the body-frame
    acceleration of the offset body center per unit rotor thrust.

    Column k of M is m_k = e3/m + l (gk x e3), gk being rotor k's angular
    acceleration column; the lever term comes from differentiating R e3 l
    twice and keeping the f-dependent part of omega_dot. Built once per
    parameter set (the 16 latest are kept) and returned read-only, in the
    column-major layout of -M.T, so every product with it keeps its bits.
    """
    m, L, l = params.mass, params.arm_span, params.center_offset
    ixx, iyy, _ = params.inertia_diag
    a, b = l * L / ixx, l * L / iyy
    M = np.array(
        [
            [0.0, b, 0.0, -b],
            [-a, 0.0, a, 0.0],
            [1.0 / m, 1.0 / m, 1.0 / m, 1.0 / m],
        ]
    )
    neg_mt = -M.T
    neg_mt.setflags(write=False)
    return neg_mt


class BodyFrame:
    """The vehicle terms of one control step, shared by every obstacle.

    R: body-to-inertial rotation.
    position, velocity: the body center position + R e3 l and its rate;
        d/dt (R e3) = R (omega x e3).
    a_d: thrust-independent part of -d(v_rel)/dt,
        (0, 0, g) - l R [omega x (omega x e3) + (I^-1 (-omega x I omega)) x e3],
        so that d(v_rel)/dt = a_d - R M f (a constant obstacle velocity
        contributes nothing).
    input_map: input_map(params), -M^T.

    The frame is built whole, every term on construction. The elementwise
    terms run on Python floats in the operation order of their array form
    (the cross products are numpy's formula), and the R products are
    ``ndarray.dot`` (``cone_terms``).
    """

    def __init__(self, state: QuadrotorState, params: QuadrotorParams):
        self.R = R = rotation_matrix(state.attitude)
        l, inertia = params.center_offset, params.inertia_diag
        omega = state.body_rates.tolist()
        omega_e3 = _cross(omega, _E3_FLOATS)
        self.position = state.position + R.dot(_E3) * l
        self.velocity = state.velocity + R.dot(np.array(omega_e3)) * l
        self.input_map = input_map(params)
        gyro = _cross(omega, [i * w for i, w in zip(inertia, omega)])
        omega_dot_drift = [-c / i for c, i in zip(gyro, inertia)]
        drift_e3 = _cross(omega_dot_drift, _E3_FLOATS)
        spin = [a + b for a, b in zip(_cross(omega, omega_e3), drift_e3)]
        r0, r1, r2 = R.dot(np.array(spin)).tolist()
        self.a_d = np.array([0.0 - l * r0, 0.0 - l * r1, params.gravity - l * r2])

    def relative(self, obstacle: Obstacle, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(p_rel, v_rel): the obstacle center at time t minus the body center."""
        center = obstacle.center + obstacle.velocity * t
        return center - self.position, obstacle.velocity - self.velocity


class ConeTerms(NamedTuple):
    """The barrier formula evaluated on one (p, v, r, weight)."""

    h: float  # <p, v> + weight s, s = sqrt(max(||p||^2 - r^2, 0))
    clearance: float  # ||p|| - r
    w: np.ndarray  # dh/dv
    phi: float  # half angle of the cone h >= 0 keeps v out of (rad)
    rate: float  # dh/dt at zero relative acceleration


def cone_terms(
    p: np.ndarray, v: np.ndarray, r: float, gamma: float | None = None
) -> ConeTerms:
    """Evaluate h = <p, v> + weight sqrt(max(||p||^2 - r^2, 0)); raises nothing.

    gamma=None is the collision cone: weight ||v||, floor S_FLOOR, and phi
    with cos(phi) = s/||p||. A float gamma is the higher-order baseline:
    weight gamma, floor S_FLOOR_HO, and the effective half angle phi'.
    Inside the radius s is clamped to 0, which leaves the plain closing-speed
    term and phi = pi/2; the floor bounds the 1/s in rate there. The cone
    squares ||p|| and the baseline takes <p, p>, as each has always rounded.

    Scalars are Python floats: a norm is sqrt(x . x), which is how numpy's
    norm computes a 1-D one, and the clip of cos(phi) is min/max. The dots
    are ``ndarray.dot``, which keeps ``@``'s bits (``dynamics`` docstring).
    """
    pv = float(p.dot(v))
    norm_v = math.sqrt(float(v.dot(v)))
    p_norm = math.sqrt(float(p.dot(p)))
    if gamma is None:
        weight, floor = norm_v, S_FLOOR
        s = math.sqrt(max(p_norm * p_norm - r * r, 0.0))
        w = p + v * (s / max(norm_v, EPS_V))
        cos_phi = s / max(p_norm, EPS_SQRT)
    else:
        weight, floor = gamma, S_FLOOR_HO
        s = math.sqrt(max(float(p.dot(p)) - r * r, 0.0))
        w = p
        cos_phi = gamma * (s / max(p_norm, EPS_SQRT)) / max(norm_v, EPS_V)
    return ConeTerms(
        h=pv + weight * s,
        clearance=p_norm - r,
        w=w,
        phi=float(np.arccos(min(max(cos_phi, 0.0), 1.0))),
        rate=norm_v * norm_v + weight * pv / max(s, floor),
    )


def contract(
    frame: BodyFrame, terms: ConeTerms, label: str
) -> tuple[float, np.ndarray]:
    """(drift, input_row) with dh/dt = drift + input_row . f.

    Raises:
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    input_row = frame.input_map.dot(frame.R.T.dot(terms.w))
    _check_gradient(math.sqrt(float(input_row.dot(input_row))), label)
    return terms.rate + float(terms.w.dot(frame.a_d)), input_row


def barrier_row(
    frame: BodyFrame, terms: ConeTerms, kappa_gamma: float, label: str
) -> tuple[np.ndarray, float]:
    """(input_row, offset) of the QP row input_row . f + offset >= 0, with
    offset = drift + kappa_gamma h.

    The row is checked here, where it is made, and handed to the QP as it
    is: ``contract`` bounds ||input_row|| away from 0, and this checks that
    every entry is finite, with ``qp``'s row checks.

    Raises:
        DegenerateGradientError: ||input_row|| <= 1e-10.
        ConfigError: a non-finite row entry or offset.
    """
    drift, input_row = contract(frame, terms, label)
    offset = drift + kappa_gamma * terms.h
    _check_finite(input_row.tolist(), offset)
    return input_row, offset


def cone_angles(p: np.ndarray, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||p||, s, phi) of each row of an (N, 3) p for the radius r, a float
    or (N,): ``cone_terms``'s collision-cone steps, rowwise, with its bits."""
    p_norm = np.sqrt(np.vecdot(p, p))
    s = np.sqrt(np.maximum(p_norm * p_norm - r * r, 0.0))
    cos_phi = s / np.maximum(p_norm, EPS_SQRT)
    return p_norm, s, np.arccos(np.minimum(np.maximum(cos_phi, 0.0), 1.0))


class ObstacleStack:
    """N obstacles as arrays, built once: centers, velocities and inflated
    radii, one row each, and the cylinders' projectors; N may be 0. They are
    the inputs of ``barrier_stack`` and of the phi'/phi replay."""

    def __init__(self, obstacles: tuple[Obstacle, ...], body_width: float):
        self.centers = np.reshape([o.center for o in obstacles], (-1, 3))
        self.velocities = np.reshape([o.velocity for o in obstacles], (-1, 3))
        self.radii = np.array([inflated_radius(o, body_width) for o in obstacles])
        # the cylinder rows of p, then of v, in the (2N, 3) array of both
        twice = obstacles * 2
        self.cylinders = np.flatnonzero([o.kind == "cylinder" for o in twice])
        self.projectors = np.array([twice[i]._projector for i in self.cylinders])

    def relative(self, position, velocity, t) -> tuple[np.ndarray, np.ndarray]:
        """(p, v) of every obstacle as ``cone_geometry`` gives them, from a
        body center at position moving at velocity: (N, 3) each at one step,
        or (n, N, 3) from n recorded rows, for (n, 1, 3) position and velocity
        and (n, 1, 1) times t. They are the halves of one array, so that one
        matmul projects the cylinder rows of both."""
        p = self.centers + self.velocities * t - position
        pv = np.concatenate((p, self.velocities - velocity), axis=-2)
        if self.cylinders.size:
            rows = self.cylinders
            pv[..., rows, :] = np.matmul(self.projectors, pv[..., rows, :, None])[..., 0]
        n = len(self.radii)
        return pv[..., :n, :], pv[..., n:, :]


class ConeStack(NamedTuple):
    """The collision-cone barrier of N obstacles, one entry or row each."""

    h: np.ndarray  # (N,)
    clearance: np.ndarray  # (N,) ||p|| - r
    phi: np.ndarray  # (N,)
    input_rows: np.ndarray  # (N, 4), read-only
    offsets: np.ndarray  # (N,) drift + kappa_gamma h, read-only


def barrier_stack(
    frame: BodyFrame,
    p: np.ndarray,
    v: np.ndarray,
    r: np.ndarray,
    kappa_gamma: float,
    labels: tuple[str, ...],
) -> ConeStack:
    """The rows input_row . f + drift + kappa_gamma h >= 0 of N obstacles.

    p and v are the (N, 3) relative states as ``cone_geometry`` gives them
    (cylinder rows projected) and r the (N,) inflated radii. Each value has
    the bits of ``cone_terms``, ``contract`` and ``barrier_row`` on its row.
    numpy's floating-point warnings are off: a non-finite value fails its
    row's finite check. Every row is checked in one array test (module
    docstring); only when a row fails are the rows checked one by one, as
    ``contract`` and ``barrier_row`` check them, for the first bad row's
    error.

    Raises:
        DegenerateGradientError: a row with ||input_row|| <= 1e-10.
        ConfigError: a non-finite row entry or offset.
        The first bad row raises; one that fails both raises the gradient error.
    """
    with np.errstate(all="ignore"):
        pv = np.vecdot(p, v)
        norm_v = np.sqrt(np.vecdot(v, v))
        p_norm, s, phi = cone_angles(p, r)
        w = p + v * (s / np.maximum(norm_v, EPS_V))[:, None]
        rate = norm_v * norm_v + norm_v * pv / np.maximum(s, S_FLOOR)
        y = np.matmul(frame.R.T, w[:, :, None])
        input_rows = np.matmul(frame.input_map, y)[:, :, 0]
        h = pv + norm_v * s
        drift = rate + np.vecdot(w, frame.a_d)
        offsets = drift + kappa_gamma * h
        gradient = np.sqrt(np.vecdot(input_rows, input_rows))
        # a nan or inf entry makes the sum non-finite (an overflowing sum of
        # finite ones only sends the rows to the per-row checks)
        checked = gradient.min(initial=np.inf) > GRADIENT_MIN and math.isfinite(
            input_rows.sum() + offsets.sum()
        )
    if not checked:
        checks = zip(labels, gradient.tolist(), input_rows.tolist(), offsets.tolist())
        for label, norm, row, offset in checks:
            _check_gradient(norm, label)
            _check_finite(row, offset)
    input_rows.setflags(write=False)
    offsets.setflags(write=False)
    return ConeStack(h, p_norm - r, phi, input_rows, offsets)


def cone_geometry(
    frame: BodyFrame, obstacle: Obstacle, params: QuadrotorParams, t: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """(p, v, r) as the collision cone sees the obstacle.

    r is the inflated radius; a cylinder's p_rel and v_rel are projected
    onto the plane perpendicular to its axis (infinite-cylinder model) by
    the projector the obstacle built once.
    """
    p, v = frame.relative(obstacle, t)
    r = inflated_radius(obstacle, params.body_width)
    if obstacle.kind == "cylinder":
        P = obstacle._projector
        return P.dot(p), P.dot(v), r
    return p, v, r


def barrier_3d(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    kappa_gamma: float,
    t: float,
    label: str = "",
) -> tuple[ConeTerms, tuple[np.ndarray, float]]:
    """Spherical-obstacle barrier row for the safety QP.

    Args:
        frame: the vehicle terms of this control step.
        obstacle: sphere (cylinders go through barrier_projection).
        params: vehicle parameters (the body width inflates the radius).
        kappa_gamma: gain of the linear class-K term; the row offset is
            drift + kappa_gamma h.
        t: simulation time.
        label: label of the QP row.

    Returns:
        (ConeTerms, (input_row, offset)): the terms carry h and phi, and
        the row is ``barrier_row``'s, input_row . f + offset >= 0 with
        offset = drift + kappa_gamma h.

    Raises:
        ConfigError: called with a cylinder.
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    if obstacle.kind != "sphere":
        raise ConfigError("barrier_3d expects a sphere")
    terms = cone_terms(*cone_geometry(frame, obstacle, params, t))
    return terms, barrier_row(frame, terms, kappa_gamma, label)


def barrier_projection(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    kappa_gamma: float,
    t: float,
    label: str = "",
) -> tuple[ConeTerms, tuple[np.ndarray, float]]:
    """Cylindrical-obstacle barrier row: the cone in the plane ⊥ to the axis.

    The projector P = I - n n^T is constant, so the projected relative state
    differentiates componentwise and <w_proj, P a> = <w_proj, a> for any w_proj
    in the projection plane. The drift and input contractions therefore use
    the unprojected acceleration maps. Arguments as for barrier_3d.

    Raises:
        ConfigError: called with a sphere.
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    if obstacle.kind != "cylinder":
        raise ConfigError("barrier_projection expects a cylinder")
    terms = cone_terms(*cone_geometry(frame, obstacle, params, t))
    return terms, barrier_row(frame, terms, kappa_gamma, label)


def encompassing_radius(obstacle: Obstacle) -> float:
    """Largest half-extent: the sphere that contains the whole obstacle."""
    if obstacle.kind == "cylinder" and obstacle.height is not None:
        return max(obstacle.radius_raw, 0.5 * obstacle.height)
    return obstacle.radius_raw


def barrier_ho(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    kappa_gamma: float,
    hocbf_gamma: float,
    t: float,
    label: str = "",
) -> tuple[ConeTerms, tuple[np.ndarray, float]]:
    """Higher-order baseline row: the cone terms with the encompassing radius,
    no projector and weight hocbf_gamma; other arguments as for barrier_3d.

    Raises:
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    p, v = frame.relative(obstacle, t)
    r = encompassing_radius(obstacle) + 0.5 * params.body_width
    terms = cone_terms(p, v, r, hocbf_gamma)
    return terms, barrier_row(frame, terms, kappa_gamma, label)
