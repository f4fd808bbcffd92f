"""Independent oracles the test suite checks the package against.

Everything here is re-derived from the model description without importing
the package's dynamics/barrier/QP code paths: rotation and Euler-rate
matrices are rebuilt from the ZYX definition (the rate transform is inverted
numerically rather than via the closed-form inverse), the rigid-body
derivative is reassembled from Newton-Euler, barrier values are recomputed
from their defining formulas, the HO-CBF derivative chain is written out
from b = ||c - x||^2 - r^2, and the safety QP is solved by projected
gradient on the dual (or, for one row, in closed form). Agreement is then
evidence, not circularity. The exceptions must be matched bit for bit,
so they keep the package's own calls: ``feasible_start_exhaustive``, the
search the QP's feasible start falls back to, with
``most_violated_projection``, the start it tries first, and
``phi_ratio_per_row``, the row-by-row form of ``harness._phi_ratio``.
"""

from __future__ import annotations

import itertools

import numpy as np

from coneguard.cone import BodyFrame, cone_geometry, cone_terms
from coneguard.dynamics import QuadrotorState
from coneguard.errors import ConeguardError, ConfigError

GRAVITY = 9.81
MASS = 0.027
ARM = 0.13
OFFSET = 0.014
INERTIA = np.array([2.39e-5, 2.39e-5, 3.23e-5])

# rotor thrust -> body moment channels, same numbering as the simulator:
# roll from f1 - f3, pitch from f2 - f4, yaw from f1 - f2 + f3 - f4
MIX = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
    ]
)


def rot_zyx(attitude):
    phi, theta, psi = attitude
    cx, sx = np.cos(phi), np.sin(phi)
    cy, sy = np.cos(theta), np.sin(theta)
    cz, sz = np.cos(psi), np.sin(psi)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def rate_transform(attitude):
    """W with omega = W @ eta_dot, assembled column by column.

    Column k of W is the body-frame direction that the k-th Euler rate spins
    about: roll about body x, pitch about the intermediate y axis carried
    into the body frame by Rx^T, yaw about the world z axis carried in by
    (Ry Rx)^T acting on e3.
    """
    phi, theta = attitude[0], attitude[1]
    cx, sx = np.cos(phi), np.sin(phi)
    cy, sy = np.cos(theta), np.sin(theta)
    col_roll = np.array([1.0, 0.0, 0.0])
    col_pitch = np.array([0.0, cx, -sx])
    col_yaw = np.array([-sy, sx * cy, cx * cy])
    return np.column_stack([col_roll, col_pitch, col_yaw])


def cross(a, b):
    """a x b of two 3-vectors: np.cross's formula, the same products and
    differences on the three components, so its bits at a fraction of its
    per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def state_derivative(x, thrusts):
    """Newton-Euler x_dot for the 12-state (pos, vel, euler, body rates)."""
    x = np.asarray(x, dtype=float)
    thrusts = np.asarray(thrusts, dtype=float)
    R = rot_zyx(x[6:9])
    omega = x[9:12]
    out = np.empty(12)
    out[0:3] = x[3:6]
    out[3:6] = np.array([0.0, 0.0, -GRAVITY]) + R[:, 2] * (thrusts.sum() / MASS)
    out[6:9] = np.linalg.solve(rate_transform(x[6:9]), omega)
    torque = ARM * (MIX @ thrusts) - cross(omega, INERTIA * omega)
    out[9:12] = torque / INERTIA
    return out


def rk4_step(x, thrusts, dt):
    k1 = state_derivative(x, thrusts)
    k2 = state_derivative(x + 0.5 * dt * k1, thrusts)
    k3 = state_derivative(x + 0.5 * dt * k2, thrusts)
    k4 = state_derivative(x + dt * k3, thrusts)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def center_at(center0, obs_velocity, t):
    """Obstacle center at time t under constant velocity."""
    return np.asarray(center0, dtype=float) + np.asarray(obs_velocity, dtype=float) * t


def relative_state(x, center0, obs_velocity, t):
    """Obstacle center minus the offset body center, and its derivative."""
    x = np.asarray(x, dtype=float)
    R = rot_zyx(x[6:9])
    e3 = np.array([0.0, 0.0, 1.0])
    body = x[0:3] + OFFSET * (R @ e3)
    body_vel = x[3:6] + OFFSET * (R @ cross(x[9:12], e3))
    center = center_at(center0, obs_velocity, t)
    return center - body, np.asarray(obs_velocity, dtype=float) - body_vel


def barrier_value(x, center0, obs_velocity, r, t, variant, axis=None, gamma=None):
    """h for one of the three variants, straight from the definitions.

    variant: "sphere" cone, "cylinder" cone on the projected state, or "ho"
    with constant penalty gamma. r is the already-inflated radius.
    """
    p, v = relative_state(x, center0, obs_velocity, t)
    if variant == "cylinder":
        n = np.asarray(axis, dtype=float)
        p = p - n * (n @ p)
        v = v - n * (n @ v)
    s = np.sqrt(max(p @ p - r * r, 0.0))
    speed_weight = gamma if variant == "ho" else np.linalg.norm(v)
    return float(p @ v) + float(speed_weight) * s


def fd_hdot(x, thrusts, center0, obs_velocity, r, t, variant, axis=None,
            gamma=None, delta=1e-6):
    """Central-difference dh/dt along the flow under constant thrusts."""
    x_plus = rk4_step(np.asarray(x, dtype=float), thrusts, delta)
    x_minus = rk4_step(np.asarray(x, dtype=float), thrusts, -delta)
    h_plus = barrier_value(x_plus, center0, obs_velocity, r, t + delta,
                           variant, axis=axis, gamma=gamma)
    h_minus = barrier_value(x_minus, center0, obs_velocity, r, t - delta,
                            variant, axis=axis, gamma=gamma)
    return (h_plus - h_minus) / (2.0 * delta)


class ConeDegenerateError(ConeguardError):
    """Effective half-angle is undefined (arccos argument out of range)."""


def effective_half_angle(v_rel_norm, p_rel_norm, r, gamma):
    """phi' = arccos((gamma/||v_rel||) cos(phi)), the HO cone's half angle.

    Raises:
        ConeDegenerateError: (gamma/||v_rel||) cos(phi) > 1, where no cone
            exists (the HO condition is loose for every direction).
        ConfigError: non-positive arguments.
    """
    if min(v_rel_norm, p_rel_norm, r, gamma) <= 0.0:
        raise ConfigError("effective_half_angle needs positive arguments")
    cos_phi = np.sqrt(max(p_rel_norm**2 - r * r, 0.0)) / p_rel_norm
    arg = gamma * cos_phi / v_rel_norm
    if arg > 1.0:
        raise ConeDegenerateError(
            f"gamma/||v_rel|| cos(phi) = {arg:.6g} > 1: HO cone undefined"
        )
    return float(np.arccos(arg))


def b_distance(x, center0, obs_velocity, r_enc, t):
    """Squared center-to-center clearance b = ||c - x||^2 - r_enc^2.

    Deliberately uses the vehicle position (no body-center offset) and the
    raw encompassing radius; this is the quantity the HO-CBF derivative
    chain starts from, not the filtered barrier.
    """
    delta = center_at(center0, obs_velocity, t) - np.asarray(x, dtype=float)[0:3]
    return float(delta @ delta) - r_enc * r_enc


def psi_chain(x, thrusts, center0, obs_velocity, r_enc, t, p, alpha2):
    """(b, psi1, psi2) of the HO-CBF derivative chain, for sign spot-checks.

    alpha1(b) = p sqrt(b) and a linear alpha2: psi1 = b_dot + p sqrt(b),
    psi2 = psi1_dot + alpha2 psi1. With p = 2 gamma and zero body offset,
    psi1 = 2 h_HO and psi2 >= 0 matches the sign of the closed-form barrier
    condition under a matching linear kappa.
    """
    x = np.asarray(x, dtype=float)
    delta = center_at(center0, obs_velocity, t) - x[0:3]
    delta_dot = np.asarray(obs_velocity, dtype=float) - x[3:6]
    b = float(delta @ delta) - r_enc * r_enc
    b_dot = 2.0 * float(delta @ delta_dot)
    sqrt_b = np.sqrt(max(b, 0.0))
    psi1 = b_dot + p * sqrt_b
    # psi1_dot: b_ddot + p b_dot / (2 sqrt(b)); b_ddot = 2||delta_dot||^2
    # + 2 <delta, delta_ddot> with delta_ddot = -(vehicle acceleration).
    accel = rot_zyx(x[6:9]) @ np.array([0.0, 0.0, float(np.sum(thrusts)) / MASS])
    accel[2] -= GRAVITY
    b_ddot = 2.0 * float(delta_dot @ delta_dot) - 2.0 * float(delta @ accel)
    psi1_dot = b_ddot + p * b_dot / (2.0 * max(sqrt_b, 1e-9))
    return b, psi1, psi1_dot + alpha2 * psi1


def qp_dual_batch(u_des, rows, offsets, iters=50_000):
    """Batched dual solve of min ||u - u_des||^2 s.t. A u + b >= 0.

    u_des: (N, 4); rows: (N, m, 4); offsets: (N, m). Returns u_star (N, 4).
    The dual is min_{lam >= 0} 0.5 lam' Q lam + c' lam with Q = A A' and
    c = A u_des + b; u* = u_des + A' lam. Accelerated projected gradient
    (FISTA) with step 1/lambda_max(Q), so the objective gap decays like
    1/k^2 and the unique primal point is recovered from any dual optimum.
    """
    A = np.asarray(rows, dtype=float)
    b = np.asarray(offsets, dtype=float)
    u0 = np.asarray(u_des, dtype=float)
    Q = np.einsum("nij,nkj->nik", A, A)
    c = np.einsum("nij,nj->ni", A, u0) + b
    lips = np.linalg.eigvalsh(Q)[:, -1]
    eta = (1.0 / np.maximum(lips, 1e-12))[:, None]
    lam = np.zeros(b.shape)
    momentum = lam.copy()
    t_acc = 1.0
    for _ in range(iters):
        grad = np.einsum("nij,nj->ni", Q, momentum) + c
        lam_next = np.maximum(0.0, momentum - eta * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
        lam, t_acc = lam_next, t_next
    return u0 + np.einsum("nij,ni->nj", A, lam)


def qp_dual_single(u_des, rows, offsets, iters=50_000):
    u = qp_dual_batch(
        np.asarray(u_des, dtype=float)[None, :],
        np.asarray(rows, dtype=float)[None, :, :],
        np.asarray(offsets, dtype=float)[None, :],
        iters=iters,
    )
    return u[0]


def solve_single(u_des, row, offset):
    """Closed-form projection of u_des onto the halfspace row . u + offset >= 0.

    u_des itself if the row holds there; otherwise u_des + lam row with
    lam = -(row . u_des + offset)/||row||^2 > 0.
    """
    u_des = np.asarray(u_des, dtype=float).reshape(4)
    a = np.asarray(row, dtype=float)
    slack = float(a @ u_des) + offset
    if slack >= 0.0:
        return u_des.copy()
    lam = -slack / float(a @ a)
    return u_des + lam * a


def _subset_projection(u_des, A, b, subset):
    """The projection of u_des onto {A_S u = -b_S}, S = subset, by lstsq on
    the Gram system."""
    idx = list(subset)
    A_s, b_s = A[idx], b[idx]
    gram = A_s @ A_s.T
    rhs = -(A_s @ u_des + b_s)
    return u_des + A_s.T @ np.linalg.lstsq(gram, rhs, rcond=None)[0]


def most_violated_projection(u_des, rows, offsets):
    """(c, w): the row w most violated at u_des, slack over ||a_w|| (the
    package's expression, so that ties resolve alike), and the projection c
    of u_des onto it, which the exhaustive search also solves."""
    A = np.asarray(rows, dtype=float)
    b = np.asarray(offsets, dtype=float)
    w = int(np.argmin((A @ u_des + b) / np.sqrt((A * A).sum(axis=1))))
    return _subset_projection(u_des, A, b, (w,)), w


def feasible_start_exhaustive(u_des, rows, offsets, labels, feas_tol=1e-10):
    """The safety QP's feasible start by solving every subset of <= 4 rows.

    This is the search ``qp._feasible_start`` runs when the most violated
    row's projection is infeasible: each subset's projection of u_des onto
    {A_S u = -b_S} by lstsq on the Gram system, visited in combinations
    order, keeping the closest feasible one under a strict ``<``. The
    numpy calls are the search's own, so the package returns this array bit
    for bit. Returns (start, None), or (None, blocking labels most violated
    first, tied rows in row order) when no candidate is feasible.
    """
    A = np.asarray(rows, dtype=float)
    b = np.asarray(offsets, dtype=float)
    m = A.shape[0]
    best = None
    best_dist = np.inf
    for size in range(1, min(4, m) + 1):
        for subset in itertools.combinations(range(m), size):
            cand = _subset_projection(u_des, A, b, subset)
            if np.min(A @ cand + b) >= -feas_tol:
                dist = float(np.linalg.norm(cand - u_des))
                if dist < best_dist:
                    best, best_dist = cand, dist
    if best is not None:
        return best, None
    slack = A @ u_des + b
    order = np.argsort(slack, kind="stable")
    return None, [labels[i] for i in order if slack[i] < 0.0]


def phi_ratio_per_row(trace, config):
    """``harness._phi_ratio`` one recorded row at a time, through the survey's
    own scalar path: a ``BodyFrame`` per row, and the cone's geometry and
    terms per obstacle. Returns (labels, phi'/phi)."""
    labels = trace.obstacle_labels[: len(config.obstacles)]
    n = trace.t.shape[0]
    ratio = np.ones((n, len(labels)))
    for k in range(n):
        frame = BodyFrame(QuadrotorState.from_vector(trace.states[k]), config.params)
        for i, obstacle in enumerate(config.obstacles):
            geometry = cone_geometry(frame, obstacle, config.params, trace.t[k])
            phi = cone_terms(*geometry).phi
            ratio[k, i] = trace.half_angles[k, i] / max(phi, 1e-12)
    return labels, ratio
