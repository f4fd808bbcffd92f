"""Collision-cone barrier tests: formulas, geometry, and derivative rows."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_cylinder, random_sphere, random_state, random_thrusts
from coneguard.cone import (
    BodyFrame,
    Obstacle,
    ObstacleStack,
    barrier_3d,
    barrier_ho,
    barrier_projection,
    barrier_stack,
    cone_angles,
    cone_geometry,
    cone_terms,
    contract,
    inflated_radius,
)
from coneguard.cone import EPS_V
from coneguard.dynamics import QuadrotorParams, QuadrotorState, rotation_matrix
from coneguard.errors import ConfigError

kappa = 1.0
vec3 = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
)


def test_h_cone_zero_relative_velocity():
    assert cone_terms(np.array([2.0, 0.0, 0.0]), np.zeros(3), 1.0).h == 0.0


def test_h_cone_head_on_hand_value():
    # p = (2,0,0), v = (-1,0,0), r = 1: h = -2 + sqrt(3)
    got = cone_terms(np.array([2.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 1.0).h
    assert abs(got - (-2.0 + np.sqrt(3.0))) < 1e-15


def test_h_cone_clamps_inside_radius():
    # ||p|| < r leaves only the closing-speed term
    got = cone_terms(np.array([0.5, 0.0, 0.0]), np.array([-2.0, 1.0, 0.0]), 1.0).h
    assert got == -1.0


def test_h_cone_matches_oracle_formula(rng):
    for _ in range(500):
        p = rng.uniform(-5, 5, 3)
        v = rng.uniform(-3, 3, 3)
        r = float(rng.uniform(0.05, 2.0))
        s = np.sqrt(max(p @ p - r * r, 0.0))
        want = float(p @ v) + float(np.linalg.norm(v)) * s
        assert abs(cone_terms(p, v, r).h - want) < 1e-14


@settings(max_examples=200)
@given(vec3, vec3, st.floats(0.05, 1.5), st.floats(-np.pi, np.pi))
@example(p=(0.0, 1.125, 0.0), v=(0.0, 0.0, 1.0), r=1.125, angle=1.0)
def test_h_cone_rotation_invariant(p, v, r, angle):
    """Rotating p and v together about z leaves h unchanged.

    Rounding the rotation moves ||p||^2 by a few eps ||p||^2. Near tangency
    (||p|| = r) s = sqrt(||p||^2 - r^2) turns that into up to
    sqrt(16 eps) ||p||, as |sqrt(x) - sqrt(y)| <= sqrt(|x - y|), so the
    ||v|| s term may move by up to 4 sqrt(eps) ||v|| ||p||: 6.7e-8 at the
    pinned tangent example, where h moves from 0 to 1.49e-8.
    """
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    base = cone_terms(np.array(p), np.array(v), r).h
    rotated = cone_terms(R @ np.array(p), R @ np.array(v), r).h
    eps = np.finfo(float).eps
    tangency = 4.0 * np.sqrt(eps) * np.linalg.norm(v) * np.linalg.norm(p)
    assert abs(base - rotated) <= 1e-9 * max(1.0, abs(base)) + tangency


@settings(max_examples=200)
@given(vec3, vec3, st.floats(0.05, 1.5), st.floats(0.1, 4.0))
@example(p=(0.0, 0.9375, 1.192092896e-07), v=(0.0, 0.0, 1.0), r=0.9375, alpha=3.0)
def test_h_cone_scales_quadratically(p, v, r, alpha):
    """Scaling p, v and r by alpha scales h by alpha^2.

    Rounding moves ||p||^2 - r^2 by a few eps ||p||^2 on each side, so the
    two radicands of s differ by at most d = 16 eps ||p||^2, and s by at
    most min(sqrt(d), d / s), as |sqrt(x) - sqrt(y)| <= |x - y| / sqrt(x)
    and <= sqrt(|x - y|). Only near tangency (||p|| = r, s -> 0) does that
    move alpha^2 ||v|| s past the 1e-9 bound: at the pinned example, where
    ||p|| - r is 8e-15, the scaled h and 9 h differ by 3.7e-9 against an
    allowance of 2.4e-7; where s > 0.1 the allowance is below 1e-11.
    """
    p, v = np.array(p), np.array(v)
    base = cone_terms(p, v, r)
    scaled = cone_terms(alpha * p, alpha * v, alpha * r).h
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    p_norm = float(np.linalg.norm(p))
    d = 16.0 * eps * p_norm**2
    s = np.sqrt(max(p_norm**2 - r * r, 0.0))
    tangency = alpha**2 * np.linalg.norm(v) * d / max(s, np.sqrt(d), tiny)
    assert abs(scaled - alpha * alpha * base.h) <= 1e-9 * max(1.0, abs(base.h)) + tangency


def test_h_sign_matches_cone_membership(rng):
    """h < 0 exactly when v_rel points inside the collision cone."""
    checked = 0
    while checked < 300:
        p = rng.uniform(-4, 4, 3)
        v = rng.uniform(-2, 2, 3)
        r = float(rng.uniform(0.1, 1.5))
        pn, vn = np.linalg.norm(p), np.linalg.norm(v)
        if pn <= r + 1e-6 or vn < 1e-6:
            continue
        s = np.sqrt(pn * pn - r * r)
        phi = np.arccos(s / pn)
        toward = np.arccos(np.clip(-(p @ v) / (pn * vn), -1.0, 1.0))
        h = cone_terms(p, v, r).h
        if abs(h) < 1e-9 * pn * vn:
            continue  # boundary tie
        assert (h < 0.0) == (toward < phi)
        checked += 1


def test_inflated_radius_adds_half_width(params):
    obs = Obstacle(kind="sphere", center=(1, 0, 0), radius_raw=0.15)
    assert inflated_radius(obs, params.body_width) == 0.15 + params.body_width / 2


def test_obstacle_validation():
    with pytest.raises(ConfigError):
        Obstacle(kind="box", center=(0, 0, 0), radius_raw=0.1)
    with pytest.raises(ConfigError):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=-0.1)
    with pytest.raises(ConfigError):
        Obstacle(kind="sphere", center=(0, 0, np.nan), radius_raw=0.1)
    with pytest.raises(ConfigError):
        Obstacle(kind="cylinder", center=(0, 0, 0), radius_raw=0.1)  # no axis
    with pytest.raises(ConfigError):
        Obstacle(
            kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=(0, 0, 2.0)
        )
    with pytest.raises(ConfigError):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.1, axis=(0, 0, 1))
    # a label names two trace CSV columns, so a comma is refused before a run
    with pytest.raises(ConfigError, match="may not contain commas"):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.1, label="a,b")
    # a NaN axis passes a |norm - 1| > tol test, and an inf height "> 0"
    for axis in ((np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ConfigError):
            Obstacle(kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=axis)
    for height in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            Obstacle(
                kind="cylinder",
                center=(0, 0, 0),
                radius_raw=0.1,
                axis=(0, 0, 1),
                height=height,
            )


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="sphere", center=(0, 0, 0), radius_raw="x"),
        dict(kind="sphere", center="ab", radius_raw=0.1),
        dict(kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=(0, 1)),
    ],
    ids=["radius-str", "center-str", "axis-size"],
)
def test_obstacle_rejects_non_numbers(fields):
    with pytest.raises(ConfigError):
        Obstacle(**fields)


def test_obstacle_center_motion(params):
    """The frame sees the center at time t as center + velocity t; the
    state puts the body center R e3 l above it at the origin, at rest."""
    obs = Obstacle(
        kind="sphere", center=(1.0, 2.0, 3.0), radius_raw=0.1, velocity=(0.5, 0, -1.0)
    )
    position = (0.0, 0.0, -params.center_offset)
    state = QuadrotorState(position, np.zeros(3), np.zeros(3), np.zeros(3))
    p, v = BodyFrame(state, params).relative(obs, 2.0)
    assert np.allclose(p, [2.0, 2.0, 1.0], atol=0.0)
    assert np.array_equal(v, obs.velocity)


def test_relative_state_includes_center_offset(params, rng):
    """The body center rides R e3 l above the kinematic origin."""
    for _ in range(50):
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 3))
        p_rel, v_rel = BodyFrame(state, params).relative(obs, t)
        p, v = oracles.relative_state(
            state.as_vector(), obs.center, obs.velocity, t
        )
        assert np.max(np.abs(p_rel - p)) < 1e-14
        assert np.max(np.abs(v_rel - v)) < 1e-14


def test_barrier_3d_golden_values(params):
    state = QuadrotorState.from_vector(
        np.array([0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15])
    )
    obs = Obstacle(
        kind="sphere", center=(2.0, 0.1, 1.2), radius_raw=0.15, velocity=(-0.5, 0, 0)
    )
    frame = BodyFrame(state, params)
    terms, (input_row, offset) = barrier_3d(frame, obs, params, kappa, 0.25)
    drift, _ = contract(frame, terms, "")
    assert abs(terms.h - 0.09691647109101309) < 1e-14
    assert abs(drift - 5.822522303260628) < 1e-12
    assert np.max(
        np.abs(
            input_row
            - np.array(
                [
                    -10.477513235376128,
                    -33.14975507978372,
                    -31.78410512065033,
                    -9.111863276242737,
                ]
            )
        )
    ) < 1e-11
    assert abs(terms.phi - 0.13422094632755224) < 1e-14
    assert abs(offset - (drift + kappa * terms.h)) < 1e-15


def test_kappa_is_linear(params):
    """The row offset is drift + kappa_gamma h, with the bits of gamma * h."""
    state = QuadrotorState.from_vector(
        np.array([0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15])
    )
    obs = Obstacle(kind="sphere", center=(2.0, 0.1, 1.2), radius_raw=0.15)
    frame = BodyFrame(state, params)
    for gamma in (1.0, 3.0, 0.5):
        terms, (_, offset) = barrier_3d(frame, obs, params, gamma, 0.25)
        drift, _ = contract(frame, terms, "")
        assert offset == drift + gamma * terms.h


def test_barrier_3d_derivative_row(rng, params):
    """drift + row.u matches a finite-difference dh/dt along the flow."""
    checked = 0
    while checked < 80:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        r = inflated_radius(obs, params.body_width)
        p, _ = oracles.relative_state(state.as_vector(), obs.center, obs.velocity, t)
        if np.linalg.norm(p) < r + 0.05:
            continue  # clear of the sqrt clamp and the drift floor
        f = random_thrusts(rng, params)
        frame = BodyFrame(state, params)
        terms, (input_row, _) = barrier_3d(frame, obs, params, kappa, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t, "sphere"
        )
        analytic = contract(frame, terms, "")[0] + float(input_row @ f)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(fd))
        checked += 1


def test_barrier_projection_derivative_row(rng, params):
    checked = 0
    while checked < 80:
        state = random_state(rng)
        obs = random_cylinder(rng)
        t = float(rng.uniform(0, 2))
        r = inflated_radius(obs, params.body_width)
        p, _ = oracles.relative_state(state.as_vector(), obs.center, obs.velocity, t)
        if np.linalg.norm(p[:2]) < r + 0.05:
            continue
        f = random_thrusts(rng, params)
        frame = BodyFrame(state, params)
        terms, (input_row, _) = barrier_projection(frame, obs, params, kappa, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t,
            "cylinder", axis=(0.0, 0.0, 1.0),
        )
        analytic = contract(frame, terms, "")[0] + float(input_row @ f)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(fd))
        checked += 1


def test_barrier_projection_golden_values(params):
    state = QuadrotorState.from_vector(
        np.array([0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15])
    )
    cyl = Obstacle(
        kind="cylinder",
        center=(1.5, -0.4, 0.0),
        radius_raw=0.2,
        axis=(0.0, 0.0, 1.0),
        height=3.0,
        velocity=(0.2, 0.1, 0.0),
    )
    frame = BodyFrame(state, params)
    terms, (input_row, _) = barrier_projection(frame, cyl, params, kappa, 0.25)
    assert abs(terms.h - (-0.003713037797007518)) < 1e-14
    assert abs(contract(frame, terms, "")[0] - (-0.0006190861194795526)) < 1e-12
    assert np.max(
        np.abs(
            input_row
            - np.array(
                [
                    -11.985172870219811,
                    1.9269920047793305,
                    11.240353982905672,
                    -2.6718108920934696,
                ]
            )
        )
    ) < 1e-11


def test_projection_kills_axis_components(params, rng):
    """Constraint row, drift, and h ignore everything along the cylinder axis."""
    for _ in range(40):
        frame = BodyFrame(random_state(rng), params)
        obs = random_cylinder(rng)
        t = float(rng.uniform(0, 2))
        base, (base_row, _) = barrier_projection(frame, obs, params, kappa, t)
        # shift the obstacle along its own axis and give it axial velocity
        moved = Obstacle(
            kind="cylinder",
            center=obs.center + np.array([0.0, 0.0, rng.uniform(-3, 3)]),
            radius_raw=obs.radius_raw,
            axis=(0.0, 0.0, 1.0),
            height=obs.height,
            velocity=obs.velocity + np.array([0.0, 0.0, rng.uniform(-2, 2)]),
        )
        terms, (input_row, _) = barrier_projection(frame, moved, params, kappa, t)
        assert terms.h == base.h
        assert contract(frame, terms, "")[0] == contract(frame, base, "")[0]
        assert np.array_equal(input_row, base_row)


def test_projection_operator_idempotent():
    """A cylinder's projector P = I - n n^T, built by the obstacle."""

    def projector(axis):
        return Obstacle("cylinder", np.zeros(3), 0.1, axis=axis)._projector

    P = projector((0.0, 0.0, 1.0))
    assert np.array_equal(P, np.diag([1.0, 1.0, 0.0]))
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    P = projector(n)
    assert np.allclose(P @ P, P, atol=1e-15)
    assert np.allclose(P @ n, 0.0, atol=1e-15)


def test_barrier_kind_cross_checks(params):
    state = QuadrotorState.from_vector(np.zeros(12))
    sphere = Obstacle(kind="sphere", center=(2, 0, 0), radius_raw=0.2)
    cyl = Obstacle(
        kind="cylinder", center=(2, 0, 0), radius_raw=0.2, axis=(0, 0, 1.0)
    )
    with pytest.raises(ConfigError):
        barrier_3d(BodyFrame(state, params), cyl, params, kappa, 0.0)
    with pytest.raises(ConfigError):
        barrier_projection(BodyFrame(state, params), sphere, params, kappa, 0.0)


def test_half_angle_hand_value(params):
    # ||p_rel|| = 2 and inflated r = 1: cos(phi) = sqrt(3)/2, phi = pi/6.
    # The body center sits at l*e3 for the zero state, so the obstacle is
    # placed 2 m away from that point, not from the origin.
    state = QuadrotorState.from_vector(np.zeros(12))
    obs = Obstacle(
        kind="sphere",
        center=(2.0, 0.0, params.center_offset),
        radius_raw=1.0 - params.body_width / 2,
    )
    terms, _ = barrier_3d(BodyFrame(state, params), obs, params, kappa, 0.0)
    assert abs(terms.phi - np.pi / 6) < 1e-12


def test_half_angle_inside_is_right_angle(params):
    state = QuadrotorState.from_vector(np.zeros(12))
    obs = Obstacle(kind="sphere", center=(0.05, 0, 0), radius_raw=0.5)
    terms, _ = barrier_3d(BodyFrame(state, params), obs, params, kappa, 0.0)
    assert terms.phi == np.pi / 2



def test_stacked_row_norm_identity(rng):
    """On barrier_stack rows, ||input_row||^2 = 2 b^2 y0^2 + 2 a^2 y1^2 +
    (4/m^2) y2^2 with y = R^T w, a = l L/Ixx and b = l L/Iyy (M's rows are
    orthogonal), so ||input_row|| >= sigma_min ||w||, sigma_min =
    min(sqrt(2) a, sqrt(2) b, 2/m). Both hold to a few ulps of the squared
    norm, on and off the default parameters, near tangency, inside the
    radius and with ||v|| below EPS_V."""
    eps = float(np.finfo(float).eps)
    for trial in range(200):
        params = QuadrotorParams()
        if trial % 2:
            params = QuadrotorParams(
                mass=float(rng.uniform(0.01, 2.0)),
                arm_span=float(rng.uniform(0.05, 0.5)),
                center_offset=float(rng.uniform(1e-4, 0.1)),
                inertia_diag=tuple(rng.uniform(1e-5, 1e-2, 3)),
            )
        frame = BodyFrame(random_state(rng, att_max=1.4, rate=20.0), params)
        n = 8
        r = rng.uniform(0.1, 1.0, n)
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        # clear of the radius, within 1e-9 of it, and inside it
        clear, tangent = rng.uniform(1.1, 5.0, n), 1.0 + rng.uniform(0.0, 1e-9, n)
        inside = rng.uniform(0.1, 1.0, n)
        scale = np.choose(rng.integers(3, size=n), [clear, tangent, inside])
        p = direction * (r * scale)[:, None]
        v = rng.normal(size=(n, 3)) * np.where(rng.random(n) < 0.25, 1e-8, 1.0)[:, None]
        # a stack of radius r exactly: the rows read its radii, r^2 and floors
        spheres = [Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=x) for x in r]
        stack = ObstacleStack(tuple(spheres), 0.0)
        pv = np.concatenate((p, v))
        rows = barrier_stack(frame, pv, stack, kappa, tuple("abcdefgh")).input_rows
        # w and y = R^T w with barrier_stack's own bits, so that only the
        # product -M^T y and the identity itself round: each row entry is a
        # two-term sum, so to first order the two sides differ by at most
        # (8 + 4 + 4) eps times the identity (entries, squares and sum, and
        # the identity's products and sum)
        _, s, _ = cone_angles(p, r)
        norm_v = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
        w = p + v * (s / np.maximum(norm_v, EPS_V))[:, None]
        y = np.matmul(frame.R.T, w[:, :, None])[:, :, 0]
        ixx, iyy, _ = params.inertia_diag
        lever = params.center_offset * params.arm_span
        a, b, m = lever / ixx, lever / iyy, params.mass
        y0, y1, y2 = y.T
        identity = 2 * b**2 * y0**2 + 2 * a**2 * y1**2 + (4 / m**2) * y2**2
        norm2 = np.sum(rows * rows, axis=1)
        assert np.all(np.abs(norm2 - identity) <= 16 * eps * identity), trial
        sigma_min = min(np.sqrt(2) * a, np.sqrt(2) * b, 2 / m)
        w_norm = np.linalg.norm(w, axis=1)
        assert np.all(np.sqrt(norm2) >= sigma_min * w_norm * (1 - 16 * eps)), trial


def _unit(x):
    """x over its norm."""
    return np.array(x) / np.linalg.norm(x)


def _adapter_ratios(variant, attitude, rates, direction, axis, radius, place, v_dir, speed):
    """(||input_row|| / (sigma_min ||w||), ||w|| / (r^2 / (||p|| + s)),
    ||p|| / r) of one scalar adapter's row, with sigma_min = min(sqrt(2) a,
    sqrt(2) b, 2/m) at the default parameters; the last two are None but
    for the cone outside the radius. The obstacle center sits at place
    radii from the body center along direction (for the cylinder,
    direction's part across the axis), and the relative velocity is speed
    along v_dir."""
    params = QuadrotorParams()
    state = QuadrotorState(np.zeros(3), np.zeros(3), np.array(attitude), np.array(rates))
    frame = BodyFrame(state, params)
    axis = _unit(axis)
    if variant == "barrier_projection":
        across = direction - np.dot(direction, axis) * axis
        assume(np.linalg.norm(across) > 0.1)
        direction = _unit(across)
        kind, extra = "cylinder", {"axis": axis}
    else:
        direction, kind, extra = _unit(direction), "sphere", {}
    r = radius + 0.5 * params.body_width  # inflated, and encompassing for a sphere
    obstacle = Obstacle(
        kind=kind,
        center=frame.position + direction * (r * place),
        radius_raw=radius,
        velocity=frame.velocity + _unit(v_dir) * speed,
        **extra,
    )
    if variant == "barrier_ho":
        terms, (row, _) = barrier_ho(frame, obstacle, params, kappa, 1.0, 0.0)
    else:
        adapter = barrier_3d if variant == "barrier_3d" else barrier_projection
        terms, (row, _) = adapter(frame, obstacle, params, kappa, 0.0)
    ixx, iyy, _ = params.inertia_diag
    lever = params.center_offset * params.arm_span
    sigma_min = min(np.sqrt(2) * lever / ixx, np.sqrt(2) * lever / iyy, 2 / params.mass)
    w_norm = float(np.linalg.norm(terms.w))
    row_ratio = float(np.linalg.norm(row)) / (sigma_min * w_norm)
    p, _, r = cone_geometry(frame, obstacle, params, 0.0)
    p_norm = float(np.linalg.norm(p))
    if variant == "barrier_ho" or p_norm <= r:
        return row_ratio, None, None
    s = np.sqrt(p_norm * p_norm - r * r)
    return row_ratio, w_norm / (r * r / (p_norm + s)), p_norm / r


unit3 = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda x: np.linalg.norm(x) > 0.1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    variant=st.sampled_from(("barrier_3d", "barrier_projection", "barrier_ho")),
    attitude=st.tuples(*[st.floats(-1.4, 1.4)] * 3),
    rates=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    direction=unit3,
    axis=unit3,
    radius=st.floats(0.05, 1.0),
    # clear of the radius, within 1e-9 of it, or inside it
    place=st.one_of(
        st.floats(1.1, 5.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9), st.floats(0.05, 0.999)
    ),
    # head-on (v along -p, where ||w|| = ||p|| - s), or any direction
    head_on=st.booleans(),
    v_dir=unit3,
    # ||v|| above or below EPS_V
    speed=st.one_of(st.floats(1e-3, 3.0), st.floats(0.0, 0.9 * EPS_V)),
)
# w along body z, where sigma_min = 2/m is attained, clear and near tangency
@example("barrier_3d", (0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0), 0.3, 4.9, True, (1, 0, 0), 2.0)
@example(
    "barrier_projection", (0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0), 0.3, 1.0 + 1e-10, True,
    (1, 0, 0), 2.0,
)
def test_scalar_adapter_rows_keep_their_norm_bound(
    variant, attitude, rates, direction, axis, radius, place, head_on, v_dir, speed
):
    """The scalar adapters' rows meet the lemma of the module docstring:
    ||input_row|| >= sigma_min ||w|| (74.07 ||w|| at the defaults) and,
    for the cone outside the radius, ||w|| >= r^2 / (||p|| + s), on all
    three variants, near tangency, with ||v|| < EPS_V and inside the
    radius.

    The allowances come from 200,000 draws of these ranges, a seventh of
    them with w along body z. The worst row ratio was 1 - 2.5 eps, at w
    along body z; 8 eps is allowed. ||w|| is a difference of p and v
    s/||v|| that cancels head-on to r^2 / (||p|| + s), about r^2 / 2||p||,
    so its rounding grows as (||p|| / r)^2: the worst cone ratio was 1 -
    3.5 eps (||p|| / r)^2, and 8 eps (||p|| / r)^2 is allowed.
    """
    if head_on:
        v_dir = tuple(-x for x in direction)
    row_ratio, cone_ratio, reach = _adapter_ratios(
        variant, attitude, rates, direction, axis, radius, place, v_dir, speed
    )
    eps = float(np.finfo(float).eps)
    assert row_ratio >= 1.0 - 8.0 * eps
    if cone_ratio is not None:
        assert cone_ratio >= 1.0 - 8.0 * eps * reach * reach


@pytest.mark.parametrize("variant", ["barrier_3d", "barrier_projection", "barrier_ho"])
def test_lateral_w_row_vanishes_with_the_center_offset(variant):
    """A w in the body's x-y plane meets only M's moment rows, whose entries
    are l L / I: the row's norm is l L sqrt(2 (y0/Iyy)^2 + 2 (y1/Ixx)^2), y
    = R^T w, so it goes to 0 in proportion to l, at center_offset 1e-2,
    1e-4 and 1e-6. The offset is what gives the cone's row its authority.
    The cylinder's axis is body z, so its projected w is lateral whatever
    p and v are."""
    attitude = np.array([0.3, -0.2, 0.7])
    R = rotation_matrix(attitude)
    p, v = R @ [1.5, -0.8, 0.0], R @ [-0.6, 0.2, 0.0]
    state = QuadrotorState(np.zeros(3), np.zeros(3), attitude, np.zeros(3))
    per_offset = []
    for l in (1e-2, 1e-4, 1e-6):
        params = QuadrotorParams(center_offset=l)
        frame = BodyFrame(state, params)
        center, velocity = frame.position + p, frame.velocity + v
        if variant == "barrier_projection":
            cylinder = Obstacle("cylinder", center, 0.3, velocity, axis=R[:, 2])
            terms, (row, _) = barrier_projection(frame, cylinder, params, kappa, 0.0)
        elif variant == "barrier_3d":
            sphere = Obstacle("sphere", center, 0.3, velocity)
            terms, (row, _) = barrier_3d(frame, sphere, params, kappa, 0.0)
        else:
            sphere = Obstacle("sphere", center, 0.3, velocity)
            terms, (row, _) = barrier_ho(frame, sphere, params, kappa, 1.0, 0.0)
        y = R.T @ terms.w
        assert abs(y[2]) <= 1e-14 * np.linalg.norm(y), l
        ixx, iyy, _ = params.inertia_diag
        want = l * params.arm_span * np.sqrt(2 * (y[0] / iyy) ** 2 + 2 * (y[1] / ixx) ** 2)
        assert np.linalg.norm(row) == pytest.approx(want, rel=1e-12), l
        per_offset.append(np.linalg.norm(row) / l)
    assert per_offset == pytest.approx([per_offset[0]] * 3, rel=1e-12)
