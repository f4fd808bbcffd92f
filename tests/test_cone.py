"""Collision-cone barrier tests: formulas, geometry, and derivative rows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_cylinder, random_sphere, random_state, random_thrusts
from coneguard.cone import (
    BodyFrame,
    Obstacle,
    barrier_3d,
    barrier_projection,
    cone_terms,
    contract,
    inflated_radius,
    projection_operator,
)
from coneguard.dynamics import QuadrotorState
from coneguard.errors import InvalidObstacleError

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
def test_h_cone_scales_quadratically(p, v, r, alpha):
    base = cone_terms(np.array(p), np.array(v), r).h
    scaled = cone_terms(alpha * np.array(p), alpha * np.array(v), alpha * r).h
    assert abs(scaled - alpha * alpha * base) <= 1e-9 * max(1.0, abs(base))


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
    with pytest.raises(InvalidObstacleError):
        Obstacle(kind="box", center=(0, 0, 0), radius_raw=0.1)
    with pytest.raises(InvalidObstacleError):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=-0.1)
    with pytest.raises(InvalidObstacleError):
        Obstacle(kind="sphere", center=(0, 0, np.nan), radius_raw=0.1)
    with pytest.raises(InvalidObstacleError):
        Obstacle(kind="cylinder", center=(0, 0, 0), radius_raw=0.1)  # no axis
    with pytest.raises(InvalidObstacleError):
        Obstacle(
            kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=(0, 0, 2.0)
        )
    with pytest.raises(InvalidObstacleError):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.1, axis=(0, 0, 1))
    # a NaN axis passes a |norm - 1| > tol test, and an inf height "> 0"
    for axis in ((np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(InvalidObstacleError):
            Obstacle(kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=axis)
    for height in (np.nan, np.inf):
        with pytest.raises(InvalidObstacleError):
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
    with pytest.raises(InvalidObstacleError):
        Obstacle(**fields)


def test_obstacle_center_motion():
    obs = Obstacle(
        kind="sphere", center=(1.0, 2.0, 3.0), radius_raw=0.1, velocity=(0.5, 0, -1.0)
    )
    assert np.allclose(obs.center_at(2.0), [2.0, 2.0, 1.0], atol=0.0)


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
    terms, con = barrier_3d(frame, obs, params, kappa, 0.25)
    drift, _ = contract(frame, terms, "")
    assert abs(terms.h - 0.09691647109101309) < 1e-14
    assert abs(drift - 5.822522303260628) < 1e-12
    assert np.max(
        np.abs(
            con.gradient_row
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
    assert abs(con.offset - (drift + kappa * terms.h)) < 1e-15


def test_kappa_is_linear(params):
    """The row offset is drift + kappa_gamma h, with the bits of gamma * h."""
    state = QuadrotorState.from_vector(
        np.array([0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15])
    )
    obs = Obstacle(kind="sphere", center=(2.0, 0.1, 1.2), radius_raw=0.15)
    frame = BodyFrame(state, params)
    for gamma in (1.0, 3.0, 0.5):
        terms, con = barrier_3d(frame, obs, params, gamma, 0.25)
        drift, _ = contract(frame, terms, "")
        assert con.offset == drift + gamma * terms.h


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
        terms, row = barrier_3d(frame, obs, params, kappa, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t, "sphere"
        )
        analytic = contract(frame, terms, "")[0] + float(row.gradient_row @ f)
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
        terms, row = barrier_projection(frame, obs, params, kappa, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t,
            "cylinder", axis=(0.0, 0.0, 1.0),
        )
        analytic = contract(frame, terms, "")[0] + float(row.gradient_row @ f)
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
    terms, row = barrier_projection(frame, cyl, params, kappa, 0.25)
    assert abs(terms.h - (-0.003713037797007518)) < 1e-14
    assert abs(contract(frame, terms, "")[0] - (-0.0006190861194795526)) < 1e-12
    assert np.max(
        np.abs(
            row.gradient_row
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
        base, base_row = barrier_projection(frame, obs, params, kappa, t)
        # shift the obstacle along its own axis and give it axial velocity
        moved = Obstacle(
            kind="cylinder",
            center=obs.center + np.array([0.0, 0.0, rng.uniform(-3, 3)]),
            radius_raw=obs.radius_raw,
            axis=(0.0, 0.0, 1.0),
            height=obs.height,
            velocity=obs.velocity + np.array([0.0, 0.0, rng.uniform(-2, 2)]),
        )
        terms, row = barrier_projection(frame, moved, params, kappa, t)
        assert terms.h == base.h
        assert contract(frame, terms, "")[0] == contract(frame, base, "")[0]
        assert np.array_equal(row.gradient_row, base_row.gradient_row)


def test_projection_operator_idempotent():
    P = projection_operator((0.0, 0.0, 1.0))
    assert np.array_equal(P, np.diag([1.0, 1.0, 0.0]))
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    P = projection_operator(n)
    assert np.allclose(P @ P, P, atol=1e-15)
    assert np.allclose(P @ n, 0.0, atol=1e-15)


def test_barrier_kind_cross_checks(params):
    state = QuadrotorState.from_vector(np.zeros(12))
    sphere = Obstacle(kind="sphere", center=(2, 0, 0), radius_raw=0.2)
    cyl = Obstacle(
        kind="cylinder", center=(2, 0, 0), radius_raw=0.2, axis=(0, 0, 1.0)
    )
    with pytest.raises(InvalidObstacleError):
        barrier_3d(BodyFrame(state, params), cyl, params, kappa, 0.0)
    with pytest.raises(InvalidObstacleError):
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

