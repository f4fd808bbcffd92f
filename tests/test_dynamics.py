"""Rigid-body model tests against an independently coded oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_state, random_thrusts
from coneguard.dynamics import (
    ControlInput,
    QuadrotorParams,
    QuadrotorState,
    cross,
    euler_rate_matrix,
    rotation_matrix,
    step,
)
from coneguard.errors import AttitudeSingularError, NonFiniteStateError

attitudes = st.tuples(
    st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(-np.pi, np.pi)
)


@given(attitudes)
def test_rotation_matrix_is_special_orthogonal(att):
    R = rotation_matrix(np.array(att))
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_rotation_matrix_zero_attitude_is_identity():
    assert np.allclose(rotation_matrix(np.zeros(3)), np.eye(3), atol=0.0)


@given(attitudes)
def test_rotation_matrix_matches_oracle(att):
    assert np.allclose(
        rotation_matrix(np.array(att)), oracles.rot_zyx(np.array(att)), atol=1e-14
    )


@given(attitudes)
def test_euler_rate_matrix_inverse_consistent(att):
    W, W_inv = euler_rate_matrix(np.array(att))
    assert np.allclose(W @ W_inv, np.eye(3), atol=1e-9)
    assert np.allclose(W, oracles.rate_transform(np.array(att)), atol=1e-14)


def test_euler_rate_matrix_rejects_gimbal_lock():
    with pytest.raises(AttitudeSingularError):
        euler_rate_matrix(np.array([0.0, np.pi / 2, 0.0]))


def test_hover_equilibrium(params):
    """Level hover at exactly mg/4 per rotor stays put."""
    state = QuadrotorState.from_vector(np.zeros(12))
    hover = ControlInput(thrusts=np.full(4, params.hover_thrust))
    for _ in range(240):
        state = step(state, hover, 1 / 240, params)
    assert np.max(np.abs(state.as_vector())) < 1e-12


def test_free_fall_acceleration(params):
    state = QuadrotorState.from_vector(np.zeros(12))
    dt = 1 / 240
    state = step(state, ControlInput(thrusts=np.zeros(4)), dt, params)
    assert abs(state.velocity[2] + params.gravity * dt) < 1e-12
    assert abs(state.position[2] + 0.5 * params.gravity * dt * dt) < 1e-9


def test_step_matches_oracle_rk4(rng, params):
    for _ in range(200):
        vec = random_state(rng).as_vector()
        f = random_thrusts(rng, params)
        got = step(
            QuadrotorState.from_vector(vec), ControlInput(thrusts=f), 1 / 240, params
        ).as_vector()
        want = oracles.rk4_step(vec, f, 1 / 240)
        assert np.max(np.abs(got - want)) < 1e-12


def test_moment_channel_signs(params):
    """Rotor 0 above hover rolls and yaws positive, rotor 1 pitches positive."""
    dt = 1 / 240
    base = np.full(4, params.hover_thrust)
    bumped = base.copy()
    bumped[0] += 0.01
    state = step(
        QuadrotorState.from_vector(np.zeros(12)), ControlInput(thrusts=bumped), dt, params
    )
    assert state.body_rates[0] > 0.0 and state.body_rates[2] > 0.0
    # pitch only picks up second-order gyroscopic coupling inside the step
    assert abs(state.body_rates[1]) < 1e-2 * state.body_rates[0]
    bumped = base.copy()
    bumped[1] += 0.01
    state = step(
        QuadrotorState.from_vector(np.zeros(12)), ControlInput(thrusts=bumped), dt, params
    )
    assert state.body_rates[1] > 0.0 and state.body_rates[2] < 0.0


def test_step_golden_value(params):
    # frozen regression: one RK4 step from a generic state
    vec = np.array(
        [0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15]
    )
    f = np.array([0.068, 0.065, 0.066, 0.0675])
    got = step(
        QuadrotorState.from_vector(vec), ControlInput(thrusts=f), 1 / 240, params
    ).as_vector()
    want = np.array(
        [
            0.3016613936162783,
            -0.19958947320448645,
            1.098750140936544,
            0.39746735033017877,
            0.09704572156214639,
            -0.29993296393452246,
            0.05087556914503947,
            -0.08056807299610098,
            0.3006516809546285,
            0.24535847564370933,
            -0.15660653790982804,
            0.17515479876160994,
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-14


@given(st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
def test_state_vector_round_trip(values):
    vec = np.array(values)
    assert np.array_equal(QuadrotorState.from_vector(vec).as_vector(), vec)


def test_state_arrays_are_read_only():
    state = QuadrotorState.from_vector(np.zeros(12))
    with pytest.raises(ValueError):
        state.position[0] = 1.0


def test_validate_rejects_non_finite():
    vec = np.zeros(12)
    vec[3] = np.nan
    with pytest.raises(NonFiniteStateError):
        QuadrotorState.from_vector(vec).validate()


def test_validate_rejects_flipped_attitude():
    vec = np.zeros(12)
    vec[6] = np.pi / 2 + 0.01
    with pytest.raises(AttitudeSingularError):
        QuadrotorState.from_vector(vec).validate()


def test_step_rejects_bad_dt(params):
    state = QuadrotorState.from_vector(np.zeros(12))
    with pytest.raises(ValueError):
        step(state, ControlInput(thrusts=np.zeros(4)), 0.0, params)


def test_control_input_rejects_non_finite():
    with pytest.raises(ValueError):
        ControlInput(thrusts=np.array([0.1, np.inf, 0.1, 0.1]))


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        QuadrotorParams(mass=0.0)


@settings(max_examples=30)
@given(attitudes, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_derivative_matches_oracle_everywhere(att, wx, wy, wz):
    """One step from arbitrary attitude/rates agrees with the oracle."""
    params = QuadrotorParams()
    vec = np.zeros(12)
    vec[6:9] = att
    vec[9:12] = (wx, wy, wz)
    f = np.full(4, params.hover_thrust)
    got = step(
        QuadrotorState.from_vector(vec), ControlInput(thrusts=f), 1 / 480, params
    ).as_vector()
    want = oracles.rk4_step(vec, f, 1 / 480)
    assert np.max(np.abs(got - want)) < 1e-12


def test_cross_is_bit_equal_to_numpy():
    """Same formula as np.cross, so the same bits: signs of zero, inf and nan too."""
    rng = np.random.default_rng(6)
    signs = rng.choice([-1.0, 1.0], (4000, 3))
    draws = signs * 10.0 ** rng.uniform(-300.0, 300.0, (4000, 3))
    special = [np.array(v) for v in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3)]
    pairs = [(draws[i], draws[i + 1]) for i in range(0, len(draws), 2)]
    pairs += list(itertools.product(special, repeat=2))
    for a, b in pairs:
        got = cross(a, b)
        with np.errstate(all="ignore"):  # products past 1e308 overflow in numpy
            want = np.cross(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), (a, b)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (a, b)
