"""Rigid-body model tests against an independently coded oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_same_bits, hover_thrust, random_state, random_thrusts
from coneguard.dynamics import (
    ControlInput,
    QuadrotorParams,
    QuadrotorState,
    _cross,
    euler_rate_matrix,
    rotation_matrix,
    step,
    thrust_axes,
)
from coneguard.errors import AttitudeSingularError, ConfigError, NonFiniteStateError

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


def test_thrust_axes_are_rotation_matrix_third_columns():
    """The batched R e3 has the bits of rotation_matrix's third column."""
    rng = np.random.default_rng(14)
    batch = rng.uniform(-np.pi, np.pi, (4000, 3))
    want = np.array([rotation_matrix(att)[:, 2] for att in batch])
    got = thrust_axes(batch)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@given(attitudes)
def test_euler_rate_matrix_inverse_consistent(att):
    W = oracles.rate_transform(np.array(att))
    assert np.allclose(W @ euler_rate_matrix(np.array(att)), np.eye(3), atol=1e-9)


def test_euler_rate_matrix_rejects_gimbal_lock():
    with pytest.raises(AttitudeSingularError):
        euler_rate_matrix(np.array([0.0, np.pi / 2, 0.0]))


def test_hover_equilibrium(params):
    """Level hover at exactly mg/4 per rotor stays put."""
    state = QuadrotorState.from_vector(np.zeros(12))
    hover = ControlInput(thrusts=np.full(4, hover_thrust(params)))
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
    base = np.full(4, hover_thrust(params))
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


def test_params_reject_non_numbers():
    with pytest.raises(ConfigError):
        QuadrotorParams(mass="x")


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


def test_step_reports_an_overflowing_stage_as_non_finite(params):
    """A stage angle that overflows to inf ends the step as NonFiniteStateError."""
    vec = np.zeros(12)
    vec[6:8] = 0.5
    vec[9:11] = 1.7e308  # the roll rate overflows, so the k2 stage's roll is inf
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
        step(QuadrotorState.from_vector(vec), ControlInput(np.zeros(4)), 0.01, params)


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
    f = np.full(4, hover_thrust(params))
    got = step(
        QuadrotorState.from_vector(vec), ControlInput(thrusts=f), 1 / 480, params
    ).as_vector()
    want = oracles.rk4_step(vec, f, 1 / 480)
    assert np.max(np.abs(got - want)) < 1e-12


def test_cross_is_bit_equal_to_numpy():
    """``_cross`` on Python floats is np.cross's formula, so the same bits:
    signs of zero, inf and nan too."""
    _assert_cross_is_numpy_cross(lambda a, b: np.array(_cross(a.tolist(), b.tolist())))


def test_oracle_cross_is_bit_equal_to_numpy():
    """The oracles' cross stands in for np.cross, so c03 and c04 keep their bits."""
    _assert_cross_is_numpy_cross(oracles.cross)


def _assert_cross_is_numpy_cross(cross):
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


@pytest.mark.parametrize("name", ["cos", "sin", "sqrt"])
def test_math_trig_and_sqrt_are_bit_equal_to_numpy(name):
    """The step loop takes cos, sin and sqrt from math; they must be numpy's bits.

    math raises ValueError where numpy returns nan (cos/sin of ±inf, sqrt
    of a negative), which ``step`` reports as a non-finite state.
    """
    rng = np.random.default_rng(7)
    signs = rng.choice([-1.0, 1.0], 20000)
    draws = np.concatenate(
        [
            signs[:10000] * 10.0 ** rng.uniform(-300.0, 300.0, 10000),
            signs[10000:] * 10.0 ** rng.uniform(-3.0, 3.0, 10000),  # where angles live
            # the values a libm is likeliest to treat apart
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310],
        ]
    )
    math_fn, numpy_fn = getattr(math, name), getattr(np, name)
    with np.errstate(invalid="ignore"):
        want = numpy_fn(draws)
        # numpy's scalar path, which the step loop used, gives the same bits
        scalars = np.array([numpy_fn(v) for v in draws[::10]])
        assert_same_bits(scalars, want[::10], name)
    got = np.empty_like(draws)
    for i, v in enumerate(draws.tolist()):
        try:
            got[i] = math_fn(v)
        except ValueError:
            assert (math.isinf(v) or v < 0.0) and np.isnan(want[i]), v
            got[i] = want[i]
    assert_same_bits(got, want, name)


@pytest.mark.parametrize("n", [3, 4])
def test_sqrt_of_dot_is_numpy_norm(n):
    """math.sqrt(float(x @ x)) is np.linalg.norm's own 1-D formula, bit for bit."""
    rng = np.random.default_rng(8 + n)
    scale = 10.0 ** rng.uniform(-160.0, 160.0, (3000, 1))
    vectors = list(rng.standard_normal((3000, n)) * scale)
    vectors += [np.zeros(n), -np.zeros(n), np.full(n, 1e200), np.full(n, np.nan)]
    for x in vectors:
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(x)
            got = math.sqrt(float(x @ x))
        assert_same_bits(np.float64(got), want, x)


def test_state_holds_one_read_only_vector():
    vec = np.arange(12.0)
    state = QuadrotorState.from_vector(vec)
    parts = (state.position, state.velocity, state.attitude, state.body_rates)
    for view in (state.as_vector(), *parts):
        assert np.shares_memory(view, state.as_vector())
        with pytest.raises(ValueError):
            view[0] = -1.0
    vec[0] = 99.0  # from_vector copied its argument
    assert state.position[0] == 0.0
    built = QuadrotorState(vec[0:3], vec[3:6], vec[6:9], vec[9:12])
    assert not np.shares_memory(built.as_vector(), vec)
    from_vec = QuadrotorState.from_vector(vec)
    assert np.array_equal(built.as_vector(), from_vec.as_vector())
    for a, b in zip(
        (built.position, built.velocity, built.attitude, built.body_rates),
        np.split(vec, 4),
    ):
        assert np.array_equal(a, b)
