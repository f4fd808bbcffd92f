"""Cascaded PD tracking controller tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ALLOCATION, assert_same_bits, hover_thrust, random_state
from coneguard.dynamics import ControlInput, QuadrotorParams, QuadrotorState, step
from coneguard.errors import ConfigError, DegenerateThrustError
from coneguard.reference import HoverReference, ReferenceSample
from coneguard.tracking import (
    ALLOCATION_INV,
    ControllerGains,
    attitude_targets,
    commanded_acceleration,
    mixer,
    track,
)


def hover_ref(point=(0.0, 0.0, 1.0)):
    return ReferenceSample(
        position=np.asarray(point, dtype=float),
        velocity=np.zeros(3),
        acceleration=np.zeros(3),
    )


def _exact_inverse(matrix):
    """Gauss-Jordan elimination in rationals, each entry rounded once to a
    float (so every zero is +0.0)."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix.tolist())
    ]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    return np.array([[float(x) for x in row[n:]] for row in rows])


def test_allocation_inverse_is_exact():
    # both matrices are quarter-integer, so the product is exact in floats
    assert np.array_equal(ALLOCATION @ ALLOCATION_INV, np.eye(4))
    # the inverse tracking derives from dynamics.MOMENT_MIX is the exact
    # inverse of the tests' own spelling of the layout, zero signs included,
    # in the C order whose dgemv bits the mixer has
    assert_same_bits(ALLOCATION_INV, _exact_inverse(ALLOCATION))
    assert ALLOCATION_INV.flags.c_contiguous


def test_hover_at_reference_gives_hover_thrust(params):
    state = QuadrotorState.from_vector(
        np.array([0.0, 0.0, 1.0] + [0.0] * 9)
    )
    u = track(state, hover_ref(), ControllerGains(), params)
    assert np.allclose(u.thrusts, hover_thrust(params), atol=1e-15)


def test_commanded_acceleration_pd_form():
    gains = ControllerGains(pos_p=(4.0, 5.0, 6.0), pos_d=(1.0, 2.0, 3.0))
    state = QuadrotorState.from_vector(
        np.array([0.1, -0.2, 0.3, 1.0, -1.0, 0.5] + [0.0] * 6)
    )
    ref = ReferenceSample(
        position=np.zeros(3),
        velocity=np.zeros(3),
        acceleration=np.array([0.5, 0.0, -0.5]),
    )
    a = commanded_acceleration(state, ref, gains)
    want = np.array(
        [0.5 - 1.0 - 0.4, 0.0 + 2.0 + 1.0, -0.5 - 1.5 - 1.8]
    )
    assert np.allclose(a, want, atol=1e-15)


def test_attitude_target_signs():
    """+x demand pitches forward, +y demand rolls negative."""
    roll_d, pitch_d = attitude_targets(np.array([1.0, 0.0, 0.0]), 9.81)
    assert roll_d == 0.0 and pitch_d > 0.0
    roll_d, pitch_d = attitude_targets(np.array([0.0, 1.0, 0.0]), 9.81)
    assert roll_d < 0.0 and pitch_d == 0.0


def test_attitude_targets_reject_free_fall_demand():
    with pytest.raises(DegenerateThrustError):
        attitude_targets(np.array([0.0, 0.0, -9.81]), 9.81)


def test_mixer_rejects_an_overflowing_thrust(params):
    with pytest.raises(DegenerateThrustError):
        mixer((0.0, 0.0, 1e200), 0.0, 0.0, params)


def test_mixer_channels(params):
    """Allocated thrusts reproduce the requested total and moments."""
    u = mixer(np.array([0.4, -0.3, 0.2]), 2.0, -1.5, params)
    f = u.thrusts
    total = params.mass * np.sqrt(0.4**2 + 0.3**2 + (params.gravity + 0.2) ** 2)
    ixx, iyy, _ = params.inertia_diag
    assert abs(f.sum() - total) < 1e-15
    assert abs((f[1] - f[3]) - iyy * (-1.5) / params.arm_span) < 1e-15
    assert abs((f[0] - f[2]) - ixx * 2.0 / params.arm_span) < 1e-15
    assert abs(f[0] - f[1] + f[2] - f[3]) < 1e-15


def test_track_golden_value(params):
    state = QuadrotorState.from_vector(
        np.array([0.1, -0.05, 0.95, 0.0, 0.0, 0.0, 0.02, -0.01, 0.0, 0.0, 0.0, 0.0])
    )
    u = track(state, hover_ref(), ControllerGains(), params)
    want = np.array(
        [
            0.06737764290037968,
            0.06744211761796977,
            0.067892155003661,
            0.0678276802860709,
        ]
    )
    assert np.max(np.abs(u.thrusts - want)) < 1e-14


@given(st.integers(0, 2**32 - 1))
def test_track_finite_on_generic_states(seed):
    params = QuadrotorParams()
    rng = np.random.default_rng(seed)
    state = random_state(rng, att_max=0.8, speed=1.5, rate=1.5)
    ref = hover_ref(tuple(rng.uniform(-1, 1, 3)))
    try:
        u = track(state, ref, ControllerGains(), params)
    except DegenerateThrustError:
        return  # large downward position error can legitimately demand free fall
    assert np.all(np.isfinite(u.thrusts))


def test_negative_gains_rejected():
    with pytest.raises(ValueError):
        ControllerGains(pos_p=(-1.0, 4.0, 4.0))


def test_non_number_gains_rejected():
    with pytest.raises(ConfigError):
        ControllerGains(roll_p="x")


def test_closed_loop_hover_converges(params):
    """10 cm offset decays under 1 cm within 2 s of closed-loop flight."""
    gains = ControllerGains()
    ref_traj = HoverReference(point=np.array([0.0, 0.0, 1.0]))
    state = QuadrotorState.from_vector(
        np.array([0.1, 0.0, 1.0] + [0.0] * 9)
    )
    dt = 1 / 240
    for k in range(480):
        ref = ref_traj.sample(k * dt)
        state = step(state, track(state, ref, gains, params), dt, params)
    err = float(np.linalg.norm(state.position - np.array([0.0, 0.0, 1.0])))
    assert err < 0.01
