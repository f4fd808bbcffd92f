"""Higher-order barrier baseline: formulas, chain, and relation to the cone."""

import numpy as np
import pytest

import oracles
from helpers import random_sphere, random_state, random_thrusts
from coneguard.cone import BodyFrame, Obstacle, barrier_3d, contract, inflated_radius
from coneguard.dynamics import QuadrotorState
from coneguard.errors import ConfigError
from coneguard.hocbf import HocbfConfig, barrier_ho, encompassing_radius
from coneguard.qp import ClassKappa

kappa = ClassKappa(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        HocbfConfig(gamma_penalty=0.0)
    with pytest.raises(ConfigError):
        HocbfConfig("x")


def test_encompassing_radius_takes_larger_half_extent():
    sphere = Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.3)
    assert encompassing_radius(sphere) == 0.3
    tall = Obstacle(
        kind="cylinder", center=(0, 0, 0), radius_raw=0.2, axis=(0, 0, 1.0), height=3.0
    )
    assert encompassing_radius(tall) == 1.5
    squat = Obstacle(
        kind="cylinder", center=(0, 0, 0), radius_raw=2.0, axis=(0, 0, 1.0), height=1.0
    )
    assert encompassing_radius(squat) == 2.0


def test_b_distance_hand_value():
    # ||c - x||^2 - r^2 = 25 - 1, center-to-center with the raw radius
    b = oracles.b_distance(np.zeros(12), (3.0, 0.0, 4.0), np.zeros(3), 1.0, 0.0)
    assert b == 24.0


def test_h_ho_matches_oracle(rng, params):
    cfg = HocbfConfig(gamma_penalty=1.3)
    for _ in range(200):
        state = random_state(rng)
        frame = BodyFrame(state, params)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        r = encompassing_radius(obs) + 0.5 * params.body_width
        want = oracles.barrier_value(
            state.as_vector(), obs.center, obs.velocity, r, t, "ho", gamma=1.3
        )
        terms, _ = barrier_ho(frame, obs, params, kappa, cfg, t)
        assert abs(terms.h - want) < 1e-12


def test_barrier_ho_golden_values(params):
    state = QuadrotorState.from_vector(
        np.array([0.3, -0.2, 1.1, 0.4, 0.1, -0.3, 0.05, -0.08, 0.3, 0.2, -0.1, 0.15])
    )
    obs = Obstacle(
        kind="sphere", center=(2.0, 0.1, 1.2), radius_raw=0.15, velocity=(-0.5, 0, 0)
    )
    frame = BodyFrame(state, params)
    terms, con = barrier_ho(
        frame, obs, params, kappa, HocbfConfig(gamma_penalty=1.0), 0.25
    )
    drift, _ = contract(frame, terms, "")
    assert abs(terms.h - 0.171380510434469) < 1e-14
    assert abs(drift - 0.8595790505181174) < 1e-12
    assert np.max(
        np.abs(
            con.gradient_row
            - np.array(
                [
                    -12.497030424065855,
                    -120.34192165448296,
                    14.917459729855963,
                    122.76235096027308,
                ]
            )
        )
    ) < 1e-10
    assert abs(con.offset - (drift + kappa(terms.h))) < 1e-15


def test_barrier_ho_derivative_row(rng, params):
    cfg = HocbfConfig(gamma_penalty=1.0)
    checked = 0
    while checked < 80:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        r = encompassing_radius(obs) + 0.5 * params.body_width
        p, _ = oracles.relative_state(state.as_vector(), obs.center, obs.velocity, t)
        if np.linalg.norm(p) < r + 0.06:
            continue  # keep sqrt(b) above the wide baseline drift floor
        f = random_thrusts(rng, params)
        frame = BodyFrame(state, params)
        terms, row = barrier_ho(frame, obs, params, kappa, cfg, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t, "ho", gamma=1.0
        )
        analytic = contract(frame, terms, "")[0] + float(row.gradient_row @ f)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(fd))
        checked += 1


def test_matching_penalty_recovers_cone_barrier(rng, params):
    """gamma = ||v_rel|| pointwise turns the HO barrier into the cone one."""
    checked = 0
    while checked < 300:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        frame = BodyFrame(state, params)
        p_rel, v_rel = frame.relative(obs, t)
        r = inflated_radius(obs, params.body_width)
        norm_v = float(np.linalg.norm(v_rel))
        if float(np.linalg.norm(p_rel)) < r + 0.01 or norm_v < 1e-3:
            continue
        cfg = HocbfConfig(gamma_penalty=norm_v)
        cone, _ = barrier_3d(frame, obs, params, kappa, t)
        ho, _ = barrier_ho(frame, obs, params, kappa, cfg, t)
        assert abs(ho.h - cone.h) <= 1e-12
        checked += 1


def test_constant_penalty_is_conservative_when_slower(rng, params):
    """gamma < ||v_rel|| and approaching: the HO value sits below the cone's."""
    gamma = 1.0
    cfg = HocbfConfig(gamma_penalty=gamma)
    checked = 0
    while checked < 300:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        frame = BodyFrame(state, params)
        p_rel, v_rel = frame.relative(obs, t)
        r = inflated_radius(obs, params.body_width)
        p_norm = float(np.linalg.norm(p_rel))
        norm_v = float(np.linalg.norm(v_rel))
        closing = float(p_rel @ v_rel)
        if p_norm < r + 0.01 or norm_v <= gamma or closing >= 0.0:
            continue
        cone, _ = barrier_3d(frame, obs, params, kappa, t)
        ho, _ = barrier_ho(frame, obs, params, kappa, cfg, t)
        assert ho.h < cone.h
        # and the effective cone opens wider than the true one
        phi_eff = oracles.effective_half_angle(norm_v, p_norm, r, gamma)
        assert phi_eff > cone.phi
        checked += 1


def test_effective_half_angle_argument_checks():
    with pytest.raises(ConfigError):
        oracles.effective_half_angle(0.0, 2.0, 1.0, 1.0)
    # slow relative motion: gamma cos(phi) exceeds ||v_rel||, no cone exists
    with pytest.raises(oracles.ConeDegenerateError):
        oracles.effective_half_angle(0.1, 10.0, 1.0, 1.0)


def test_psi_chain_first_condition_doubles_h(params, rng):
    """psi1 = 2 h for the center-to-center h with p = 2 gamma."""
    gamma = 0.8
    for _ in range(100):
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        b, psi1, _ = oracles.psi_chain(
            state.as_vector(), np.full(4, params.hover_thrust), obs.center,
            obs.velocity, encompassing_radius(obs), t, p=2.0 * gamma, alpha2=1.0,
        )
        delta = obs.center_at(t) - state.position
        delta_dot = obs.velocity - state.velocity
        r_enc = encompassing_radius(obs)
        h_center = float(delta @ delta_dot) + gamma * np.sqrt(
            max(float(delta @ delta) - r_enc**2, 0.0)
        )
        assert abs(b - (float(delta @ delta) - r_enc**2)) < 1e-12
        assert abs(psi1 - 2.0 * h_center) < 1e-10


def test_psi_chain_second_condition_matches_finite_difference(params, rng):
    """psi2 - alpha2 psi1 equals d(psi1)/dt along the actual flow."""
    alpha2 = 2.0
    delta_t = 1e-6
    checked = 0
    while checked < 60:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        x, r_enc = state.as_vector(), encompassing_radius(obs)
        if oracles.b_distance(x, obs.center, obs.velocity, r_enc, t) < 0.05:
            continue  # psi1_dot has a sqrt(b) in a denominator
        f = random_thrusts(rng, params)

        def chain(x, t):
            return oracles.psi_chain(
                x, f, obs.center, obs.velocity, r_enc, t, p=2.0, alpha2=alpha2
            )

        _, psi1, psi2 = chain(x, t)
        vals = []
        for sign in (+1.0, -1.0):
            _, p1, _ = chain(oracles.rk4_step(x, f, sign * delta_t), t + sign * delta_t)
            vals.append(p1)
        fd = (vals[0] - vals[1]) / (2.0 * delta_t)
        assert abs((psi2 - alpha2 * psi1) - fd) <= 1e-4 * max(1.0, abs(fd))
        checked += 1
