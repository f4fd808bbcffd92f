"""Active-set QP solver tests against a dual projected-gradient oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coneguard.cone import thrust_acceleration_map
from coneguard.dynamics import QuadrotorParams, rotation_matrix
from coneguard.errors import DegenerateGradientError, InfeasibleQpError
from coneguard.qp import (
    FEAS_TOL,
    AffineSafetyConstraint,
    ClassKappa,
    QpProblem,
    _feasible_start,
    solve,
)


def feasible_instance(rng, m):
    """Random constraints made feasible by a certificate point."""
    A = rng.normal(size=(m, 4))
    z = rng.normal(size=4)
    margins = rng.uniform(0.0, 2.0, m)
    b = margins - A @ z
    cons = tuple(
        AffineSafetyConstraint(A[i], float(b[i]), label=f"c{i}") for i in range(m)
    )
    return rng.normal(size=4), cons, A, b, z


def test_kappa_is_linear():
    assert ClassKappa(1.0)(0.0) == 0.0
    assert ClassKappa(3.0)(2.0) == 6.0
    assert ClassKappa(0.5)(-4.0) == -2.0


def test_kappa_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        ClassKappa(0.0)


def test_unconstrained_returns_u_des():
    u_des = np.array([1.0, -2.0, 0.5, 0.0])
    sol = solve(QpProblem(u_des=u_des))
    assert np.array_equal(sol.u_star, u_des)
    assert sol.active_set == ()
    assert sol.kkt_residual == 0.0


def test_inactive_constraint_returns_u_des():
    u_des = np.array([1.0, 1.0, 1.0, 1.0])
    con = AffineSafetyConstraint(np.ones(4), 0.0, label="slack")
    sol = solve(QpProblem(u_des=u_des, constraints=(con,)))
    assert np.array_equal(sol.u_star, u_des)
    assert sol.active_set == ()


def test_single_constraint_projection_hand_value():
    # u1 >= 1 from u_des = 0: u* = (1, 0, 0, 0), lambda = 1
    con = AffineSafetyConstraint(np.array([1.0, 0, 0, 0]), -1.0, label="floor")
    sol = solve(QpProblem(u_des=np.zeros(4), constraints=(con,)))
    assert np.allclose(sol.u_star, [1.0, 0, 0, 0], atol=0.0)
    assert sol.multipliers == (1.0,)
    assert sol.active_set == ("floor",)


def test_single_constraint_matches_general_solver(rng):
    for _ in range(300):
        u_des, cons, _, _, _ = feasible_instance(rng, 1)
        closed = oracles.solve_single(u_des, cons[0].gradient_row, cons[0].offset)
        general = solve(QpProblem(u_des=u_des, constraints=cons))
        assert np.max(np.abs(closed - general.u_star)) <= 1e-12


def test_solve_matches_dual_oracle(rng):
    # batch the oracle by constraint count; FISTA vectorizes over instances
    for m in (1, 2, 3):
        instances = [feasible_instance(rng, m) for _ in range(60)]
        got = np.array(
            [
                solve(QpProblem(u_des=u_des, constraints=cons)).u_star
                for u_des, cons, _, _, _ in instances
            ]
        )
        want = oracles.qp_dual_batch(
            np.array([inst[0] for inst in instances]),
            np.array([inst[2] for inst in instances]),
            np.array([inst[3] for inst in instances]),
            iters=20_000,
        )
        assert np.max(np.abs(got - want)) <= 1e-6


def test_kkt_certificate(rng):
    for _ in range(200):
        m = int(rng.integers(1, 4))
        u_des, cons, A, b, _ = feasible_instance(rng, m)
        sol = solve(QpProblem(u_des=u_des, constraints=cons))
        assert sol.kkt_residual <= 1e-8
        assert all(lam >= 0.0 for lam in sol.multipliers)
        # feasibility and complementary slackness, recomputed here
        slack = A @ sol.u_star + b
        assert np.min(slack) >= -1e-9
        for label, lam in zip(sol.active_set, sol.multipliers):
            i = int(label[1:])
            assert abs(lam * slack[i]) <= 1e-8


def test_solution_no_further_from_u_des_than_certificate(rng):
    for _ in range(200):
        m = int(rng.integers(1, 4))
        u_des, cons, A, b, z = feasible_instance(rng, m)
        sol = solve(QpProblem(u_des=u_des, constraints=cons))
        assert np.linalg.norm(sol.u_star - u_des) <= np.linalg.norm(z - u_des) + 1e-9


def test_infeasible_reports_blocking_labels():
    up = AffineSafetyConstraint(np.array([1.0, 0, 0, 0]), -1.0, label="up")
    down = AffineSafetyConstraint(np.array([-1.0, 0, 0, 0]), -1.0, label="down")
    with pytest.raises(InfeasibleQpError) as exc_info:
        solve(QpProblem(u_des=np.zeros(4), constraints=(up, down)))
    assert set(exc_info.value.blocking_labels) == {"up", "down"}


def test_degenerate_row_rejected():
    con = AffineSafetyConstraint(np.zeros(4), -1.0, label="null")
    with pytest.raises(DegenerateGradientError):
        solve(QpProblem(u_des=np.zeros(4), constraints=(con,)))


def test_violation_method():
    con = AffineSafetyConstraint(np.array([1.0, 0, 0, 0]), -1.0)
    assert con.violation(np.array([2.0, 0, 0, 0])) == 0.0
    assert con.violation(np.array([0.5, 0, 0, 0])) == 0.5


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_solution_feasible_and_certified(seed, m):
    """Any feasible instance: u* feasible, multipliers >= 0, KKT tiny."""
    rng = np.random.default_rng(seed)
    u_des, cons, A, b, _ = feasible_instance(rng, m)
    sol = solve(QpProblem(u_des=u_des, constraints=cons))
    assert np.min(A @ sol.u_star + b) >= -1e-9
    assert all(lam >= 0.0 for lam in sol.multipliers)
    assert sol.kkt_residual <= 1e-8


def _shared_range_rows(rng, m):
    """Rows -M^T R^T w, built as the cone barriers build them: all lie in the
    3-D range of M^T, so every 4-row Gram is singular up to rounding."""
    M = thrust_acceleration_map(QuadrotorParams())
    R = rotation_matrix(rng.uniform(-0.5, 0.5, 3))
    return -(M.T @ (R.T @ rng.normal(size=(m, 3)).T)).T


def _rows(rng, m):
    return _shared_range_rows(rng, m) if rng.random() < 0.5 else rng.normal(size=(m, 4))


def _offsets_for(rng, A):
    """Offsets on the scale of the rows, so that u_des is often infeasible."""
    return rng.normal(size=A.shape[0]) * 0.05 * np.linalg.norm(A, axis=1)


def shared_range(rng, m):
    A = _shared_range_rows(rng, m)
    return rng.normal(size=4) * 0.05, A, _offsets_for(rng, A)


def generic(rng, m):
    A = rng.normal(size=(m, 4))
    return rng.normal(size=4), A, rng.normal(size=m)


def duplicated(rng, m):
    """One or two rows repeated, with the same or another offset."""
    A = _rows(rng, m)
    b = _offsets_for(rng, A)
    for _ in range(int(rng.integers(1, 3))):
        i, j = rng.choice(m, 2, replace=False)
        A[j] = A[i]
        if rng.random() < 0.5:
            b[j] = b[i]
    return rng.normal(size=4) * 0.05, A, b


def near_parallel(rng, m):
    """Two rows (and offsets) equal to within a relative 1e-12 to 1e-6."""
    A = _rows(rng, m)
    b = _offsets_for(rng, A)
    i, j = rng.choice(m, 2, replace=False)
    scale = 10.0 ** rng.uniform(-12, -6)
    jitter = scale * np.abs(A[i]).max() * rng.normal(size=4)
    A[j] = A[i] * (1.0 + scale * rng.normal()) + jitter
    b[j] = b[i] + scale * abs(b[i]) * rng.normal()
    return rng.normal(size=4) * 0.05, A, b


def weak_ties(rng, m):
    """The optimum u* is active on 2-4 rows, some with a zero multiplier, so
    several subsets project onto u* and tie up to rounding."""
    A = _rows(rng, m)
    u_star = rng.normal(size=4) * 0.05
    active = rng.choice(m, int(rng.integers(2, min(m, 4) + 1)), replace=False)
    b = rng.uniform(0.1, 1.0, m) * np.linalg.norm(A, axis=1) * 0.05 - A @ u_star
    b[active] = -(A[active] @ u_star)
    lam = rng.uniform(0.1, 1.0, active.size) * (rng.random(active.size) < 0.5)
    lam[0] = 0.5
    return u_star - A[active].T @ lam * 0.01, A, b


def test_feasible_start_matches_exhaustive_oracle():
    """The screened search returns the exhaustive search's start bit for bit,
    and the same blocking labels when no subset is feasible."""
    rng = np.random.default_rng(20261018)
    infeasible = 0
    for family in (shared_range, generic, duplicated, near_parallel, weak_ties):
        drawn = 0
        while drawn < 80:
            m = int(rng.integers(3, 9))
            u_des, A, b = family(rng, m)
            if np.min(A @ u_des + b) >= -FEAS_TOL:
                continue  # solve() starts from u_des itself
            drawn += 1
            labels = [f"c{i}" for i in range(m)]
            want, blocking = oracles.feasible_start_exhaustive(u_des, A, b, labels)
            if want is None:
                infeasible += 1
                with pytest.raises(InfeasibleQpError) as exc_info:
                    _feasible_start(u_des, A, b, labels)
                assert exc_info.value.blocking_labels == tuple(blocking)
            else:
                got = _feasible_start(u_des, A, b, labels)
                assert np.array_equal(got, want), (family.__name__, m)
    assert infeasible > 0
