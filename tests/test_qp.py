"""Active-set QP solver tests against a dual projected-gradient oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coneguard.cone import thrust_acceleration_map
from coneguard.dynamics import QuadrotorParams, rotation_matrix
from coneguard import qp
from coneguard.errors import ConfigError, DegenerateGradientError, InfeasibleQpError
from coneguard.qp import (
    FEAS_TOL,
    AffineSafetyConstraint,
    ClassKappa,
    QpProblem,
    _feasible_start,
    _screen,
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClassKappa("x"),
        lambda: AffineSafetyConstraint([1, 0, 0, 0], "x"),
        lambda: AffineSafetyConstraint("abcd", 0.0),
        lambda: QpProblem([1, 2]),
    ],
    ids=["kappa-str", "offset-str", "row-str", "u_des-size"],
)
def test_constructors_reject_non_numbers(build):
    with pytest.raises(ConfigError):
        build()


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


@pytest.mark.parametrize("m", range(1, 9))
def test_feasible_u_des_returned_at_once(rng, m):
    """u_des that satisfies every row comes back as is, with no active set."""
    for trial in range(50):
        A = rng.normal(size=(m, 4))
        u_des = rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)
        margins = rng.uniform(0.0, 2.0, m)
        if trial % 2:  # a row violated within the feasibility tolerance
            margins[rng.integers(m)] = -rng.uniform(0.0, FEAS_TOL)
        b = margins - A @ u_des
        cons = tuple(
            AffineSafetyConstraint(A[i], float(b[i]), label=f"c{i}") for i in range(m)
        )
        rows = np.vstack([c.gradient_row for c in cons])
        offsets = np.array([c.offset for c in cons])
        min_slack = float(np.min(rows @ u_des + offsets))
        if min_slack < -FEAS_TOL:  # rounding pushed the margin past the tolerance
            continue
        sol = solve(QpProblem(u_des=u_des, constraints=cons))
        assert np.array_equal(sol.u_star, u_des)
        assert sol.active_set == () and sol.multipliers == ()
        assert sol.kkt_residual == max(0.0, -min_slack)


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


def _shared_range_rows(rng, m, z_scale=1.0):
    """Rows -M^T R^T w, built as the cone barriers build them: all lie in the
    3-D range of M^T, so every 4-row Gram is singular up to rounding. The
    z-components of w are scaled by z_scale."""
    M = thrust_acceleration_map(QuadrotorParams())
    R = rotation_matrix(rng.uniform(-0.5, 0.5, 3))
    w = rng.normal(size=(m, 3)) * [1.0, 1.0, z_scale]
    return -(M.T @ (R.T @ w.T)).T


def _rows(rng, m):
    return _shared_range_rows(rng, m) if rng.random() < 0.5 else rng.normal(size=(m, 4))


def _offsets_for(rng, A):
    """Offsets on the scale of the rows, so that u_des is often infeasible."""
    return rng.normal(size=A.shape[0]) * 0.05 * np.linalg.norm(A, axis=1)


def shared_range(rng, m):
    A = _shared_range_rows(rng, m)
    return rng.normal(size=4) * 0.05, A, _offsets_for(rng, A)


def near_planar(rng, m):
    """Barrier rows whose w lie near one plane, as in the obstacle fields
    (every w there is close to horizontal): every 3-row Gram is nearly
    singular, with s_3 / s_1 down to rounding."""
    A = _shared_range_rows(rng, m, z_scale=10.0 ** rng.uniform(-12, -2))
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


FAMILIES = (shared_range, generic, duplicated, near_parallel, weak_ties, near_planar)


def test_feasible_start_matches_exhaustive_oracle():
    """The screened search returns the exhaustive search's start bit for bit,
    and the same blocking labels when no subset is feasible."""
    rng = np.random.default_rng(20261018)
    infeasible = 0
    for family in FAMILIES:
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
                    _feasible_start(u_des, A, b, labels, {})
                assert exc_info.value.blocking_labels == tuple(blocking)
            else:
                got = _feasible_start(u_des, A, b, labels, {})
                assert np.array_equal(got, want), (family.__name__, m)
    assert infeasible > 0


def _intervening_problem(rng, family):
    """A feasible problem of 3-8 rows from the family whose u_des is unsafe."""
    while True:
        m = int(rng.integers(3, 9))
        u_des, A, b = family(rng, m)
        labels = [f"c{i}" for i in range(m)]
        if np.min(A @ u_des + b) >= -FEAS_TOL:
            continue
        if oracles.feasible_start_exhaustive(u_des, A, b, labels)[0] is None:
            continue
        rows = zip(A, b, labels)
        return QpProblem(u_des, [AffineSafetyConstraint(*row) for row in rows])


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_solve_projects_each_row_subset_once(monkeypatch, family):
    """The feasible start and the active-set loop share one projection per
    row tuple."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = _intervening_problem(rng, family)
        projected = []
        project = qp._project_equalities

        def spy(u_des, A, b, rows):
            projected.append(rows)
            return project(u_des, A, b, rows)

        monkeypatch.setattr(qp, "_project_equalities", spy)
        solve(problem)
        monkeypatch.undo()
        assert projected and len(projected) == len(set(projected)), family.__name__


def test_screen_factors_only_multi_row_grams(monkeypatch):
    """The 1-row Grams are their own SVD: one batched SVD per size 2-4."""
    rng = np.random.default_rng(8)
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for m in range(3, 9):
        u_des, A, b = shared_range(rng, m)
        calls.clear()
        _screen(u_des, A, b)
        assert len(calls) <= 3
        assert all(shape[-1] >= 2 for shape in calls)
