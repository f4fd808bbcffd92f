"""Active-set QP solver tests against a dual projected-gradient oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_same_bits, field_scenario
from coneguard import harness
from coneguard.scenarios import builtin_scenarios, get_scenario
from coneguard.cone import input_map
from coneguard.dynamics import QuadrotorParams, rotation_matrix
from coneguard import qp
from coneguard.errors import (
    ConfigError,
    InfeasibleQpError,
    IterationLimitError,
    UncertifiedSolutionError,
)
from coneguard.qp import (
    EPS,
    FEAS_TOL,
    KKT_RTOL,
    SAFE_MIN,
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
    u_des = rng.normal(size=4)
    return u_des, QpProblem(u_des, A, b, _labels(m)), A, b, z


def _labels(m):
    return tuple(f"c{i}" for i in range(m))


def test_kappa_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        replace(builtin_scenarios()[0], kappa_gamma=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: replace(builtin_scenarios()[0], kappa_gamma="x"),
        lambda: QpProblem(np.zeros(4), [[1, 0, 0, 0]], ["x"], ("c0",)),
        lambda: QpProblem(np.zeros(4), "abcd", [0.0], ("c0",)),
        lambda: QpProblem([1, 2]),
        lambda: QpProblem(np.zeros(4), [[]], [], []),
    ],
    ids=["kappa-str", "offset-str", "row-str", "u_des-size", "row-empty"],
)
def test_constructors_reject_non_numbers(build):
    with pytest.raises(ConfigError):
        build()


def test_unconstrained_returns_u_des():
    """With no rows by default or as empty lists: [] is no rows of 4."""
    u_des = np.array([1.0, -2.0, 0.5, 0.0])
    for problem in (QpProblem(u_des=u_des), QpProblem(u_des, [], [], [])):
        assert problem.A.shape == (0, 4) and problem.b.shape == (0,)
        sol = solve(problem)
        assert np.array_equal(sol.u_star, u_des)
        assert sol.active_set == ()
        assert sol.kkt_residual == 0.0


def test_inactive_constraint_returns_u_des():
    u_des = np.array([1.0, 1.0, 1.0, 1.0])
    sol = solve(QpProblem(u_des, [np.ones(4)], [0.0], ("slack",)))
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
        min_slack = float(np.min(A @ u_des + b))
        if min_slack < -FEAS_TOL:  # rounding pushed the margin past the tolerance
            continue
        sol = solve(QpProblem(u_des, A, b, _labels(m)))
        assert np.array_equal(sol.u_star, u_des)
        assert sol.active_set == () and sol.multipliers == ()
        assert sol.kkt_residual == max(0.0, -min_slack)


def test_single_constraint_projection_hand_value():
    # u1 >= 1 from u_des = 0: u* = (1, 0, 0, 0), lambda = 1
    sol = solve(QpProblem(np.zeros(4), [[1.0, 0, 0, 0]], [-1.0], ("floor",)))
    assert np.allclose(sol.u_star, [1.0, 0, 0, 0], atol=0.0)
    assert sol.multipliers == (1.0,)
    assert sol.active_set == ("floor",)


def test_single_constraint_matches_general_solver(rng):
    for _ in range(300):
        u_des, problem, A, b, _ = feasible_instance(rng, 1)
        closed = oracles.solve_single(u_des, A[0], float(b[0]))
        general = solve(problem)
        assert np.max(np.abs(closed - general.u_star)) <= 1e-12


def test_solve_matches_dual_oracle(rng):
    # batch the oracle by constraint count; FISTA vectorizes over instances
    for m in (1, 2, 3):
        instances = [feasible_instance(rng, m) for _ in range(60)]
        got = np.array(
            [
                solve(problem).u_star
                for _, problem, _, _, _ in instances
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
        _, problem, A, b, _ = feasible_instance(rng, m)
        sol = solve(problem)
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
        u_des, problem, A, b, z = feasible_instance(rng, m)
        sol = solve(problem)
        assert np.linalg.norm(sol.u_star - u_des) <= np.linalg.norm(z - u_des) + 1e-9


def test_infeasible_reports_blocking_labels():
    A = [[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]
    with pytest.raises(InfeasibleQpError) as exc_info:
        solve(QpProblem(np.zeros(4), A, [-1.0, -1.0], ("up", "down")))
    assert set(exc_info.value.blocking_labels) == {"up", "down"}


def test_degenerate_row_rejected():
    """A row passed in with ||a|| <= GRADIENT_MIN is a bad value, so a
    ConfigError that an ``except ValueError`` catches."""
    with pytest.raises(ConfigError) as exc_info:
        QpProblem(np.zeros(4), [np.zeros(4)], [-1.0], ("null",))
    assert isinstance(exc_info.value, ValueError)
    assert str(exc_info.value) == "QP row 'null': ||a|| <= 1e-10"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_solution_feasible_and_certified(seed, m):
    """Any feasible instance: u* feasible, multipliers >= 0, KKT tiny."""
    rng = np.random.default_rng(seed)
    _, problem, A, b, _ = feasible_instance(rng, m)
    sol = solve(problem)
    assert np.min(A @ sol.u_star + b) >= -1e-9
    assert all(lam >= 0.0 for lam in sol.multipliers)
    assert sol.kkt_residual <= 1e-8


def _barrier_rows(R, w):
    """Rows -M^T R^T w_i of the (m, 3) w, built as the cone barriers build
    them: all lie in the 3-D range of M^T, so every 4-row Gram is singular
    up to rounding."""
    return (input_map(QuadrotorParams()) @ (R.T @ w.T)).T


def _shared_range_rows(rng, m, z_scale=1.0):
    """Barrier rows of a random attitude and random w, whose z-components
    are scaled by z_scale."""
    R = rotation_matrix(rng.uniform(-0.5, 0.5, 3))
    return _barrier_rows(R, rng.normal(size=(m, 3)) * [1.0, 1.0, z_scale])


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


def near_singular_triple(rng, m):
    """Three rows active at the optimum, whose Gram has s_3 / s_1
    log-uniform in [3 eps, 3e5 eps]: the decades just above lstsq's rank
    cut-off for a 3-row subset, where a rank cut-off set too high would drop
    the winner's third direction. The rows are on the barrier rows' scale
    (s_1 = 1e4) and the multipliers large enough that dropping that
    direction moves the slack past FEAS_TOL. The other rows are slack at
    the optimum."""
    k = 3
    s = [1.0, rng.uniform(0.1, 1.0), k * EPS * 10.0 ** rng.uniform(0.0, 5.0)]
    left = np.linalg.qr(rng.normal(size=(k, k)))[0]
    right = np.linalg.qr(rng.normal(size=(4, k)))[0]
    A = rng.normal(size=(m, 4)) * 100.0
    A[:k] = 100.0 * (left * np.sqrt(s)) @ right.T
    u_star = rng.normal(size=4) * 0.05
    b = rng.uniform(0.1, 1.0, m) * np.linalg.norm(A, axis=1) * 0.05 - A @ u_star
    b[:k] = -(A[:k] @ u_star)
    u_des = u_star - A[:k].T @ rng.uniform(0.1, 1.0, k)
    order = rng.permutation(m)
    return u_des, A[order], b[order]


def single_row_ties(rng, m):
    """Barrier rows nearly parallel in one 3-D range (every w within a
    relative 1e-9 to 1e-2 of one direction, on scales from 1e-4 to 10)
    whose optimum u* is the projection onto one of them, so a single row
    is feasible. Each other row is, at u*, one of: slack by a clear margin,
    weakly active (slack uniform in [0, 1e-9]), or tied (slack 0 in exact
    arithmetic). The violation a_i . u_des + b_i = -t of the optimum's row
    is log-uniform in [1e-8, 1], so ||u_des - u*|| ||a_i|| spans the
    regimes where a tie wins by the feasibility tolerance and where it wins
    by rounding."""
    R = rotation_matrix(rng.uniform(-0.5, 0.5, 3))
    spread = 10.0 ** rng.uniform(-9, -2) * rng.normal(size=(m, 3))
    w = (rng.normal(size=3) + spread) * 10.0 ** rng.uniform(-4, 1)
    A = _barrier_rows(R, w)
    u_star = rng.normal(size=4) * 0.05
    margin, weak = np.abs(_offsets_for(rng, A)), rng.uniform(0.0, 1e-9, m)
    slack = np.choose(rng.integers(3, size=m), [margin, weak, 0.0])
    b = slack - A @ u_star
    i = int(rng.integers(m))
    b[i] = -(A[i] @ u_star)
    t = 10.0 ** rng.uniform(-8, 0)
    return u_star - t * A[i] / (A[i] @ A[i]), A, b


FAMILIES = (
    shared_range,
    generic,
    duplicated,
    near_parallel,
    weak_ties,
    near_planar,
    near_singular_triple,
    single_row_ties,
)


def _assert_in_feasibility_band(u_des, a_w, b_w, c, e, context):
    """||c - u_des|| <= ||e - u_des|| + (FEAS_TOL + rounding) / ||a_w||, for
    c the projection of u_des onto the row a_w . u + b_w >= 0 that u_des
    violates and e a point that passed the feasibility test.

    Exactly, a_w . (u - u_des) = (a_w . u + b_w) - (a_w . u_des + b_w) for
    every u. e's slack on w was computed >= -FEAS_TOL, so its exact slack is
    >= -FEAS_TOL - e_s, while the exact c lies at -(a_w . u_des + b_w) /
    ||a_w|| from u_des; hence ||c - u_des|| - ||e - u_des|| <= (FEAS_TOL +
    e_s) / ||a_w||. With d_c, d_e the two distances and eps two unit
    roundoffs, to first order: e_s, the computed slack at e, is within 2.5
    eps (||a_w|| (||u_des|| + d_e) + |b_w|); c's offset r = -(a_w . u_des +
    b_w) within the same with d_e = 0; g = a_w . a_w, 1 / g, r (1 / g) and
    a_w mu move c by 3.5 eps d_c, and u_des + a_w mu by 0.5 eps (||u_des|| +
    d_c); each computed distance is within 2 eps relative. In units of the
    slack (times ||a_w||) that sums to eps (||a_w|| (5.5 ||u_des|| + 6 d_c +
    4.5 d_e) + 5 |b_w|), which rounding = 16 eps (||a_w|| (||u_des|| + d_c +
    d_e) + |b_w|) covers more than twice over.
    """
    norm_a = float(np.linalg.norm(a_w))
    d_c = float(np.linalg.norm(c - u_des))
    d_e = float(np.linalg.norm(e - u_des))
    scale = norm_a * (float(np.linalg.norm(u_des)) + d_c + d_e) + abs(float(b_w))
    allowance = (FEAS_TOL + 16.0 * EPS * scale) / norm_a
    assert d_c <= d_e + allowance, context


def test_feasible_start_is_the_row_projection_or_the_exhaustive_search():
    """With c, the projection of u_des onto the row w most violated at
    u_des, feasible, the start is c bit for bit. The exhaustive search may
    then return a point e that violates w within FEAS_TOL, but c is no
    farther from u_des than e by more than the feasibility band
    (``_assert_in_feasibility_band``). With c infeasible, the start is the
    exhaustive search's array, and its blocking labels when no subset is
    feasible. Both branches run on at least 20 draws."""
    rng = np.random.default_rng(20261018)
    infeasible = direct = searched = 0
    for family in FAMILIES:
        drawn = 0
        while drawn < 80:
            m = int(rng.integers(3, 9))
            u_des, A, b = family(rng, m)
            if np.min(A @ u_des + b) >= -FEAS_TOL:
                continue  # solve() starts from u_des itself
            drawn += 1
            context = (family.__name__, m, drawn)
            labels = [f"c{i}" for i in range(m)]
            want, blocking = oracles.feasible_start_exhaustive(u_des, A, b, labels)
            c, w = oracles.most_violated_projection(u_des, A, b)
            if np.min(A @ c + b) >= -FEAS_TOL:
                direct += 1
                got = _feasible_start(u_des, A, b, labels, A @ u_des + b, {})
                assert_same_bits(got, c, context)
                assert want is not None, context  # c is one of its candidates
                _assert_in_feasibility_band(u_des, A[w], b[w], c, want, context)
                continue
            searched += 1
            if want is None:
                infeasible += 1
                with pytest.raises(InfeasibleQpError) as exc_info:
                    _feasible_start(u_des, A, b, labels, A @ u_des + b, {})
                assert exc_info.value.blocking_labels == tuple(blocking)
            else:
                got = _feasible_start(u_des, A, b, labels, A @ u_des + b, {})
                assert_same_bits(got, want, context)
    assert infeasible > 0
    assert direct >= 20 and searched >= 20, (direct, searched)


def _assert_recorded_starts_match_exhaustive_oracle(monkeypatch, config):
    """Every feasible start of the run of config, on the run's own
    problems, is the exhaustive search's array, or raises with its
    blocking labels."""
    recorded = []
    feasible_start = qp._feasible_start

    def spy(u_des, A, b, labels, resid, projections):
        try:
            start = feasible_start(u_des, A, b, labels, resid, projections)
        except InfeasibleQpError as exc:
            recorded.append((u_des, A, b, labels, exc))
            raise
        recorded.append((u_des, A, b, labels, start))
        return start

    monkeypatch.setattr(qp, "_feasible_start", spy)
    harness.run(config)
    assert len(recorded) > 100
    for u_des, A, b, labels, got in recorded:
        want, blocking = oracles.feasible_start_exhaustive(u_des, A, b, labels)
        if want is None:
            assert isinstance(got, InfeasibleQpError)
            assert got.blocking_labels == tuple(blocking)
        else:
            assert np.array_equal(got, want)


def test_recorded_field_starts_match_exhaustive_oracle(monkeypatch):
    """Every feasible start of a 1 s field run, on the run's own 8-row
    problems, is the exhaustive search's array, or raises with its
    blocking labels."""
    config = replace(field_scenario(), duration=1.0)
    _assert_recorded_starts_match_exhaustive_oracle(monkeypatch, config)


@pytest.mark.parametrize("name", ["corridor", "two-agent"])
def test_recorded_builtin_starts_match_exhaustive_oracle(monkeypatch, name):
    """The same on two built-ins: corridor's 2-row problems, where the most
    violated row's projection is infeasible on most calls, and two-agent's
    1-row partner problems of both vehicles."""
    _assert_recorded_starts_match_exhaustive_oracle(monkeypatch, get_scenario(name))


def _exhaustive_start(u_des, A, b, labels, resid, projections):
    """``qp._feasible_start`` as the exhaustive search alone."""
    start, blocking = oracles.feasible_start_exhaustive(u_des, A, b, labels)
    if start is None:
        raise InfeasibleQpError("no feasible subset", blocking_labels=blocking)
    return start


def _outcome(problem):
    """solve's answer, or the error it raised."""
    try:
        return solve(problem)
    except (InfeasibleQpError, IterationLimitError, UncertifiedSolutionError) as exc:
        return exc


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_solve_agrees_with_the_exhaustive_start(monkeypatch, family):
    """solve from its own start and from the exhaustive search's: the same
    outcome kind on every draw, the same blocking labels, and where both
    are certified, distances to u_des within 2 FEAS_TOL / min ||a_i|| +
    16 eps ||u* - u_des||: the two starts differ only within the
    feasibility band."""
    rng = np.random.default_rng(7)
    kinds = set()
    for draw in range(80):
        while True:
            m = int(rng.integers(3, 9))
            u_des, A, b = family(rng, m)
            if np.min(A @ u_des + b) < -FEAS_TOL:
                break
        problem = QpProblem(u_des, A, b, _labels(m))
        got = _outcome(problem)
        with monkeypatch.context() as patch:
            patch.setattr(qp, "_feasible_start", _exhaustive_start)
            want = _outcome(problem)
        context = (family.__name__, draw, got, want)
        assert type(got) is type(want), context
        kinds.add(type(got).__name__)
        if isinstance(want, InfeasibleQpError):
            assert got.blocking_labels == want.blocking_labels, context
        elif isinstance(want, qp.QpSolution):
            d_got = float(np.linalg.norm(got.u_star - u_des))
            d_want = float(np.linalg.norm(want.u_star - u_des))
            a_min = float(np.linalg.norm(A, axis=1).min())
            bound = 2.0 * FEAS_TOL / a_min + 16.0 * EPS * max(d_got, d_want)
            assert abs(d_got - d_want) <= bound, context
    assert "QpSolution" in kinds, family.__name__


def test_blocking_labels_of_tied_rows_are_in_row_order():
    """Duplicated rows with equal offsets tie in their slack at u_des; the
    blocking labels list the most violated first and tied rows in row
    order, from the solver and from the oracle alike (a stable sort: the
    default argsort may reorder ties, and on vectorized sorts does)."""
    up, down = [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]
    A = np.array([up, up, down, down])
    b = np.array([-1.0, -1.0, -2.0, -2.0])  # u_1 >= 1 twice, u_1 <= -2 twice
    labels = ["c0", "c1", "c2", "c3"]
    problem = QpProblem(np.zeros(4), A, b, labels)
    with pytest.raises(InfeasibleQpError) as exc_info:
        solve(problem)
    assert exc_info.value.blocking_labels == ("c2", "c3", "c0", "c1")
    _, blocking = oracles.feasible_start_exhaustive(np.zeros(4), A, b, labels)
    assert blocking == ["c2", "c3", "c0", "c1"]


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
        return QpProblem(u_des, A, b, labels)


def _projections_made(monkeypatch, problem):
    """(row tuples projected, solve's outcome): each projection counted once,
    where it is made, a 1-row closed form at ``_project_equalities`` and
    every other row tuple at ``_project_stack``, which the former hands it
    to as a stack of one."""
    projected, stacks = [], []
    project, project_stack = qp._project_equalities, qp._project_stack

    def spy(u_des, A, b, rows):
        made = len(stacks)
        point = project(u_des, A, b, rows)
        if len(stacks) == made:  # the closed form
            projected.append(rows)
        return point

    def spy_stack(u_des, A, b, index):
        stacks.append(index.shape)
        projected.extend(map(tuple, index.tolist()))
        return project_stack(u_des, A, b, index)

    with monkeypatch.context() as patch:
        patch.setattr(qp, "_project_equalities", spy)
        patch.setattr(qp, "_project_stack", spy_stack)
        return projected, _outcome(problem)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_solve_projects_each_row_subset_once(monkeypatch, family):
    """The feasible start and the active-set loop share one projection per
    row tuple, whether projected alone or as an item of the search's stack.
    Every answer is certified or raises; only the third near_planar draw
    raises (see test_near_planar_draw_is_uncertified)."""
    rng = np.random.default_rng(7)
    uncertified = []
    for draw in range(20):
        problem = _intervening_problem(rng, family)
        projected, got = _projections_made(monkeypatch, problem)
        if isinstance(got, UncertifiedSolutionError):
            uncertified.append(draw)
        else:
            assert got.kkt_residual <= _kkt_bound(problem), family.__name__
        assert projected and len(projected) == len(set(projected)), family.__name__
    assert uncertified == ([2] if family is near_planar else []), family.__name__


def _corridor_fallback():
    """u_1 >= 1 and u_2 >= 1 from u_des = 0, a 2-row problem shaped like
    corridor's whose most violated row's projection (1, 0, 0, 0) fails the
    other row: the search's winner is the pair's projection (1, 1, 0, 0)."""
    A = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return np.zeros(4), A, np.array([-1.0, -1.0])


def test_an_out_of_range_single_row_is_projected_once(monkeypatch):
    """A third row whose slack at u_des, 1e-300, is below LAPACK's
    no-rescale range goes to ``_project_stack`` as a stack of one, and is
    still projected once with every other row tuple."""
    u_des, A, b = _corridor_fallback()
    A = np.vstack([A, [0.0, 0.0, 1.0, 0.0]])
    b = np.append(b, 1e-300)
    assert qp._row_multiplier(1.0, -1e-300) is None
    projected, got = _projections_made(monkeypatch, QpProblem(u_des, A, b, _labels(3)))
    assert_same_bits(got.u_star, np.array([1.0, 1.0, 0.0, 0.0]))
    assert projected.count((2,)) == 1
    assert len(projected) == len(set(projected)), projected


def test_a_2_row_search_solves_its_pair_as_a_stack_of_one(monkeypatch):
    """Corridor's fallback: the lone pair is one ``_lstsq`` call on a (1, 2,
    2) stack, the one k-row projection; the single rows take their closed
    form."""
    u_des, A, b = _corridor_fallback()
    grams = []
    lstsq = qp._lstsq

    def spy(M, y):
        grams.append(M.shape)
        return lstsq(M, y)

    monkeypatch.setattr(qp, "_lstsq", spy)
    start = _feasible_start(u_des, A, b, _labels(2), A @ u_des + b, {})
    assert_same_bits(start, np.array([1.0, 1.0, 0.0, 0.0]))
    assert grams == [(1, 2, 2)]


def test_an_8_row_search_solves_each_subset_size_in_one_lstsq_call(monkeypatch):
    """Once the most violated row's projection fails, an 8-row search makes
    one ``_lstsq`` call per subset size 2-4, on the stack of all 28, 56 and
    70 Gram systems of that size; the single rows take their closed form."""
    rng = np.random.default_rng(32)
    while True:
        u_des, A, b = generic(rng, 8)
        resid = A @ u_des + b
        w = int(np.argmin(resid / np.sqrt((A * A).sum(axis=1))))  # as qp picks it
        c = qp._project_equalities(u_des, A, b, (w,))
        if np.min(A @ c + b) < -FEAS_TOL:
            break
    grams = []
    lstsq = qp._lstsq

    def spy(M, y):
        grams.append(M.shape)
        return lstsq(M, y)

    monkeypatch.setattr(qp, "_lstsq", spy)
    try:
        _feasible_start(u_des, A, b, _labels(8), resid, {})
    except InfeasibleQpError:
        pass
    assert grams == [(28, 2, 2), (56, 3, 3), (70, 4, 4)]


def _kkt_bound(problem):
    """The certificate's bound, KKT_RTOL (1 + ||u_des||) (1 + max ||a_i||)."""
    a_max = max(np.linalg.norm(c.gradient_row) for c in problem.constraints)
    return KKT_RTOL * (1.0 + np.linalg.norm(problem.u_des)) * (1.0 + a_max)


def test_near_planar_draw_is_uncertified():
    """The feasible 3-row near_planar draw whose active-set answer has KKT
    residual 2.56e4 raises the typed error, with its labels and residual."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        problem = _intervening_problem(rng, near_planar)
    with pytest.raises(UncertifiedSolutionError) as exc_info:
        solve(problem)
    err = exc_info.value
    assert err.labels == ("c3", "c4", "c2")
    assert 2.5e4 < err.residual < 2.6e4
    assert err.bound == pytest.approx(_kkt_bound(problem), rel=1e-12)
    assert "\n" not in str(err)


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_single_row_gram_solve_is_lstsq():
    """The 1x1 closed form has lstsq's bits: over a log-uniform sweep of g
    and rhs, at signed zeros, and on both sides of both edges of the
    no-rescale range (beyond them it gives way to lstsq itself)."""
    rng = np.random.default_rng(11)
    g = 10.0 ** rng.uniform(-291.0, 291.0, 4000)
    rhs = rng.choice((-1.0, 1.0), 4000) * 10.0 ** rng.uniform(-291.0, 291.0, 4000)
    edges = [
        SAFE_MIN,
        np.nextafter(SAFE_MIN, 0.0),
        np.nextafter(SAFE_MIN, 1.0),
        1.0 / SAFE_MIN,
        np.nextafter(1.0 / SAFE_MIN, np.inf),
        np.nextafter(1.0 / SAFE_MIN, 0.0),
    ]
    pairs = list(zip(g, rhs))
    pairs += [(x, r) for x in (1.0, 3.0, *edges) for r in (0.0, -0.0, 0.7, -3.0)]
    pairs += [(x, r) for x in (0.3, 7.0) for r in edges + [-e for e in edges]]
    pairs += [(x, y) for x in edges for y in edges]
    closed = 0
    for x, r in pairs:
        mu = qp._row_multiplier(float(x), float(r))
        unscaled = SAFE_MIN <= x <= 1.0 / SAFE_MIN and (
            r == 0.0 or SAFE_MIN <= abs(r) <= 1.0 / SAFE_MIN
        )
        assert (mu is not None) == unscaled, (x, r)
        if mu is not None:
            closed += 1
            want = _lstsq(np.array([[x]]), np.array([r]))
            assert_same_bits(np.array([mu]), want, (x, r))
    assert closed > len(g) // 2


def _scaled_rows(rng, shape):
    """Signed normal draws, each row scaled by 10^k with k uniform in
    [-150, 150], a fifth of the entries zeros of either sign."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape[:-1] + (1,))
    zero = rng.random(shape) < 0.2
    x[zero] = rng.choice((0.0, -0.0), int(zero.sum()))
    return x


def test_stacked_row_dots_are_the_per_row_dots():
    """The blocking scan's row dots, one np.vecdot (or for one row its 1-D
    dot), have row by row the bits of the 1-D dot A[j] @ x, on rows and
    vectors of any scale and signed zeros."""
    rng = np.random.default_rng(16)
    for trial in range(4000):
        m = (1, 2, 3, 5, 8, 9)[trial % 6]
        A = _scaled_rows(rng, (m, 4)) if trial % 2 else rng.normal(size=(m, 4))
        x = _scaled_rows(rng, (1, 4))[0] if trial % 3 else rng.normal(size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            got = qp._row_dots(A, x)
            want = [float(a @ x) for a in A]
        assert_same_bits(np.array(got), np.array(want), (A, x))


def test_single_row_projection_is_the_lstsq_projection():
    """The closed-form 1-row projection u_des + a (r (1/g)) has the bits of
    the Gram system solved by lstsq, u_des + A_S^T mu, signed zeros
    included; outside LAPACK's no-rescale range lstsq itself is called."""
    rng = np.random.default_rng(17)
    closed = 0
    for trial in range(6000):
        m = int(rng.integers(1, 5))
        if trial % 2:
            A, u_des = _scaled_rows(rng, (m, 4)), _scaled_rows(rng, (1, 4))[0]
            b = _scaled_rows(rng, (m, 1))[:, 0]
        else:
            A, b = rng.normal(size=(m, 4)), rng.normal(size=m)
            u_des = rng.normal(size=4)
            A[rng.random((m, 4)) < 0.2] = 0.0
            u_des[rng.random(4) < 0.3] = -0.0
        i = int(rng.integers(m))
        if not A[i].any():
            continue
        with np.errstate(all="ignore"):
            A_S, b_S = A[[i]], b[[i]]
            gram, rhs = A_S @ A_S.T, -(A_S @ u_des + b_S)
            if not np.isfinite(gram).all() or not np.isfinite(rhs).all():
                continue
            want = u_des + A_S.T @ _lstsq(gram, rhs)
            got = qp._project_equalities(u_des, A, b, (i,))
        closed += qp._row_multiplier(float(gram[0, 0]), float(rhs[0])) is not None
        assert_same_bits(got, want, (A[i], b[i], u_des))
    assert closed > 3000


@pytest.fixture(scope="module")
def recorded_solves():
    """(problem, solution) of every step whose QP moved u_des, over the
    built-ins at dt = 1/60 and a field at 1/120."""
    configs = [replace(c, dt=1.0 / 60.0) for c in builtin_scenarios()]
    configs.append(field_scenario(1.0 / 120.0))
    recorded = []
    solve_ = harness.solve

    def spy(problem):
        solution = solve_(problem)
        if solution.active_set:
            recorded.append((problem, solution))
        return solution

    harness.solve = spy
    try:
        for config in configs:
            harness._simulate(config)
    finally:
        harness.solve = solve_
    return recorded


def test_closed_forms_leave_u_star_and_active_set_unchanged(
    monkeypatch, recorded_solves
):
    """With the 1-row closed forms swapped for lstsq, the recorded built-in
    and field problems and the seven families solve to the same active set
    and a bit-equal u*; only multipliers and residuals may move."""
    cases = list(recorded_solves)
    assert len(cases) > 500
    assert any(len(p.constraints) == 8 for p, _ in cases)
    rng = np.random.default_rng(7)
    for family in FAMILIES:
        for _ in range(20):
            problem = _intervening_problem(rng, family)
            try:
                cases.append((problem, solve(problem)))
            except UncertifiedSolutionError:
                pass
    monkeypatch.setattr(qp, "_row_multiplier", lambda g, r: None)
    monkeypatch.setattr(qp, "_multipliers", lambda W, step: _lstsq(W.T, step))
    for problem, solution in cases:
        reference = solve(problem)
        assert reference.active_set == solution.active_set
        assert_same_bits(solution.u_star, reference.u_star)


def _assert_solve_is_the_array_loop(problem, context):
    """solve's answer is ``oracles.solve_with_arrays``'s bit for bit: u*,
    active set, multipliers and KKT residual; or both raise the same error,
    with the same blocking labels, or active labels and residual."""
    got = _outcome(problem)
    try:
        want = oracles.solve_with_arrays(problem)
    except (InfeasibleQpError, IterationLimitError, UncertifiedSolutionError) as exc:
        want = exc
    assert type(got) is type(want), context
    if isinstance(want, qp.QpSolution):
        assert_same_bits(got.u_star, want.u_star, context)
        assert got.active_set == want.active_set, context
        assert_same_bits(np.array(got.multipliers), np.array(want.multipliers), context)
        assert_same_bits(np.array(got.kkt_residual), np.array(want.kkt_residual), context)
    elif isinstance(want, InfeasibleQpError):
        assert got.blocking_labels == want.blocking_labels, context
    elif isinstance(want, UncertifiedSolutionError):
        assert got.labels == want.labels, context
        assert_same_bits(np.array(got.residual), np.array(want.residual), context)


# the fewest rows each family draws
_MIN_ROWS = {duplicated: 2, near_parallel: 2, weak_ties: 2, near_singular_triple: 3}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_solve_is_the_array_loop_on_the_families(family):
    """The float loop and certificate against the array form they replace,
    on 20 draws of every row count from 1 (or the family's least) to 8
    whose u_des is unsafe."""
    rng = np.random.default_rng(20)
    for m in range(_MIN_ROWS.get(family, 1), 9):
        drawn = 0
        while drawn < 20:
            u_des, A, b = family(rng, m)
            if np.min(A @ u_des + b) >= -FEAS_TOL:
                continue
            drawn += 1
            problem = QpProblem(u_des, A, b, _labels(m))
            _assert_solve_is_the_array_loop(problem, (m, drawn))


def test_solve_is_the_array_loop_on_recorded_problems(recorded_solves):
    """The same on every intervening problem of the built-ins and a field,
    which end with one active row on most calls and two on corridor's."""
    assert {len(s.active_set) for _, s in recorded_solves} == {1, 2}
    for i, (problem, _) in enumerate(recorded_solves):
        _assert_solve_is_the_array_loop(problem, i)
