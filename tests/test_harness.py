"""Closed-loop harness tests: recording, metrics, determinism, pairs."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from helpers import (
    assert_same_bits,
    field_scenario,
    quantize_edge_values,
    random_cylinder,
    random_sphere,
    random_state,
)
from coneguard import cone, harness, qp, traceio
from coneguard.cone import BodyFrame, Obstacle, ObstacleStack
from coneguard.dynamics import ControlInput, QuadrotorParams, QuadrotorState, step
from coneguard.errors import (
    AttitudeSingularError,
    ConeguardError,
    ConfigError,
    DegenerateGradientError,
    NonFiniteStateError,
    SimulationAbort,
)
from coneguard.harness import (
    AgentSpec,
    ScenarioConfig,
    compare,
    compute_metrics,
    run,
    run_pair,
    separation_distance,
)
from coneguard.qp import QpProblem, QpSolution
from coneguard.records import LINE_BREAKS
from coneguard.reference import HoverReference, LineReference, WaypointReference
from coneguard.scenarios import builtin_scenarios, get_scenario
from coneguard.tracking import ControllerGains


def hover_config(**overrides):
    base = dict(
        name="unit-hover",
        duration=0.5,
        dt=1 / 240,
        initial_state=QuadrotorState.from_vector(
            np.array([0.0, 0.0, 1.0] + [0.0] * 9)
        ),
        reference=HoverReference(point=np.array([0.0, 0.0, 1.0])),
        filter_kind="none",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def line_config(**overrides):
    base = dict(
        name="unit-line",
        duration=1.0,
        dt=1 / 240,
        initial_state=QuadrotorState.from_vector(
            np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0] + [0.0] * 6)
        ),
        reference=LineReference(
            start=np.array([0.0, 0.0, 1.0]), velocity=np.array([1.0, 0.0, 0.0])
        ),
        filter_kind="c3bf",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        hover_config(name="")
    with pytest.raises(ConfigError):
        hover_config(duration=-1.0)
    with pytest.raises(ConfigError):
        hover_config(dt=0.0)
    with pytest.raises(ConfigError):
        hover_config(filter_kind="lqr")
    with pytest.raises(ConfigError):
        hover_config(
            obstacles=(
                Obstacle(
                    kind="sphere", center=(1, 0, 1), radius_raw=0.1, label="partner"
                ),
            )
        )


def test_separation_distance_sphere():
    params = QuadrotorParams()
    state = QuadrotorState.from_vector(np.array([0.0, 0.0, 1.0] + [0.0] * 9))
    obs = Obstacle(kind="sphere", center=(3.0, 0.0, 1.0), radius_raw=0.5)
    d = separation_distance(BodyFrame(state, params), obs, params, 0.0)
    # measured from the offset body center to the inflated surface
    want = np.hypot(3.0, params.center_offset) - (0.5 + params.body_width / 2)
    assert abs(d - want) < 1e-12


def test_separation_distance_cylinder_ignores_axis():
    params = QuadrotorParams()
    state = QuadrotorState.from_vector(np.array([0.0, 0.0, 5.0] + [0.0] * 9))
    obs = Obstacle(
        kind="cylinder", center=(2.0, 0.0, 0.0), radius_raw=0.5, axis=(0, 0, 1.0)
    )
    want = 2.0 - (0.5 + params.body_width / 2)
    frame = BodyFrame(state, params)
    assert abs(separation_distance(frame, obs, params, 0.0) - want) < 1e-12


def test_constraint_rows_labeling(monkeypatch):
    """Unlabeled obstacles are named kind + index; the trace and every QP
    row carry those labels."""
    obstacles = (
        Obstacle(kind="sphere", center=(2, 0, 0), radius_raw=0.2),
        Obstacle(
            kind="cylinder", center=(0, 2, 0), radius_raw=0.2, axis=(0, 0, 1.0)
        ),
        Obstacle(kind="sphere", center=(-2, 0, 0), radius_raw=0.2, label="tagged"),
    )
    problems = []
    solve = harness.solve

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(harness, "solve", spy)
    config = hover_config(
        duration=1 / 240,
        initial_state=QuadrotorState.from_vector(np.zeros(12)),
        reference=HoverReference(point=np.zeros(3)),
        obstacles=obstacles,
        filter_kind="c3bf",
    )
    trace = run(config)
    assert trace.obstacle_labels == ("sphere0", "cylinder1", "tagged")
    assert len(problems) == 2
    for problem in problems:
        assert [c.label for c in problem.constraints] == list(trace.obstacle_labels)


def test_unfiltered_run_builds_no_rows(monkeypatch):
    """An unfiltered run records h, phi and separation from the cone terms
    alone: no barrier row is built and the QP sees no rows."""
    obstacles = (
        Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3),
        Obstacle(
            kind="cylinder", center=(2.0, 1.0, 0.0), radius_raw=0.2, axis=(0, 0, 1.0)
        ),
    )
    config = line_config(duration=0.1, filter_kind="none", obstacles=obstacles)
    twin = run(replace(config, filter_kind="c3bf"))

    def refuse(*args, **kwargs):
        raise AssertionError("an unfiltered run built a barrier row")

    for name in ("barrier_3d", "barrier_projection", "barrier_ho"):
        monkeypatch.setattr(harness, name, refuse)
    problems = []
    solve = harness.solve

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(harness, "solve", spy)
    trace = run(config)
    assert len(problems) == trace.t.shape[0]
    assert all(problem.constraints == () for problem in problems)
    # both runs start from the same state, so step 0 must agree exactly
    assert np.array_equal(trace.h[0], twin.h[0])
    assert np.array_equal(trace.half_angles[0], twin.half_angles[0])
    assert np.array_equal(trace.separation[0], twin.separation[0])


@pytest.mark.parametrize("filter_kind", ["none", "c3bf"])
def test_survey_places_each_obstacle_once_per_step(monkeypatch, filter_kind):
    """The clearance comes from the barrier's own geometry: one
    cone_geometry call per obstacle per step."""
    obstacles = (
        Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3),
        Obstacle(
            kind="cylinder", center=(2.0, 1.0, 0.0), radius_raw=0.2, axis=(0, 0, 1.0)
        ),
    )
    placed = []
    geometry = cone.cone_geometry

    def spy(frame, obstacle, params, t):
        placed.append((obstacle, t))
        return geometry(frame, obstacle, params, t)

    monkeypatch.setattr(cone, "cone_geometry", spy)
    monkeypatch.setattr(harness, "cone_geometry", spy)
    config = line_config(duration=0.1, filter_kind=filter_kind, obstacles=obstacles)
    trace = run(config)
    assert len(placed) == trace.t.shape[0] * len(obstacles)
    assert len({(id(obstacle), t) for obstacle, t in placed}) == len(placed)


@pytest.mark.parametrize("filter_kind", harness.FILTER_KINDS)
def test_survey_separation_is_separation_distance(filter_kind):
    """The survey's clearance cells equal separation_distance bit for bit,
    for spheres and cylinders (with a height, which the HO-CBF's
    encompassing sphere reads) under every filter."""
    rng = np.random.default_rng(12)
    params = QuadrotorParams()
    obstacles = tuple(random_sphere(rng) for _ in range(3))
    obstacles += tuple(random_cylinder(rng) for _ in range(3))
    labels = tuple(f"o{i}" for i in range(len(obstacles)))
    config = line_config(filter_kind=filter_kind, obstacles=obstacles)
    for _ in range(50):
        state = random_state(rng, att_max=0.5)
        t = float(rng.uniform(0.0, 2.0))
        cells, _, _ = harness._survey(state, None, labels, config, t)
        frame = BodyFrame(state, params)
        want = [separation_distance(frame, o, params, t) for o in obstacles]
        assert cells[1::2] == want


def test_trace_shape_and_time_grid():
    config = hover_config()
    trace = run(config)
    n = int(round(config.duration / config.dt))
    assert trace.t.shape == (n + 1,)
    assert trace.states.shape == (n + 1, 12)
    assert trace.u_des.shape == (n + 1, 4)
    assert abs(trace.t[1] - trace.t[0] - config.dt) < 1e-9
    assert trace.obstacle_labels == ()
    assert trace.h.shape == (n + 1, 0)
    assert trace.table.shape == (n + 1, len(traceio.trace_columns(())))
    assert not trace.states.flags.writeable  # views of the one table


def test_unfiltered_run_never_modifies_commands():
    obs = Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3)
    trace = run(line_config(filter_kind="none", obstacles=(obs,)))
    assert np.array_equal(trace.u_star, trace.u_des)
    metrics = compute_metrics(trace)
    assert metrics.intervention_duty == 0.0
    assert metrics.max_deviation == 0.0


def test_filtered_run_intervenes_and_avoids():
    obs = Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3)
    trace = run(line_config(duration=2.0, obstacles=(obs,)))
    metrics = compute_metrics(trace)
    assert metrics.intervention_duty > 0.0
    assert metrics.min_separation >= -1e-3
    assert metrics.success


def test_unfiltered_run_collides_on_same_geometry():
    obs = Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3)
    trace = run(line_config(duration=2.0, filter_kind="none", obstacles=(obs,)))
    assert compute_metrics(trace).min_separation < 0.0
    assert bool(np.any(trace.separation < -harness.VIOLATION_TOL))


def test_determinism_bitwise():
    obs = Obstacle(kind="sphere", center=(1.0, 0.0, 1.0), radius_raw=0.3)
    a = run(line_config(duration=1.0, obstacles=(obs,)))
    b = run(line_config(duration=1.0, obstacles=(obs,)))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.h, b.h)


def test_recorded_floats_survive_nine_digit_quantization():
    trace = run(hover_config(duration=0.2))
    for arr in (trace.t, trace.states, trace.u_des, trace.u_star):
        flat = np.asarray(arr).ravel()
        requantized = np.array([float(f"{v:.8e}") for v in flat])
        assert np.array_equal(flat, requantized)


def test_abort_carries_step_index():
    # spin fast enough that the attitude leaves its box in well under the
    # configured duration
    wild = QuadrotorState.from_vector(
        np.array([0.0, 0.0, 1.0, 0, 0, 0, 0.0, 0.0, 0.0, 60.0, 0.0, 0.0])
    )
    with pytest.raises(SimulationAbort) as exc_info:
        run(hover_config(initial_state=wild, duration=2.0))
    assert 0 < exc_info.value.step_index < 480
    assert "step" in str(exc_info.value)


def test_non_finite_thrusts_abort_the_run(monkeypatch):
    def nan_solve(problem):
        return QpSolution(np.full(4, np.nan), (), (), 0.0)

    monkeypatch.setattr(harness, "solve", nan_solve)
    with pytest.raises(SimulationAbort) as exc_info:
        run(hover_config())
    assert exc_info.value.step_index == 0
    assert "thrusts must be finite" in str(exc_info.value)


def _abort(config):
    with pytest.raises(SimulationAbort) as exc_info:
        run(config)
    return exc_info.value


def test_non_finite_tracking_thrust_aborts_where_made():
    """A reference 1e200 m away overflows the commanded thrust: tracking
    rejects it at step 0, as the thrust constructor always has."""
    err = _abort(hover_config(reference=HoverReference([1e200, 0.0, 1.0])))
    assert err.step_index == 0
    assert isinstance(err.__cause__, ConfigError)
    assert str(err) == "step 0 (t=0.0000s): thrusts must be finite"


def test_non_finite_barrier_row_aborts_where_made():
    """An obstacle closing at 1e154 m/s gives an infinite row offset: the
    barrier rejects its row at step 0, as the row constructor always has."""
    fast = Obstacle(kind="sphere", center=(2.0, 0.0, 1.0), radius_raw=0.2,
                    velocity=(-1e154, 0.0, 0.0))
    err = _abort(line_config(obstacles=(fast,)))
    assert err.step_index == 0
    assert isinstance(err.__cause__, ConfigError)
    assert str(err) == "step 0 (t=0.0000s): constraint row must be finite"


def test_non_finite_state_aborts_where_made(monkeypatch):
    """Thrusts of 1e307 N overflow the first RK4 step: the step that made
    the state rejects it, with its own index."""
    monkeypatch.setattr(harness, "track", lambda *args: ControlInput(np.full(4, 1e307)))
    err = _abort(hover_config())
    assert err.step_index == 0
    assert isinstance(err.__cause__, NonFiniteStateError)
    assert str(err) == "step 0 (t=0.0000s): integration step produced non-finite state"


def test_attitude_leaving_its_range_aborts_at_the_step_that_reads_it():
    """The attitude range is checked at the start of the step that uses the
    state, so the abort names that step and the state's own angles."""
    wild = QuadrotorState.from_vector(
        np.array([0.0, 0.0, 1.0, 0, 0, 0, 0.0, 0.0, 0.0, 60.0, 0.0, 0.0])
    )
    config = hover_config(initial_state=wild, duration=2.0)
    err = _abort(config)
    assert isinstance(err.__cause__, AttitudeSingularError)
    k = err.step_index
    assert run(replace(config, duration=(k - 1) * config.dt)).t.shape[0] == k
    prefix = f"step {k} (t={k * config.dt:.4f}s): attitude out of range"
    assert str(err).startswith(prefix)


LINE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def _stepped_past_vertical():
    """A state that step returned, pitched past pi/2 (finite, so it built)."""
    state = QuadrotorState.from_vector([0, 0, 1, 0, 0, 0, 0, 1.5, 0, 0, 10.0, 0])
    stepped = step(state, ControlInput(np.zeros(4)), 0.01, QuadrotorParams())
    assert stepped.attitude[1] > np.pi / 2
    return stepped


def _step_at_rest(dt):
    state = QuadrotorState.from_vector(np.zeros(12))
    return step(state, ControlInput(np.zeros(4)), dt, QuadrotorParams())


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ControllerGains(roll_p=-1.0), id="gains"),
        pytest.param(lambda: QuadrotorParams(mass=0.0), id="params"),
        pytest.param(lambda: ControlInput([0.0, np.nan, 0.0, 0.0]), id="thrusts"),
        pytest.param(
            lambda: QpProblem(np.zeros(4), [[np.inf, 0.0, 0.0, 0.0]], [0.0], ("c0",)),
            id="qp-row",
        ),
        pytest.param(lambda: WaypointReference(LINE[:1], 1.0), id="one-waypoint"),
        pytest.param(lambda: WaypointReference(LINE, 0.0), id="waypoint-speed"),
        pytest.param(lambda: WaypointReference(LINE, np.nan), id="waypoint-speed-nan"),
        pytest.param(lambda: HoverReference([np.nan, 0.0, 1.0]), id="hover-nan"),
        pytest.param(
            lambda: LineReference(np.zeros(3), [np.inf, 0.0, 0.0]), id="line-inf"
        ),
        pytest.param(
            lambda: WaypointReference(LINE[[0, 0]], 1.0), id="repeated-waypoint"
        ),
        pytest.param(
            lambda: hover_config(
                partner=AgentSpec(
                    QuadrotorState.from_vector([0, 0, 1, 0, 0, 0, 0, 2.0, 0, 0, 0, 0]),
                    HoverReference([1.0, 0.0, 1.0]),
                )
            ),
            id="partner-initial-attitude",
        ),
        pytest.param(
            lambda: Obstacle(kind="sphere", center=(np.nan, 0, 0), radius_raw=0.1),
            id="obstacle-center-nan",
        ),
        pytest.param(
            lambda: QuadrotorState.from_vector(np.full(12, np.nan)), id="state-nan"
        ),
        pytest.param(
            lambda: hover_config(initial_state=_stepped_past_vertical()),
            id="stepped-initial-attitude",
        ),
        pytest.param(lambda: _step_at_rest(0.0), id="step-dt"),
        pytest.param(lambda: _step_at_rest(np.nan), id="step-dt-nan"),
        pytest.param(lambda: _step_at_rest("x"), id="step-dt-str"),
    ],
)
def test_library_validators_raise_config_error(build):
    """Each bad value is a ConfigError, so a ValueError, with one line."""
    with pytest.raises(ValueError) as caught:
        build()
    assert isinstance(caught.value, ConfigError)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("gap", [1e-170, 1e-160, 5e-324])
def test_waypoints_closer_than_the_norm_can_square_are_distinct(gap):
    """A segment whose squares underflow has its length from the scaled norm
    and its unit direction; only an all-zero segment is refused."""
    reference = WaypointReference([[0.0, 0.0, 1.0], [gap, 0.0, 1.0]], 1.0)
    assert reference._t_knots.tolist() == [0.0, gap]
    assert reference._seg_dir.tolist() == [[1.0, 0.0, 0.0]]
    assert reference.sample(1.0).position.tolist() == [gap, 0.0, 1.0]
    with pytest.raises(ConfigError, match="must be distinct"):
        WaypointReference([[gap, 0.0, 1.0], [gap, 0.0, 1.0]], 1.0)


@pytest.mark.parametrize("name", [f"a{c}b" for c in LINE_BREAKS])
def test_scenario_name_with_a_line_break_rejected(name):
    """metrics.txt and validate-config print the name on one line."""
    with pytest.raises(ConfigError) as caught:
        hover_config(name=name)
    assert str(caught.value) == f"scenario name {name!r} may not contain line breaks"


def test_run_pair_point_symmetry(params):
    """A 180-degree-symmetric two-agent encounter stays symmetric.

    The agents start offset so the swerve direction is determined; exact
    head-on alignment is a measure-zero degenerate case. The configuration
    is invariant under rotation by pi about the vertical line through
    (1.5, 0), so the trajectories must map onto each other under
    (x, y) -> (3 - x, -y).
    """
    dt = 1 / 240
    ego = QuadrotorState.from_vector(
        np.array([0.0, -0.03, 1.0, 1.0, 0.0, 0.0] + [0.0] * 6)
    )
    partner = QuadrotorState.from_vector(
        np.array([3.0, 0.03, 1.0, -1.0, 0.0, 0.0] + [0.0] * 6)
    )
    config = ScenarioConfig(
        name="unit-two-agent",
        duration=2.0,
        dt=dt,
        initial_state=ego,
        reference=LineReference(
            start=np.array([0.0, -0.03, 1.0]), velocity=np.array([1.0, 0.0, 0.0])
        ),
        filter_kind="c3bf",
        partner=AgentSpec(
            initial_state=partner,
            reference=LineReference(
                start=np.array([3.0, 0.03, 1.0]), velocity=np.array([-1.0, 0.0, 0.0])
            ),
        ),
    )
    trace_a, trace_b = run_pair(config)
    assert np.array_equal(run(config).states, trace_a.states)
    assert trace_b.name == trace_a.name + "-partner"
    assert "partner" in trace_a.obstacle_labels
    xa, ya = trace_a.states[:, 0], trace_a.states[:, 1]
    xb, yb = trace_b.states[:, 0], trace_b.states[:, 1]
    assert np.max(np.abs(xa + xb - 3.0)) < 5e-3
    assert np.max(np.abs(ya + yb)) < 5e-3
    assert np.max(np.abs(trace_a.states[:, 2] - trace_b.states[:, 2])) < 5e-3
    # and neither agent hits the other
    assert compute_metrics(trace_a).min_separation > 0.0
    assert compute_metrics(trace_b).min_separation > 0.0


@pytest.mark.xfail(
    strict=True, reason="the partner row sees the partner at position + velocity * t"
)
def test_partner_clearance_is_from_the_partner_position():
    """The recorded partner clearance is the distance from the vehicle's
    body centre to the partner's position, less the two half-widths. At
    t = 2 s of two-agent that is +0.012 m, but the partner sphere is
    centred at the partner's position and the row then moves it by
    velocity * t, so the trace reads +1.871 m. Mending it moves the
    two-agent digest."""
    config = get_scenario("two-agent")
    trace_a, trace_b = run_pair(replace(config, duration=2.5))
    k = int(np.argmin(np.abs(trace_a.t - 2.0)))
    state = trace_a.states[k]
    centre = state[:3] + oracles.rot_zyx(state[6:9]) @ [0.0, 0.0, oracles.OFFSET]
    gap = np.linalg.norm(trace_b.states[k, :3] - centre) - config.params.body_width
    assert trace_a.separation[k, -1] == pytest.approx(gap, abs=1e-6)


def test_compare_reports_both_sides():
    # offset below the flight line so the baseline's radial push has a
    # thrust-axis component; dead-center geometry flips the HO side over
    obs = Obstacle(
        kind="sphere", center=(2.0, 0.05, 0.90), radius_raw=0.2, velocity=(-0.3, 0, 0)
    )
    config = line_config(duration=2.0, obstacles=(obs,))
    ((report,),) = compare(config, (1.0,))
    assert report.trace_a.filter_kind == "c3bf"
    assert report.trace_b.filter_kind == "hocbf"
    assert report.trace_a.h.shape == report.trace_b.h.shape
    assert report.phi_ratio.shape == report.trace_b.h.shape
    # the curve is positive wherever the HO cone is defined, and during the
    # fast approach phase it must be > 1 (the effective cone opens wider)
    finite = np.isfinite(report.phi_ratio)
    assert np.all(report.phi_ratio[finite] > 0.0)
    assert np.max(report.phi_ratio[finite]) > 1.0


def test_compare_runs_the_c3bf_side_once(monkeypatch):
    """A sweep of three penalties flies four runs, and every report shares
    the one C3BF trace; a bad penalty fails before any flight."""
    obs = Obstacle(
        kind="sphere", center=(2.0, 0.05, 0.90), radius_raw=0.2, velocity=(-0.3, 0, 0)
    )
    config = line_config(duration=0.5, obstacles=(obs,))
    flown = []
    fly = harness.run_pair

    def spy(config):
        flown.append(config)
        return fly(config)

    monkeypatch.setattr(harness, "run_pair", spy)
    reports = [report for (report,) in compare(config, (0.5, 1.0, 2.0))]
    assert [c.filter_kind for c in flown] == ["c3bf"] + ["hocbf"] * 3
    assert [c.hocbf_gamma for c in flown[1:]] == [0.5, 1.0, 2.0]
    assert all(report.trace_a is reports[0].trace_a for report in reports)
    assert [report.trace_b.filter_kind for report in reports] == ["hocbf"] * 3
    flown.clear()
    with pytest.raises(ConfigError):
        list(compare(config, (0.5, 0.0)))
    assert flown == []


def test_metrics_tracking_rms_present_for_reference_runs():
    metrics = compute_metrics(run(hover_config(duration=0.5)))
    assert np.isfinite(metrics.tracking_rms)
    assert metrics.tracking_rms < 0.05
    assert metrics.min_separation == np.inf  # no obstacles anywhere


def test_quantize_matches_the_string_rule():
    """_quantize rounds exactly as float(format(v, ".8e")) per value."""
    rng = np.random.default_rng(11)
    signs = rng.choice([-1.0, 1.0], 20000)
    values = np.concatenate(
        [
            signs * 10.0 ** rng.uniform(-300.0, 300.0, 20000),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072e-310],
        ]
    )
    table = values.reshape(-1, 41).copy()  # a 10-obstacle trace is 41 wide
    traceio._quantize(table)
    want = np.array([float(format(v, traceio.FLOAT_FORMAT)) for v in values.tolist()])
    got = table.ravel()
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_quantize_edge_cases_match_the_string_rule(builtin_flights):
    """The entries the array rule hands to the string rule or could misround,
    and one ulp either side of each: decimal ties between two 9-digit values,
    powers of ten, carries into a tenth digit, zeros and subnormals; and
    every raw value of the eight built-ins' tables."""
    for table in [quantize_edge_values().reshape(-1, 2)] + builtin_flights.raw_tables:
        want = [float(format(v, traceio.FLOAT_FORMAT)) for v in table.ravel().tolist()]
        got = table.copy()
        traceio._quantize(got)
        assert_same_bits(got.ravel(), np.array(want))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "name, duration",
    [
        ("moving-head-on", 4.5),
        ("cylinder-side", 4.5),
        ("two-agent", 1.0),
        ("field", 2.5),
    ],
)
def test_phi_ratio_matches_the_per_row_oracle(name, duration, gamma):
    """The batched phi'/phi has the bits of the row-by-row scalar path, over
    the closest approach of a sphere and of a cylinder (the projector), on
    the tests' field of static and head-on spheres and two cylinders, and
    has no column for a pair's partner. The field ends before gamma = 0.5's
    run aborts, at t = 2.604 s."""
    config = replace(
        field_scenario() if name == "field" else get_scenario(name),
        duration=duration,
        filter_kind="hocbf",
        hocbf_gamma=gamma,
    )
    trace = run(config)
    labels, ratio = harness._phi_ratio(trace, config)
    want_labels, want = oracles.phi_ratio_per_row(trace, config)
    assert labels == want_labels
    assert ratio.shape == want.shape == (trace.t.shape[0], len(config.obstacles))
    assert_same_bits(ratio, want, name)


def _wide(rng, shape):
    """Signed draws whose magnitudes span 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def test_batched_products_are_bit_equal_to_per_row_ones():
    """_phi_ratio and cone.barrier_stack rely on these: the projector as a
    broadcast matmul over (N, 3, 1), one projector per row stacked, and one
    per column of an (n, k, 3, 1) grid, broadcast over its n rows, the
    np.vecdot of a row with itself and of two rows, R^T w and -M^T y with
    the step's matrices broadcast over (N, 3, 1), w.a_d as the np.vecdot of
    each row with one 3-vector, and arccos over an array, each equal to the
    per-row call of the scalar path. The operands keep the scalar path's
    layout (a contiguous projector, a transposed R and -M^T, rows of p),
    since BLAS may sum in another order for another layout: w @ a_d as an
    (N, 3) by (3,) matmul, for one, does not give the per-row bits."""
    rng = np.random.default_rng(12)
    n = 4000
    p = _wide(rng, (n, 3))
    projectors = []
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        cylinder = Obstacle(kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=axis)
        P = cylinder._projector
        projectors.append(P)
        projected = np.matmul(P, p[:, :, None])[:, :, 0]
        assert_same_bits(projected, np.array([P @ row for row in p]))
        for q in (p, projected):
            dots = np.vecdot(q, q)
            assert_same_bits(dots, np.array([float(row @ row) for row in q]))
    cos_phi = np.concatenate(
        [rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-300.0, 0.0, n), [0.0, 1.0]]
    )
    angles = np.arccos(cos_phi)
    assert_same_bits(angles, np.array([float(np.arccos(c)) for c in cos_phi.tolist()]))
    v, rows = _wide(rng, (n, 3)), _wide(rng, (n, 4))
    stacked = np.array([projectors[i % 5] for i in range(n)])
    assert_same_bits(
        np.matmul(stacked, p[:, :, None])[:, :, 0],
        np.array([P @ row for P, row in zip(stacked, p)]),
    )
    grid = p.reshape(-1, 5, 3)
    assert_same_bits(
        np.matmul(np.array(projectors), grid[..., None])[..., 0],
        np.array([[P @ row for P, row in zip(projectors, rows)] for rows in grid]),
    )
    for a, b in ((p, v), (rows, rows)):
        dots = np.vecdot(a, b)
        assert_same_bits(dots, np.array([float(x @ y) for x, y in zip(a, b)]))
    for _ in range(5):
        frame = BodyFrame(random_state(rng, att_max=1.4, rate=50.0), QuadrotorParams())
        y = np.matmul(frame.R.T, v[:, :, None])
        assert_same_bits(y[:, :, 0], np.array([frame.R.T @ w for w in v]))
        input_rows = np.matmul(frame.input_map, y)[:, :, 0]
        assert_same_bits(input_rows, np.array([frame.input_map @ x for x in y[:, :, 0]]))
        drifts = np.vecdot(v, frame.a_d)
        assert_same_bits(drifts, np.array([float(w @ frame.a_d) for w in v]))


def _stack(config):
    """The arrays the stacked survey of a solo run takes."""
    return ObstacleStack(config.obstacles, config.params.body_width)


def _survey_outcome(state, config, t, stack=None):
    """The survey's cells, angles and rows as arrays, or its error."""
    labels = harness._obstacle_labels(config)
    try:
        cells, angles, (A, b, row_labels) = harness._survey(
            state, None, labels, config, t, stack
        )
    except ConeguardError as exc:
        return type(exc), str(exc)
    assert A.dtype == b.dtype == float and A.shape == (len(b), 4)
    assert not (A.flags.writeable or b.flags.writeable)
    return np.asarray(cells), np.asarray(angles), A, b, row_labels


def _assert_same_survey(got, want, context=""):
    assert len(got) == len(want), context
    if len(want) == 2:  # an error: its type and message
        assert got == want, context
        return
    for got_part, want_part in zip(got[:4], want[:4]):
        assert_same_bits(got_part, want_part, context)
    assert got[4] == want[4], context


def _wide_obstacle(rng, i):
    """A sphere or a cylinder on a random axis, static or moving, placed
    at magnitudes from 1e-8 to 1e8 m."""
    moving = i % 3 != 0
    velocity = _wide(rng, 3) if moving else (0.0, 0.0, 0.0)
    radius = float(rng.uniform(0.05, 1.0))
    if i % 2:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        return Obstacle(kind="cylinder", center=_wide(rng, 3), radius_raw=radius,
                        axis=axis, velocity=velocity)
    return Obstacle(kind="sphere", center=_wide(rng, 3), radius_raw=radius,
                    velocity=velocity)


def _wide_state(rng):
    """A vehicle state at magnitudes from 1e-8 to 1e8, attitude in range."""
    return QuadrotorState.from_vector(
        np.concatenate(
            [
                _wide(rng, 3),
                _wide(rng, 3),
                rng.uniform(-1.4, 1.4, 3),
                _wide(rng, 3) * 1e-4,
            ]
        )
    )


def test_stacked_survey_is_bit_equal_to_the_per_row_one():
    """barrier_stack through the survey against barrier_3d and
    barrier_projection one row at a time, for 1 to 8 obstacle rows on the
    same frame: every cell, phi and QP row has the same bits, sign bits
    included."""
    rng = np.random.default_rng(14)
    for m in range(1, 9):
        for _ in range(40):
            obstacles = tuple(_wide_obstacle(rng, i + m) for i in range(m))
            config = line_config(obstacles=obstacles)
            state = _wide_state(rng)
            t = float(rng.uniform(0.0, 5.0))
            want = _survey_outcome(state, config, t)
            assert len(want) == 5  # no row of these draws is refused
            got = _survey_outcome(state, config, t, _stack(config))
            _assert_same_survey(got, want, (m, state, t))


def _spied_runs(monkeypatch, config, stack_min_rows):
    """The trace of run and the QP problem of every step."""
    monkeypatch.setattr(harness, "STACK_MIN_ROWS", stack_min_rows)
    problems, stacked = [], []
    solve, barrier_stack = qp.solve, cone.barrier_stack  # not an earlier spy

    def spy_solve(problem):
        problems.append(problem)
        return solve(problem)

    def spy_stack(*args):
        stacked.append(args)
        return barrier_stack(*args)

    monkeypatch.setattr(harness, "solve", spy_solve)
    monkeypatch.setattr(harness, "barrier_stack", spy_stack)
    trace = run(config)
    rows = len(harness._obstacle_labels(config))
    assert len(stacked) == (len(problems) if rows >= stack_min_rows else 0)
    return trace, problems


def test_stacked_closed_loop_is_bit_equal_to_the_per_row_one(monkeypatch):
    """Every step of an 8-obstacle C3BF run gives the same trace bytes, phi
    and QP rows on either survey path."""
    config = field_scenario()
    assert len(harness._obstacle_labels(config)) >= harness.STACK_MIN_ROWS
    stacked, stacked_problems = _spied_runs(monkeypatch, config, harness.STACK_MIN_ROWS)
    per_row, per_row_problems = _spied_runs(monkeypatch, config, 10**9)
    assert len(stacked_problems) == len(per_row_problems)
    assert max(len(p.constraints) for p in per_row_problems) == 8
    assert_same_bits(stacked.table, per_row.table)
    assert_same_bits(stacked.half_angles, per_row.half_angles)
    for got, want in zip(stacked_problems, per_row_problems):
        assert_same_bits(got.u_des, want.u_des)
        assert [c.label for c in got.constraints] == [c.label for c in want.constraints]
        for a, b in zip(got.constraints, want.constraints):
            assert_same_bits(a.gradient_row, b.gradient_row)
            assert_same_bits(np.array(a.offset), np.array(b.offset))


def test_a_pair_surveys_row_by_row(monkeypatch):
    """A pair flying the 8-obstacle field builds no stack and never calls
    barrier_stack, though it has more than STACK_MIN_ROWS rows: each
    vehicle hands solve its 8 obstacle rows and then the partner's, every
    step."""
    start = np.array([4.0, 0.3, 1.0])
    config = replace(
        field_scenario(),
        duration=1.0,
        partner=AgentSpec(
            initial_state=QuadrotorState.from_vector(
                np.concatenate([start, [-1.0, 0.0, 0.0], np.zeros(6)])
            ),
            reference=LineReference(start, np.array([-1.0, 0.0, 0.0])),
        ),
    )
    labels = harness._obstacle_labels(config)
    assert len(labels) == 9 > harness.STACK_MIN_ROWS and labels[-1] == "partner"
    built, stacked, problems = [], [], []
    solve = qp.solve  # not an earlier spy
    monkeypatch.setattr(harness, "ObstacleStack", lambda *args: built.append(args))
    monkeypatch.setattr(harness, "barrier_stack", lambda *args: stacked.append(args))
    monkeypatch.setattr(harness, "solve", lambda p: problems.append(p) or solve(p))
    run_pair(config)
    assert built == [] and stacked == []
    assert len(problems) == 2 * (round(config.duration / config.dt) + 1)
    for problem in problems:
        assert tuple(c.label for c in problem.constraints) == labels


@pytest.mark.parametrize(
    "bad, want",
    [
        ({1: "vanished", 2: "infinite"}, DegenerateGradientError),
        ({1: "infinite", 2: "vanished"}, ConfigError),
        ({1: "vanished", 3: "vanished"}, DegenerateGradientError),
        ({3: "infinite"}, ConfigError),
    ],
)
def test_stacked_survey_raises_the_per_row_error(bad, want):
    """Rows whose gradient vanishes (the obstacle center on the body center,
    at its velocity) or whose offset is infinite (closing at 1e154 m/s): both
    paths raise the first bad row's error, with its label."""
    state = QuadrotorState.from_vector(np.array([0.0, 0.0, 1.0] + [0.0] * 9))
    frame = BodyFrame(state, QuadrotorParams())
    obstacles = []
    for i, label in enumerate("abcd"):
        kind = bad.get(i)
        if kind == "vanished":
            center, velocity = frame.position, frame.velocity
        else:
            center = (2.0 + i, 0.1 * i, 1.0)
            velocity = (-1e154, 0.0, 0.0) if kind == "infinite" else (0.0, 0.0, 0.0)
        obstacles.append(Obstacle(kind="sphere", center=center, radius_raw=0.2,
                                  velocity=velocity, label=label))
    config = line_config(obstacles=tuple(obstacles))
    expected = _survey_outcome(state, config, 0.0)
    assert expected[0] is want
    if want is DegenerateGradientError:
        assert expected[1] == f"obstacle {'abcd'[min(bad)]!r}: barrier gradient vanished"
    got = _survey_outcome(state, config, 0.0, _stack(config))
    _assert_same_survey(got, expected)
