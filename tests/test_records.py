"""Records built from checked values match the ones their constructors build,
and every constructor refuses a wrong-typed argument with a typed error."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_same_bits, random_state
from coneguard.cone import Obstacle
from coneguard.dynamics import ControlInput, QuadrotorParams, QuadrotorState, control_of
from coneguard.errors import ConeguardError
from coneguard.harness import AgentSpec, _as_obstacle, compare, run, run_pair
from coneguard.qp import (
    AffineSafetyConstraint,
    QpProblem,
    QpSolution,
    checked_problem,
    solve,
)
from coneguard.records import prebuilt
from coneguard.reference import HoverReference, ReferenceSample, WaypointReference
from coneguard.scenarios import get_scenario


def _assert_same_record(built, constructed):
    """Same class, same attribute names, bit-equal read-only arrays and
    equal (or identical) other values."""
    assert type(built) is type(constructed)
    assert vars(built).keys() == vars(constructed).keys()
    for name, want in vars(constructed).items():
        got = vars(built)[name]
        if isinstance(want, np.ndarray):
            assert_same_bits(got, want, name)
            assert not got.flags.writeable, name
        else:
            assert got == want, name


def test_checked_constructions_match_the_constructors():
    rng = np.random.default_rng(3)
    params = QuadrotorParams()
    a, u = rng.normal(size=(2, 4)), rng.normal(size=4)
    u_read_only, A, b = u.copy(), a.copy(), np.array([0.0, 0.25])
    for array in (u_read_only, A, b):
        array.setflags(write=False)
    problem = checked_problem(u_read_only, A, b, ("obs0", "obs1"))
    _assert_same_record(problem, QpProblem(u, a, [0.0, 0.25], ["obs0", "obs1"]))
    # the records a problem gives back are the rows it was built from
    rows = [AffineSafetyConstraint(a[i], 0.25 * i, label=f"obs{i}") for i in range(2)]
    for got, want in zip(problem.constraints, rows, strict=True):
        _assert_same_record(got, want)
    _assert_same_record(control_of(u.copy()), ControlInput(u))
    state = random_state(rng)
    partner = Obstacle(
        kind="sphere",
        center=state.position,
        radius_raw=0.5 * params.body_width,
        velocity=state.velocity,
        label="partner",
    )
    _assert_same_record(_as_obstacle(state, params), partner)
    # the step's other records: a reference sample and the QP's early exit
    point = rng.normal(size=3)
    sample = HoverReference(point).sample(0.0)
    _assert_same_record(sample, ReferenceSample(sample.position, ZERO, ZERO))
    u_des = u_read_only
    solution = solve(checked_problem(u_des, A, b + 1e3, ("obs0", "obs1")))
    _assert_same_record(solution, QpSolution(u_des, (), (), 0.0))


def test_prebuilt_takes_exactly_the_fields():
    a = np.ones(4)
    build = prebuilt(AffineSafetyConstraint)
    with pytest.raises(TypeError):
        build(gradient_row=a, offset=0.0)
    with pytest.raises(TypeError):
        build(gradient_row=a, offset=0.0, label="", x=1)
    with pytest.raises(TypeError):
        build(a, 0.0, "", 1)
    row = build(gradient_row=a, offset=0.0, label="")
    assert row.gradient_row is a and (row.offset, row.label) == (0.0, "")
    assert vars(build(a, 0.0, "")) == vars(row)


LINE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
ZERO = np.zeros(3)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda c: replace(c, duration="x"), id="duration-str"),
        pytest.param(lambda c: replace(c, duration=True), id="duration-bool"),
        pytest.param(lambda c: replace(c, dt=None), id="dt-none"),
        pytest.param(lambda c: replace(c, initial_state=None), id="state-none"),
        pytest.param(lambda c: replace(c, obstacles=(1,)), id="obstacle-int"),
        pytest.param(lambda c: replace(c, gains="x"), id="gains-str"),
        pytest.param(lambda c: replace(c, partner=1), id="partner-int"),
        pytest.param(lambda c: replace(c, reference=None), id="reference-none"),
        pytest.param(lambda c: replace(c, kappa_gamma="2.0"), id="kappa-str"),
        pytest.param(lambda c: replace(c, hocbf_gamma=None), id="hocbf-none"),
        pytest.param(lambda c: AgentSpec(None, c.reference), id="agent-state-none"),
        pytest.param(lambda c: WaypointReference(LINE, "x"), id="speed-str"),
        pytest.param(lambda c: HoverReference("abc"), id="hover-str"),
        pytest.param(lambda c: HoverReference([[0, 0, 1]]), id="hover-nested"),
        pytest.param(lambda c: ControlInput("abcd"), id="thrusts-str"),
        pytest.param(lambda c: QuadrotorState("abc", ZERO, ZERO, ZERO), id="state-str"),
        pytest.param(
            lambda c: QuadrotorState(ZERO, [True, 0, 0], ZERO, ZERO),
            id="velocity-bools",
        ),
        pytest.param(
            lambda c: ControlInput(np.ones(4, dtype=bool)), id="thrusts-bools"
        ),
        pytest.param(
            lambda c: WaypointReference([[0, 0, 0], [1, 0, True]], 1.0),
            id="waypoint-bool",
        ),
        pytest.param(lambda c: QpProblem(np.ones(4), (1, 2)), id="qp-rows-int"),
        pytest.param(lambda c: run(None), id="run-none"),
        pytest.param(lambda c: run_pair(None), id="run-pair-none"),
        pytest.param(lambda c: compare(None, (1.0,)), id="compare-none"),
        pytest.param(lambda c: compare(c, 5), id="compare-gammas-int"),
    ],
)
def test_wrong_typed_arguments_raise_one_line_package_errors(build):
    with pytest.raises(ConeguardError) as exc_info:
        build(get_scenario("static-overtake"))
    assert "\n" not in str(exc_info.value)
