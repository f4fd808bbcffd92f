"""Closed-loop simulation harness: one step loop for one or two vehicles.

At every control step each vehicle in turn runs the pipeline

    reference -> PD tracking -> barrier survey -> safety QP

on the states at the start of the step; then RK4 advances every vehicle.
A scenario with a ``partner`` flies two vehicles, and each sees the other
as one more obstacle: a constant-velocity sphere at its position and
velocity, which is how the constant-velocity obstacle assumption is applied
receding-horizon style. ``run_pair`` flies any scenario and returns every
vehicle's trace, the scenario's own first; ``run`` returns only that one.
The survey builds QP rows only when a filter reads them.
It takes one of two paths. A solo C3BF run with at least STACK_MIN_ROWS
rows surveys every obstacle of a step at once in ``cone.barrier_stack``, on
arrays of its obstacles built once per run (``cone.ObstacleStack``); every
other run, a pair's included, goes obstacle by obstacle through
``barrier_3d``, ``barrier_projection`` or ``barrier_ho``. Both paths give
each trace cell, phi and QP row the same bits, so the choice is speed
only: STACK_MIN_ROWS = 4 is the measured crossover, where the stacked
survey turns from a loss (3 rows) into a win. The built-ins (1-2 rows)
stay on the per-obstacle path. Either way ``cone`` computes the geometry:
each clearance cell is the barrier terms' own ||p|| - r.
A trace's table is filled raw and rounded once per run to the trace
format (``traceio._quantize``).

Each value of the loop is checked once, where it is made, and then passed
on as the array it is, with no copy and no second check:
- the config, its obstacles, references and initial states by their
  constructors, before the first step (``ConfigError``): ``ScenarioConfig``
  checks its numbers, the plain-number gains kappa_gamma and hocbf_gamma
  included, the type of every record it holds and its start attitudes;
- u_des by the tracking controller (finite thrusts);
- each QP row by ``cone.barrier_row``, or on a stacked step by
  ``cone.barrier_stack`` with the same checks (||a|| > 1e-10, then finite;
  on a failure, row by row in the same order). The survey hands the rows
  to ``qp.checked_problem`` as arrays, A (m, 4), b (m,) and their labels,
  and builds no row record;
- u* by ``solve``'s certificate, and once more as thrusts when it is not
  u_des itself;
- each next state by ``step`` (finite), and its attitude range at the
  start of the step that uses it.
The partner row is made from the other vehicle's checked state.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .cone import (
    BodyFrame,
    Obstacle,
    ObstacleStack,
    barrier_3d,
    barrier_ho,
    barrier_projection,
    barrier_stack,
    cone_angles,
    cone_geometry,
    cone_terms,
)
from .dynamics import (
    QuadrotorParams,
    QuadrotorState,
    check_attitude,
    control_of,
    step,
    thrust_axes,
)
from .errors import AttitudeSingularError, ConeguardError, ConfigError
from .errors import SimulationAbort
from .qp import _NO_ROWS, checked_problem, solve
from .records import LINE_BREAKS, check_utf8, checked_real, checked_records
from .records import checked_type, checked_types, prebuilt
from .reference import HoverReference, LineReference, WaypointReference
from .traceio import SimTrace, _quantize, trace_columns
from .tracking import ControllerGains, track

FILTER_KINDS = ("none", "c3bf", "hocbf")
VIOLATION_TOL = 1e-3  # separation below -tol flags the step as a violation
# Steps per run are held in memory, so a tiny dt must fail up front rather
# than exhaust it: the largest built-in runs 2,401 steps, 500 Hz x 10 s 5,001.
MAX_STEPS = 1_000_000
# C3BF steps with at least this many rows survey all obstacles at once
# (cone.barrier_stack); fewer go row by row. The crossover, timed with the
# paths interleaved on random states and the first N obstacles of the tests'
# field (two sets of 41 rounds of 300 surveys, both ending in row arrays):
# the stacked survey takes 1.34x and 1.36x the per-row time at 2 rows (faster
# in 0 rounds), 1.10x and 1.11x at 3 (in 4 and 2) and 0.89x and 0.85x at 4
# (in 40 and 40), with Python 3.11 and numpy 2.4.6 on 2 shared cores.
STACK_MIN_ROWS = 4

Reference = HoverReference | LineReference | WaypointReference


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """Initial state and reference for the second vehicle of a pair."""

    initial_state: QuadrotorState
    reference: Reference

    def __post_init__(self):
        checked_types(self, initial_state=QuadrotorState, reference=Reference)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One scenario: timing, vehicle, reference, obstacles and filter.

    kappa_gamma is the gain of the linear class-K term kappa(h) = gamma h of
    every barrier row, and hocbf_gamma the HO-CBF baseline's penalty, the
    scenario file's keys of the same names.
    """

    name: str
    duration: float
    dt: float
    initial_state: QuadrotorState
    reference: Reference
    obstacles: tuple[Obstacle, ...] = ()
    filter_kind: str = "c3bf"
    kappa_gamma: float = 1.0
    hocbf_gamma: float = 1.0
    gains: ControllerGains = ControllerGains()
    params: QuadrotorParams = QuadrotorParams()
    partner: AgentSpec | None = None
    description: str = ""

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ConfigError("scenario name must be a nonempty string")
        check_utf8(self.name, "scenario name")
        if any(c in self.name for c in LINE_BREAKS):  # one line in metrics.txt
            raise ConfigError(f"scenario name {self.name!r} may not contain line breaks")
        for field in ("duration", "dt", "kappa_gamma", "hocbf_gamma"):
            value = checked_real(getattr(self, field), field, above=0.0)
            object.__setattr__(self, field, value)
        if self.duration / self.dt > MAX_STEPS + 0.5:
            raise ConfigError(
                f"duration/dt asks for {self.duration / self.dt:.3g} steps;"
                f" at most {MAX_STEPS} are allowed"
            )
        if self.filter_kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter {self.filter_kind!r}")
        obstacles = checked_records(self.obstacles, Obstacle, "obstacles")
        object.__setattr__(self, "obstacles", obstacles)
        for obstacle in obstacles:
            if obstacle.label == "partner":
                raise ConfigError("obstacle label 'partner' is reserved")
        labels = _obstacle_labels(self)  # trace column names, one row each
        twice = [label for i, label in enumerate(labels) if label in labels[:i]]
        if twice:
            raise ConfigError(f"obstacle label {twice[0]!r} names two rows")
        checked_types(self, initial_state=QuadrotorState, reference=Reference)
        checked_types(self, gains=ControllerGains, params=QuadrotorParams)
        checked_types(self, partner=AgentSpec | None, description=str)
        starts = [("initial_state", self.initial_state)]
        if self.partner is not None:
            starts.append(("partner.initial_state", self.partner.initial_state))
        for field, state in starts:  # finite; a stepped one may be out of range
            try:
                check_attitude(state)
            except AttitudeSingularError as exc:
                raise ConfigError(f"{field}: {exc}") from exc


@dataclass(frozen=True)
class Metrics:
    min_separation: float
    min_h: float
    max_deviation: float  # max ||u_star - u_des|| over the trace
    intervention_duty: float  # fraction of steps with u_star != u_des
    tracking_rms: float  # position RMS error vs reference (nan if unknown)
    success: bool  # min_separation >= -1e-3


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """One vehicle's C3BF run (a) and one HO-CBF run (b) on the same geometry."""

    trace_a: SimTrace
    trace_b: SimTrace
    metrics_a: Metrics
    metrics_b: Metrics
    phi_ratio: np.ndarray  # phi'/phi along the HO-CBF run
    phi_ratio_labels: tuple[str, ...]  # the obstacle of each phi_ratio column

    @property
    def t(self) -> np.ndarray:
        """The time grid both runs share."""
        return self.trace_a.t


def separation_distance(
    frame: BodyFrame, obstacle: Obstacle, params: QuadrotorParams, t: float
) -> float:
    """Geometric clearance to the inflated surface, filter-independent: the
    collision cone's ``ConeTerms.clearance``, ||p_rel|| - r for a sphere and
    the distance to a cylinder's axis minus r (infinite-cylinder model)."""
    return cone_terms(*cone_geometry(frame, obstacle, params, t)).clearance


def _obstacle_labels(config: ScenarioConfig) -> tuple[str, ...]:
    """Row labels: the obstacle's label, else kind + index; then "partner"."""
    labels = tuple(o.label or f"{o.kind}{i}" for i, o in enumerate(config.obstacles))
    return labels + ("partner",) if config.partner is not None else labels


def _survey(
    state: QuadrotorState,
    other: QuadrotorState | None,
    labels: tuple[str, ...],
    config: ScenarioConfig,
    t: float,
    stack: ObstacleStack | None = None,
) -> tuple[
    Sequence[float], Sequence[float], tuple[np.ndarray, np.ndarray, tuple[str, ...]]
]:
    """Evaluate every obstacle once: barrier h, clearance, phi, and QP rows.

    The obstacles are the config's, then for a pair the other vehicle
    (``other``, None for a solo run) as the sphere ``_as_obstacle`` makes.
    Returns the trace's obstacle cells (h, separation per obstacle, in
    column order), the half angles and the rows as read-only arrays with
    their labels, (A, b, labels), for ``qp.checked_problem``. The vehicle
    terms are computed once for the step and shared by every obstacle. Given
    a solo run's stack, all obstacles go through ``barrier_stack`` at once,
    and cells and angles are arrays; else each goes through its own barrier.
    Unfiltered runs record the collision-cone h and phi, so their traces are
    comparable with filtered ones, but build no rows. The clearance is the
    terms' own wherever they were built on the cone's geometry, which is
    every obstacle but an HO-CBF cylinder, whose terms see the encompassing
    sphere; that one keeps separation_distance.
    """
    frame = BodyFrame(state, config.params)
    params, kappa_gamma = config.params, config.kappa_gamma
    if stack is not None:
        p, v = stack.relative(frame.position, frame.velocity, t)
        terms = barrier_stack(frame, p, v, stack.radii, kappa_gamma, labels)
        cells = np.empty(2 * len(labels))
        cells[0::2], cells[1::2] = terms.h, terms.clearance
        return cells, terms.phi, (terms.input_rows, terms.offsets, labels)
    obstacles = config.obstacles
    if other is not None:
        obstacles += (_as_obstacle(other, params),)
    cells, angles, input_rows, offsets = [], [], [], []
    for obstacle, label in zip(obstacles, labels):
        if config.filter_kind == "none":
            terms = cone_terms(*cone_geometry(frame, obstacle, params, t))
        else:
            if config.filter_kind == "hocbf":
                terms, (input_row, offset) = barrier_ho(
                    frame, obstacle, params, kappa_gamma, config.hocbf_gamma, t, label
                )
            else:
                barrier = (
                    barrier_3d if obstacle.kind == "sphere" else barrier_projection
                )
                terms, (input_row, offset) = barrier(
                    frame, obstacle, params, kappa_gamma, t, label
                )
            input_rows.append(input_row)
            offsets.append(offset)
        separation = terms.clearance
        if config.filter_kind == "hocbf" and obstacle.kind == "cylinder":
            # the baseline's terms see the unprojected p and the encompassing radius
            separation = separation_distance(frame, obstacle, params, t)
        cells += (terms.h, separation)
        angles.append(terms.phi)
    if not input_rows:
        return cells, angles, _NO_ROWS
    # one row, most steps' survey: a view of it, the row is made fresh per step
    A = input_rows[0][None] if len(input_rows) == 1 else np.array(input_rows)
    b = np.array(offsets)
    A.setflags(write=False)
    b.setflags(write=False)
    return cells, angles, (A, b, labels)


class _Recorder:
    """One vehicle's raw trace rows, preallocated for the whole run."""

    def __init__(self, n_rows: int, labels: tuple[str, ...]):
        self.labels = labels
        self.table = np.empty((n_rows, len(trace_columns(labels))))
        self.half_angles = np.empty((n_rows, len(labels)))
        self.ref_positions = np.empty((n_rows, 3))

    def add(self, k, t, state, u_des, u_star, cells, angles, ref_pos):
        row = self.table[k]
        row[0] = t
        row[1:13] = state.as_vector()
        row[13:17] = u_des
        row[17:21] = u_star
        row[21:] = cells
        self.half_angles[k] = angles
        self.ref_positions[k] = ref_pos

    def build(self, name: str, filter_kind: str) -> SimTrace:
        _quantize(self.table)
        return SimTrace(
            name=name,
            filter_kind=filter_kind,
            obstacle_labels=self.labels,
            table=self.table,
            half_angles=self.half_angles,
            ref_positions=self.ref_positions,
        )


_obstacle = prebuilt(Obstacle)


def _as_obstacle(state: QuadrotorState, params: QuadrotorParams) -> Obstacle:
    """The other vehicle, frozen as a constant-velocity sphere for one step.

    Its values are the state's own read-only views and a validated
    parameter, so the sphere is built without the constructor's copies and
    checks.
    """
    return _obstacle(
        kind="sphere",
        center=state.position,
        radius_raw=0.5 * params.body_width,
        velocity=state.velocity,
        axis=None,
        height=None,
        label="partner",
    )


@np.errstate(all="ignore")
def _simulate(config: ScenarioConfig) -> tuple[SimTrace, ...]:
    """The step loop: one trace per vehicle, the scenario's own vehicle first.

    Every vehicle runs its control step on the states at the start of the
    step; only then does RK4 advance them all. Any package error aborts the
    run as SimulationAbort with the step index. Where each value is checked
    is in the module docstring. numpy's floating-point warnings are off for
    the run: a value that overflows fails the finite check where it is made,
    or is recorded as the inf or nan it is.
    """
    states = [config.initial_state]
    references = [config.reference]
    names = [config.name]
    if config.partner is not None:
        states.append(config.partner.initial_state)
        references.append(config.partner.reference)
        names.append(config.name + "-partner")
    labels = _obstacle_labels(config)
    n_steps = int(round(config.duration / config.dt))
    recorders = [_Recorder(n_steps + 1, labels) for _ in states]
    # a pair never stacks, so its partner has one spelling, _as_obstacle's sphere
    solo_c3bf = config.filter_kind == "c3bf" and config.partner is None
    stack = None
    if solo_c3bf and len(labels) >= STACK_MIN_ROWS:
        stack = ObstacleStack(config.obstacles, config.params.body_width)
    for k in range(n_steps + 1):
        t = k * config.dt
        try:
            controls = []
            for a, state in enumerate(states):
                check_attitude(state)
                other = states[1 - a] if config.partner is not None else None
                ref = references[a].sample(t)
                control = track(state, ref, config.gains, config.params)
                u_des = control.thrusts
                cells, angles, rows = _survey(state, other, labels, config, t, stack)
                u_star = solve(checked_problem(u_des, *rows)).u_star
                recorders[a].add(
                    k, t, state, u_des, u_star, cells, angles, ref.position
                )
                controls.append(control if u_star is u_des else control_of(u_star))
            if k < n_steps:
                states = [
                    step(state, control, config.dt, config.params)
                    for state, control in zip(states, controls)
                ]
        except ConeguardError as exc:
            raise SimulationAbort(f"step {k} (t={t:.4f}s): {exc}", k) from exc
    return tuple(
        recorder.build(name, config.filter_kind)
        for recorder, name in zip(recorders, names)
    )


def run(config: ScenarioConfig) -> SimTrace:
    """Simulate one scenario; the trace of its own vehicle, ``run_pair``'s first.

    Deterministic given the config. Solver or dynamics errors abort the run
    with the step index recorded on the raised SimulationAbort.
    """
    return _simulate(checked_type(config, ScenarioConfig, "config"))[0]


def run_pair(config: ScenarioConfig) -> tuple[SimTrace, ...]:
    """Simulate any scenario: every vehicle's trace, the scenario's own first,
    then a partner's, flown synchronously; errors as ``run``'s."""
    return _simulate(checked_type(config, ScenarioConfig, "config"))


def compute_metrics(trace: SimTrace) -> Metrics:
    """Safety and tracking metrics over a whole trace.

    Obstacle-free traces report +inf separations (trivially successful).
    tracking_rms is nan when the trace carries no reference positions
    (e.g. it was parsed back from CSV).
    """
    if trace.h.size:
        min_sep = float(np.min(trace.separation))
        min_h = float(np.min(trace.h))
    else:
        min_sep = math.inf
        min_h = math.inf
    deviation = np.linalg.norm(trace.u_star - trace.u_des, axis=1)
    max_dev = float(np.max(deviation)) if deviation.size else 0.0
    intervened = np.any(trace.u_star != trace.u_des, axis=1)
    duty = float(np.mean(intervened)) if intervened.size else 0.0
    if trace.ref_positions is not None:
        err = trace.states[:, 0:3] - trace.ref_positions
        rms = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
    else:
        rms = math.nan
    return Metrics(
        min_separation=min_sep,
        min_h=min_h,
        max_deviation=max_dev,
        intervention_duty=duty,
        tracking_rms=rms,
        success=bool(min_sep >= -VIOLATION_TOL),
    )


def _phi_ratio(
    trace: SimTrace, config: ScenarioConfig
) -> tuple[tuple[str, ...], np.ndarray]:
    """(labels, phi'/phi) along an HO-CBF run: recorded phi' over the cone's phi.

    The cone's phi is geometry only, evaluated at the recorded states, so
    the trace may be either vehicle's of a pair. There is one column per
    obstacle of the config, labelled as in the trace; the partner row has
    none, as its position is the other vehicle's state, which this trace
    does not hold.

    Every row and obstacle is evaluated at once: ``cone.ObstacleStack``
    gives p as the stacked survey does, over the recorded rows, and
    ``cone.cone_angles`` takes it to phi. Each cell has the bits of the
    survey's scalar path (``BodyFrame``, ``cone_geometry``, ``cone_terms``):
    R e3 is ``rotation_matrix``'s third column, the projector goes through
    matmul and each dot through ``np.vecdot``, one 3-vector per row.
    """
    labels = trace.obstacle_labels[: len(config.obstacles)]
    stack = ObstacleStack(config.obstacles, config.params.body_width)
    r_e3_l = thrust_axes(trace.states[:, 6:9]) * config.params.center_offset
    body_centers = (trace.states[:, 0:3] + r_e3_l)[:, None]
    at_rest = np.zeros_like(body_centers)  # phi reads p only
    p, _ = stack.relative(body_centers, at_rest, trace.t[:, None, None])
    _, _, phi = cone_angles(p, stack.radii)
    return labels, trace.half_angles[:, : len(labels)] / np.maximum(phi, 1e-12)


def compare(
    config: ScenarioConfig, gammas: Iterable[float]
) -> Iterator[tuple[ComparisonReport, ...]]:
    """C3BF against HO-CBF at each penalty gamma, on the config's geometry.

    Each gamma yields one report per vehicle, in ``run_pair``'s order. The
    C3BF side flies once and every gamma's reports share its traces; the
    HO-CBF runs follow one per gamma, each gamma's reports yielded before
    the next run. The config and every gamma are checked here, in the call,
    so a bad one fails before the iterator is returned and any flight.
    """
    checked_type(config, ScenarioConfig, "config")
    checked_type(gammas, Iterable, "gammas")
    ho_configs = [
        replace(config, filter_kind="hocbf", hocbf_gamma=gamma) for gamma in gammas
    ]
    return _compare_runs(config, ho_configs)


def _compare_runs(
    config: ScenarioConfig, ho_configs: list[ScenarioConfig]
) -> Iterator[tuple[ComparisonReport, ...]]:
    """compare's runs, on checked configs."""
    traces_a = run_pair(replace(config, filter_kind="c3bf"))
    metrics_a = [compute_metrics(trace) for trace in traces_a]
    for config_b in ho_configs:
        reports = []
        for trace_a, metrics, trace_b in zip(traces_a, metrics_a, run_pair(config_b)):
            labels, phi_ratio = _phi_ratio(trace_b, config_b)
            report = ComparisonReport(
                trace_a=trace_a,
                trace_b=trace_b,
                metrics_a=metrics,
                metrics_b=compute_metrics(trace_b),
                phi_ratio=phi_ratio,
                phi_ratio_labels=labels,
            )
            reports.append(report)
        yield tuple(reports)
