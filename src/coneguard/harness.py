"""Closed-loop simulation harness: one step loop for one or two vehicles.

At every control step each vehicle in turn runs the pipeline

    reference -> PD tracking -> barrier survey -> safety QP

on the states at the start of the step; then RK4 advances every vehicle.
A scenario with a ``partner`` flies two vehicles, and each sees the other
as one more obstacle: a constant-velocity sphere at its position and
velocity, which is how the constant-velocity obstacle assumption is applied
receding-horizon style. ``run`` returns the first vehicle's trace and
``run_pair`` both. The survey builds QP rows only when a filter reads them.
A trace is one table in the CSV's column order (``trace_columns``, the only
place that layout is spelled). The recorder fills it raw and ``_quantize``
rounds it once per run to 9 significant digits (``FLOAT_FORMAT``), so a
written trace file parses back to exactly the in-memory trace.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .cone import (
    BodyFrame,
    Obstacle,
    barrier_3d,
    barrier_projection,
    cone_geometry,
    cone_terms,
    inflated_radius,
)
from .dynamics import ControlInput, QuadrotorParams, QuadrotorState, step
from .errors import ConeguardError, ConfigError, SimulationAbort
from .hocbf import HocbfConfig, barrier_ho
from .qp import AffineSafetyConstraint, ClassKappa, QpProblem, solve
from .reference import HoverReference, LineReference, WaypointReference
from .tracking import ControllerGains, track

FILTER_KINDS = ("none", "c3bf", "hocbf")
VIOLATION_TOL = 1e-3  # separation below -tol flags the step as a violation
# Steps per run are held in memory, so a tiny dt must fail up front rather
# than exhaust it: the largest built-in runs 2,401 steps, 500 Hz x 10 s 5,001.
MAX_STEPS = 1_000_000
FLOAT_FORMAT = ".8e"  # 9 significant digits, in the trace and in the file
STATE_COLUMNS = (
    "x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw", "wx", "wy", "wz",
)

Reference = HoverReference | LineReference | WaypointReference


@dataclass(frozen=True)
class AgentSpec:
    """Initial state and reference for the second vehicle of a pair."""

    initial_state: QuadrotorState
    reference: Reference


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration: float
    dt: float
    initial_state: QuadrotorState
    reference: Reference
    obstacles: tuple[Obstacle, ...] = ()
    filter_kind: str = "c3bf"
    kappa: ClassKappa = ClassKappa(1.0)
    hocbf: HocbfConfig = HocbfConfig()
    gains: ControllerGains = ControllerGains()
    params: QuadrotorParams = QuadrotorParams()
    partner: AgentSpec | None = None
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        if not (np.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError("duration must be > 0")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be > 0")
        if self.duration / self.dt > MAX_STEPS + 0.5:
            raise ConfigError(
                f"duration/dt asks for {self.duration / self.dt:.3g} steps;"
                f" at most {MAX_STEPS} are allowed"
            )
        if self.filter_kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter {self.filter_kind!r}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for obstacle in self.obstacles:
            if obstacle.label == "partner":
                raise ConfigError("obstacle label 'partner' is reserved")
        starts = [("initial_state", self.initial_state)]
        if self.partner is not None:
            starts.append(("partner.initial_state", self.partner.initial_state))
        for field, state in starts:
            try:
                state.validate()
            except ConeguardError as exc:
                raise ConfigError(f"{field}: {exc}") from exc


def trace_columns(labels: tuple[str, ...]) -> list[str]:
    """The trace CSV header, which is also the column order of SimTrace.table."""
    columns = ["t", *STATE_COLUMNS]
    columns += [f"u_des_{i}" for i in range(1, 5)]
    columns += [f"u_star_{i}" for i in range(1, 5)]
    for label in labels:
        columns += [f"h_{label}", f"sep_{label}"]
    return columns


@dataclass(frozen=True)
class SimTrace:
    """Per-step record of one closed-loop run (table floats 9-digit quantized).

    ``table`` is the CSV contract, columns ``trace_columns(obstacle_labels)``;
    t, states, u_des, u_star, h and separation are read-only views of it.
    half_angles and ref_positions exist in memory only.
    """

    name: str
    filter_kind: str
    obstacle_labels: tuple[str, ...]
    table: np.ndarray  # (N, 21 + 2 n_obs)
    half_angles: np.ndarray | None = None  # (N, n_obs), filter's phi
    ref_positions: np.ndarray | None = None  # (N, 3)

    def __post_init__(self):
        self.table.setflags(write=False)

    # the column groups of trace_columns, as views of the table
    t = property(lambda self: self.table[:, 0])
    states = property(lambda self: self.table[:, 1:13])
    u_des = property(lambda self: self.table[:, 13:17])
    u_star = property(lambda self: self.table[:, 17:21])
    h = property(lambda self: self.table[:, 21::2])  # (N, n_obs)
    separation = property(lambda self: self.table[:, 22::2])  # (N, n_obs)

    @property
    def violations(self) -> np.ndarray:
        """(N,) bool: separation below -1e-3 for some obstacle at that step."""
        return np.any(self.separation < -VIOLATION_TOL, axis=1)


@dataclass(frozen=True)
class Metrics:
    min_separation: float
    min_h: float
    max_deviation: float  # max ||u_star - u_des|| over the trace
    intervention_duty: float  # fraction of steps with u_star != u_des
    tracking_rms: float  # position RMS error vs reference (nan if unknown)
    success: bool  # min_separation >= -1e-3


@dataclass(frozen=True)
class ComparisonReport:
    """The C3BF run (a) and one HO-CBF run (b) on the same geometry."""

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


def _quantize(table: np.ndarray) -> None:
    """Round every entry in place to 9 significant digits via its printed form.

    Elementwise, so one pass per run equals rounding each step as recorded;
    row by row, so no copy of the table is held as Python floats. Each row
    is printed by one %-format, which prints a float as format() does.
    """
    row_format = " ".join(["%" + FLOAT_FORMAT] * table.shape[1])
    for row in table:
        row[:] = list(map(float, (row_format % tuple(row.tolist())).split()))


def separation_distance(
    frame: BodyFrame, obstacle: Obstacle, params: QuadrotorParams, t: float
) -> float:
    """Geometric clearance to the inflated surface (filter-independent).

    Spheres: ||p_rel|| - r. Cylinders: distance to the axis in the
    perpendicular plane minus r (infinite-cylinder model).
    """
    p, _, r = cone_geometry(frame, obstacle, params, t)
    return math.sqrt(float(p @ p)) - r


def _obstacle_labels(config: ScenarioConfig) -> tuple[str, ...]:
    """Row labels: the obstacle's label, else kind + index; then "partner"."""
    labels = tuple(o.label or f"{o.kind}{i}" for i, o in enumerate(config.obstacles))
    return labels + ("partner",) if config.partner is not None else labels


def _survey(
    state: QuadrotorState,
    obstacles: tuple[Obstacle, ...],
    labels: tuple[str, ...],
    config: ScenarioConfig,
    t: float,
) -> tuple[list[float], list[float], list[AffineSafetyConstraint]]:
    """Evaluate every obstacle once: barrier h, clearance, phi, and QP rows.

    Returns the trace's obstacle cells (h, separation per obstacle, in
    column order), the half angles and the rows. The vehicle terms are
    computed once for the step and shared by every obstacle. Unfiltered runs
    record the collision-cone h and phi, so their traces are comparable with
    filtered ones, but build no rows. The clearance is the terms' ||p||
    minus the inflated radius wherever the terms were built on the cone's
    geometry, which is every obstacle but an HO-CBF cylinder; that one keeps
    separation_distance.
    """
    frame = BodyFrame(state, config.params)
    params, kappa = config.params, config.kappa
    cells, angles, rows = [], [], []
    for obstacle, label in zip(obstacles, labels):
        if config.filter_kind == "none":
            terms = cone_terms(*cone_geometry(frame, obstacle, params, t))
        else:
            if config.filter_kind == "hocbf":
                terms, row = barrier_ho(
                    frame, obstacle, params, kappa, config.hocbf, t, label
                )
            else:
                barrier = (
                    barrier_3d if obstacle.kind == "sphere" else barrier_projection
                )
                terms, row = barrier(frame, obstacle, params, kappa, t, label)
            rows.append(row)
        if config.filter_kind == "hocbf" and obstacle.kind == "cylinder":
            # the baseline's terms see the unprojected p and the encompassing radius
            separation = separation_distance(frame, obstacle, params, t)
        else:
            separation = terms.p_norm - inflated_radius(obstacle, params.body_width)
        cells += (terms.h, separation)
        angles.append(terms.phi)
    return cells, angles, rows


class _Recorder:
    """One vehicle's raw trace rows, preallocated for the whole run."""

    def __init__(self, n_rows: int, labels: tuple[str, ...]):
        self.labels = labels
        self.table = np.empty((n_rows, len(trace_columns(labels))))
        self.half_angles = np.empty((n_rows, len(labels)))
        self.ref_positions = np.empty((n_rows, 3))

    def add(self, k, t, state, u_des, u_star, cells, angles, ref_pos):
        self.table[k] = np.concatenate(([t], state.as_vector(), u_des, u_star, cells))
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


def _as_obstacle(state: QuadrotorState, params: QuadrotorParams) -> Obstacle:
    """The other vehicle, frozen as a constant-velocity sphere for one step."""
    return Obstacle(
        kind="sphere",
        center=state.position,
        radius_raw=0.5 * params.body_width,
        velocity=state.velocity,
        label="partner",
    )


def _simulate(config: ScenarioConfig) -> tuple[SimTrace, ...]:
    """The step loop: one trace per vehicle, the scenario's own vehicle first.

    Every vehicle runs its control step on the states at the start of the
    step; only then does RK4 advance them all. Any package error aborts the
    run as SimulationAbort with the step index.
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
    for k in range(n_steps + 1):
        t = k * config.dt
        try:
            controls = []
            for a, state in enumerate(states):
                state.validate()
                obstacles = config.obstacles
                if config.partner is not None:
                    obstacles += (_as_obstacle(states[1 - a], config.params),)
                ref = references[a].sample(t)
                u_des = track(state, ref, config.gains, config.params).thrusts
                cells, angles, rows = _survey(state, obstacles, labels, config, t)
                solution = solve(QpProblem(u_des, tuple(rows)))
                recorders[a].add(
                    k, t, state, u_des, solution.u_star, cells, angles, ref.position
                )
                controls.append(solution.u_star)
            if k < n_steps:
                states = [
                    step(state, ControlInput(u), config.dt, config.params)
                    for state, u in zip(states, controls)
                ]
        except ConeguardError as exc:
            raise SimulationAbort(f"step {k} (t={t:.4f}s): {exc}", k) from exc
    return tuple(
        recorder.build(name, config.filter_kind)
        for recorder, name in zip(recorders, names)
    )


def run(config: ScenarioConfig) -> SimTrace:
    """Simulate one scenario; for paired scenarios, the first agent's trace.

    Deterministic given the config. Solver or dynamics errors abort the run
    with the step index recorded on the raised SimulationAbort.
    """
    return _simulate(config)[0]


def run_pair(config: ScenarioConfig) -> tuple[SimTrace, SimTrace]:
    """Simulate both agents of a two-agent scenario synchronously."""
    if config.partner is None:
        raise ConfigError("run_pair needs a partner agent")
    return _simulate(config)


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

    The cone's phi is geometry only, evaluated at the recorded states. There
    is one column per obstacle of the config, labelled as in the trace; a
    pair's partner has none, as its position is the other vehicle's state,
    which this trace does not hold.
    """
    labels = trace.obstacle_labels[: len(config.obstacles)]
    n = trace.t.shape[0]
    ratio = np.ones((n, len(labels)))
    for k in range(n):
        frame = BodyFrame(QuadrotorState.from_vector(trace.states[k]), config.params)
        for i, obstacle in enumerate(config.obstacles):
            geometry = cone_geometry(frame, obstacle, config.params, trace.t[k])
            phi = cone_terms(*geometry).phi
            ratio[k, i] = trace.half_angles[k, i] / max(phi, 1e-12)
    return labels, ratio


def compare(
    config: ScenarioConfig, gammas: Iterable[float]
) -> Iterator[ComparisonReport]:
    """C3BF against HO-CBF at each penalty gamma, on the config's geometry.

    The C3BF side runs once and every report shares its trace; the HO-CBF
    runs follow one per gamma, each report yielded before the next run.
    Every gamma is checked before the first run, so a bad one fails before
    any flight.
    """
    ho_configs = [
        replace(config, filter_kind="hocbf", hocbf=HocbfConfig(gamma_penalty=gamma))
        for gamma in gammas
    ]
    trace_a = run(replace(config, filter_kind="c3bf"))
    metrics_a = compute_metrics(trace_a)
    for config_b in ho_configs:
        trace_b = run(config_b)
        labels, phi_ratio = _phi_ratio(trace_b, config_b)
        yield ComparisonReport(
            trace_a=trace_a,
            trace_b=trace_b,
            metrics_a=metrics_a,
            metrics_b=compute_metrics(trace_b),
            phi_ratio=phi_ratio,
            phi_ratio_labels=labels,
        )
