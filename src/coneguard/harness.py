"""Closed-loop simulation harness: one step loop for one or two vehicles.

At every control step each vehicle in turn runs the pipeline

    reference -> PD tracking -> barrier survey -> safety QP

on the states at the start of the step; then RK4 advances every vehicle.
A scenario with a ``partner`` flies two vehicles, and each sees the other
as one more obstacle: a constant-velocity sphere at its position and
velocity, which is how the constant-velocity obstacle assumption is applied
receding-horizon style. ``run`` returns the first vehicle's trace and
``run_pair`` both. The survey builds QP rows only when a filter reads them.
Recorded floats are quantized to 9 significant digits (``FLOAT_FORMAT``),
so a written trace file parses back to exactly the in-memory trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import (
    BodyFrame,
    Obstacle,
    barrier_3d,
    barrier_projection,
    cone_geometry,
    cone_terms,
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


@dataclass(frozen=True)
class SimTrace:
    """Per-step record of one closed-loop run (floats 9-digit quantized).

    active_sets, half_angles and ref_positions exist in memory only; the CSV
    contract carries t, state, u_des, u_star, and per-obstacle h/separation.
    """

    name: str
    filter_kind: str
    obstacle_labels: tuple[str, ...]
    t: np.ndarray  # (N,)
    states: np.ndarray  # (N, 12)
    u_des: np.ndarray  # (N, 4)
    u_star: np.ndarray  # (N, 4)
    h: np.ndarray  # (N, n_obs)
    separation: np.ndarray  # (N, n_obs)
    active_sets: tuple[tuple[str, ...], ...] = ()
    half_angles: np.ndarray | None = None  # (N, n_obs), filter's phi
    ref_positions: np.ndarray | None = None  # (N, 3)

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
    """Both runs of two filters on the same geometry, and their metrics."""

    trace_a: SimTrace
    trace_b: SimTrace
    metrics_a: Metrics
    metrics_b: Metrics
    phi_ratio: np.ndarray | None  # phi'/phi along the HO-CBF run, if any

    @property
    def t(self) -> np.ndarray:
        """The time grid both runs share."""
        return self.trace_a.t


def _quantize(value: float) -> float:
    """Round to 9 significant digits; idempotent under repeated application."""
    return float(format(value, FLOAT_FORMAT))


def _quantize_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    flat = np.array([_quantize(v) for v in arr.ravel()])
    return flat.reshape(arr.shape)


def separation_distance(
    frame: BodyFrame, obstacle: Obstacle, params: QuadrotorParams, t: float
) -> float:
    """Geometric clearance to the inflated surface (filter-independent).

    Spheres: ||p_rel|| - r. Cylinders: distance to the axis in the
    perpendicular plane minus r (infinite-cylinder model).
    """
    p, _, r = cone_geometry(frame, obstacle, params, t)
    return float(np.linalg.norm(p)) - r


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
) -> tuple[list[float], list[float], list[float], list[AffineSafetyConstraint]]:
    """Evaluate every obstacle once: barrier h, clearance, phi, and QP rows.

    The vehicle terms are computed once for the step and shared by every
    obstacle. Unfiltered runs record the collision-cone h and phi, so their
    traces are comparable with filtered ones, but build no rows.
    """
    frame = BodyFrame(state, config.params)
    params, kappa = config.params, config.kappa
    hs, seps, angles, rows = [], [], [], []
    for obstacle, label in zip(obstacles, labels):
        if config.filter_kind == "none":
            terms = cone_terms(*cone_geometry(frame, obstacle, params, t))
            h, phi = terms.h, terms.phi
        else:
            if config.filter_kind == "hocbf":
                evaluation, row = barrier_ho(
                    frame, obstacle, params, kappa, config.hocbf, t, label
                )
            else:
                barrier = (
                    barrier_3d if obstacle.kind == "sphere" else barrier_projection
                )
                evaluation, row = barrier(frame, obstacle, params, kappa, t, label)
            h, phi = evaluation.h, evaluation.cone_half_angle
            rows.append(row)
        hs.append(h)
        angles.append(phi)
        seps.append(separation_distance(frame, obstacle, params, t))
    return hs, seps, angles, rows


class _Recorder:
    def __init__(self, n_obs: int):
        self.t, self.states, self.u_des, self.u_star = [], [], [], []
        self.h, self.sep, self.angles, self.refs = [], [], [], []
        self.active: list[tuple[str, ...]] = []
        self.n_obs = n_obs

    def add(self, t, state, u_des, u_star, hs, seps, angles, active, ref_pos):
        self.t.append(_quantize(t))
        self.states.append(_quantize_array(state.as_vector()))
        self.u_des.append(_quantize_array(u_des))
        self.u_star.append(_quantize_array(u_star))
        self.h.append(_quantize_array(hs))
        self.sep.append(_quantize_array(seps))
        self.angles.append(np.asarray(angles, dtype=float))
        self.active.append(tuple(active))
        self.refs.append(np.asarray(ref_pos, dtype=float))

    def build(self, name: str, filter_kind: str, labels: tuple[str, ...]) -> SimTrace:
        n = len(self.t)
        return SimTrace(
            name=name,
            filter_kind=filter_kind,
            obstacle_labels=labels,
            t=np.array(self.t),
            states=np.array(self.states),
            u_des=np.array(self.u_des).reshape(n, 4),
            u_star=np.array(self.u_star).reshape(n, 4),
            h=np.array(self.h).reshape(n, self.n_obs),
            separation=np.array(self.sep).reshape(n, self.n_obs),
            active_sets=tuple(self.active),
            half_angles=np.array(self.angles).reshape(n, self.n_obs),
            ref_positions=np.array(self.refs).reshape(n, 3),
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
    recorders = [_Recorder(len(labels)) for _ in states]
    n_steps = int(round(config.duration / config.dt))
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
                hs, seps, angles, rows = _survey(state, obstacles, labels, config, t)
                solution = solve(QpProblem(u_des, tuple(rows)))
                recorders[a].add(
                    t, state, u_des, solution.u_star, hs, seps, angles,
                    solution.active_set, ref.position,
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
        recorder.build(name, config.filter_kind, labels)
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


def _phi_ratio(trace: SimTrace, config: ScenarioConfig) -> np.ndarray:
    """phi'/phi along an HO-CBF run: recorded phi' over the cone's phi.

    The cone's phi is geometry only, evaluated at the recorded states.
    """
    n = trace.t.shape[0]
    ratio = np.ones((n, len(config.obstacles)))
    for k in range(n):
        frame = BodyFrame(QuadrotorState.from_vector(trace.states[k]), config.params)
        for i, obstacle in enumerate(config.obstacles):
            geometry = cone_geometry(frame, obstacle, config.params, trace.t[k])
            phi = cone_terms(*geometry).phi
            prime = trace.half_angles[k, i] if trace.half_angles is not None else phi
            ratio[k, i] = prime / max(phi, 1e-12)
    return ratio


def compare(config_a: ScenarioConfig, config_b: ScenarioConfig) -> ComparisonReport:
    """Run both configs (same geometry, different filters) and pair results."""
    trace_a = run(config_a)
    trace_b = run(config_b)
    phi_ratio = None
    if config_b.filter_kind == "hocbf":
        phi_ratio = _phi_ratio(trace_b, config_b)
    elif config_a.filter_kind == "hocbf":
        phi_ratio = _phi_ratio(trace_a, config_a)
    return ComparisonReport(
        trace_a=trace_a,
        trace_b=trace_b,
        metrics_a=compute_metrics(trace_a),
        metrics_b=compute_metrics(trace_b),
        phi_ratio=phi_ratio,
    )
