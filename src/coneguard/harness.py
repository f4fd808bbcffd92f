"""Closed-loop simulation harness.

Each control step runs the full pipeline at the integration rate:

    reference -> PD tracking -> barrier constraint rows -> safety QP -> RK4

and records time, state, desired and filtered inputs, and per-obstacle
barrier/separation values. Recorded floats are quantized to 9 significant
digits at record time, so a written trace file parses back to exactly the
in-memory trace.

Two-agent scenarios run both vehicles synchronously; every step each agent
re-models the other as a constant-velocity sphere at its instantaneous
position/velocity, which is how the constant-velocity obstacle assumption is
applied receding-horizon style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    active_sets, half_angles, ref_positions, and violations exist in memory
    only; the CSV contract carries t, state, u_des, u_star, and per-obstacle
    h/separation.
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
    violations: np.ndarray  # (N,) bool, separation < -1e-3 anywhere in row
    active_sets: tuple[tuple[str, ...], ...] = ()
    half_angles: np.ndarray | None = None  # (N, n_obs), filter's phi
    ref_positions: np.ndarray | None = None  # (N, 3)


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
    """Paired metrics and curves for two filters on the same geometry."""

    name: str
    filter_a: str
    filter_b: str
    metrics_a: Metrics
    metrics_b: Metrics
    t: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray
    obstacle_labels: tuple[str, ...]
    phi_ratio: np.ndarray | None  # phi'/phi along the HO-CBF run, if any
    trace_a: SimTrace | None = None
    trace_b: SimTrace | None = None


def _quantize(value: float) -> float:
    """Round to 9 significant digits; idempotent under repeated application."""
    return float(f"{value:.8e}")


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


def _obstacle_label(obstacle: Obstacle, index: int) -> str:
    return obstacle.label or f"{obstacle.kind}{index}"


def _survey(
    state: QuadrotorState,
    obstacles: tuple[Obstacle, ...],
    config: ScenarioConfig,
    t: float,
) -> tuple[list[float], list[float], list[float], list[AffineSafetyConstraint]]:
    """Evaluate every obstacle once: barrier h, clearance, phi, and QP rows.

    The vehicle terms are computed once for the step and shared by every
    obstacle. Unfiltered runs still record the collision-cone h so their
    traces are comparable with filtered ones; only the rows are dropped.
    """
    frame = BodyFrame(state, config.params)
    params, kappa = config.params, config.kappa
    hs, seps, angles, rows = [], [], [], []
    for i, obstacle in enumerate(obstacles):
        label = _obstacle_label(obstacle, i)
        if config.filter_kind == "hocbf":
            evaluation, constraint = barrier_ho(
                frame, obstacle, params, kappa, config.hocbf, t, label
            )
        else:
            barrier = barrier_3d if obstacle.kind == "sphere" else barrier_projection
            evaluation, constraint = barrier(frame, obstacle, params, kappa, t, label)
        hs.append(evaluation.h)
        angles.append(evaluation.cone_half_angle)
        seps.append(separation_distance(frame, obstacle, params, t))
        rows.append(constraint)
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
        sep = np.array(self.sep).reshape(n, self.n_obs)
        return SimTrace(
            name=name,
            filter_kind=filter_kind,
            obstacle_labels=labels,
            t=np.array(self.t),
            states=np.array(self.states),
            u_des=np.array(self.u_des).reshape(n, 4),
            u_star=np.array(self.u_star).reshape(n, 4),
            h=np.array(self.h).reshape(n, self.n_obs),
            separation=sep,
            violations=(
                np.min(sep, axis=1) < -VIOLATION_TOL
                if self.n_obs
                else np.zeros(n, dtype=bool)
            ),
            active_sets=tuple(self.active),
            half_angles=np.array(self.angles).reshape(n, self.n_obs),
            ref_positions=np.array(self.refs).reshape(n, 3),
        )


def _control_step(
    state: QuadrotorState,
    obstacles: tuple[Obstacle, ...],
    config: ScenarioConfig,
    t: float,
):
    """One pipeline evaluation: returns everything the recorder needs."""
    ref = config.reference.sample(t)
    u_des = track(state, ref, config.gains, config.params)
    hs, seps, angles, rows = _survey(state, obstacles, config, t)
    if config.filter_kind == "none":
        rows = []
    solution = solve(QpProblem(u_des.thrusts, tuple(rows)))
    return ref, u_des.thrusts, solution, hs, seps, angles


def run(config: ScenarioConfig) -> SimTrace:
    """Simulate one scenario; for paired scenarios, the first agent's trace.

    Deterministic given the config. Solver or dynamics errors abort the run
    with the step index recorded on the raised SimulationAbort.
    """
    if config.partner is not None:
        return run_pair(config)[0]
    n_steps = int(round(config.duration / config.dt))
    labels = tuple(
        _obstacle_label(o, i) for i, o in enumerate(config.obstacles)
    )
    recorder = _Recorder(len(config.obstacles))
    state = config.initial_state
    for k in range(n_steps + 1):
        t = k * config.dt
        try:
            state.validate()
            ref, u_des, solution, hs, seps, angles = _control_step(
                state, config.obstacles, config, t
            )
            recorder.add(
                t, state, u_des, solution.u_star, hs, seps, angles,
                solution.active_set, ref.position,
            )
            if k < n_steps:
                state = step(
                    state, ControlInput(solution.u_star), config.dt, config.params
                )
        except ConeguardError as exc:
            raise SimulationAbort(f"step {k} (t={t:.4f}s): {exc}", k) from exc
    return recorder.build(config.name, config.filter_kind, labels)


def _as_obstacle(state: QuadrotorState, params: QuadrotorParams) -> Obstacle:
    """The other agent, frozen as a constant-velocity sphere for one step."""
    return Obstacle(
        kind="sphere",
        center=state.position,
        radius_raw=0.5 * params.body_width,
        velocity=state.velocity,
        label="partner",
    )


def run_pair(config: ScenarioConfig) -> tuple[SimTrace, SimTrace]:
    """Simulate both agents of a two-agent scenario synchronously."""
    if config.partner is None:
        raise ConfigError("run_pair needs a partner agent")
    n_steps = int(round(config.duration / config.dt))
    ego_cfg = config
    partner_cfg = replace(
        config, initial_state=config.partner.initial_state,
        reference=config.partner.reference, partner=None,
    )
    states = [config.initial_state, config.partner.initial_state]
    configs = [ego_cfg, partner_cfg]
    labels = [
        tuple(_obstacle_label(o, i) for i, o in enumerate(config.obstacles))
        + ("partner",)
    ] * 2
    recorders = [_Recorder(len(config.obstacles) + 1) for _ in range(2)]
    for k in range(n_steps + 1):
        t = k * config.dt
        try:
            controls = []
            for a in range(2):
                states[a].validate()
                other = _as_obstacle(states[1 - a], config.params)
                obstacles = configs[a].obstacles + (other,)
                ref, u_des, solution, hs, seps, angles = _control_step(
                    states[a], obstacles, configs[a], t
                )
                recorders[a].add(
                    t, states[a], u_des, solution.u_star, hs, seps, angles,
                    solution.active_set, ref.position,
                )
                controls.append(solution.u_star)
            if k < n_steps:
                states = [
                    step(states[a], ControlInput(controls[a]), config.dt, config.params)
                    for a in range(2)
                ]
        except ConeguardError as exc:
            raise SimulationAbort(f"step {k} (t={t:.4f}s): {exc}", k) from exc
    return (
        recorders[0].build(config.name, config.filter_kind, labels[0]),
        recorders[1].build(config.name + "-partner", config.filter_kind, labels[1]),
    )


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
        name=config_a.name,
        filter_a=config_a.filter_kind,
        filter_b=config_b.filter_kind,
        metrics_a=compute_metrics(trace_a),
        metrics_b=compute_metrics(trace_b),
        t=trace_a.t,
        h_a=trace_a.h,
        h_b=trace_b.h,
        obstacle_labels=trace_a.obstacle_labels,
        phi_ratio=phi_ratio,
        trace_a=trace_a,
        trace_b=trace_b,
    )
