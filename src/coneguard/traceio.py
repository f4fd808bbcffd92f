"""Trace, metrics, and scenario-file I/O.

Trace CSV contract: one row per step, columns

    t, x, y, z, vx, vy, vz, roll, pitch, yaw, wx, wy, wz,
    u_des_1..u_des_4, u_star_1..u_star_4,
    then h_<label>, sep_<label> per obstacle in obstacle order,

every float printed with 9 significant digits. The layout is spelled once,
in ``harness.trace_columns``, and ``SimTrace.table`` holds the rows in that
order, already quantized to that precision by the run; so a trace is written
and parsed as one table, re-parsing reproduces it exactly and re-writing is
byte-identical.

Scenario files are YAML mappings of the ScenarioConfig fields. Unknown keys
are rejected at every nesting level so typos fail loudly instead of being
silently ignored.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import yaml

from .cone import Obstacle
from .dynamics import QuadrotorParams, QuadrotorState
from .errors import ConeguardError, ConfigError
from .harness import (
    FLOAT_FORMAT,
    AgentSpec,
    ComparisonReport,
    Metrics,
    ScenarioConfig,
    SimTrace,
    trace_columns,
)
from .hocbf import HocbfConfig
from .qp import ClassKappa
from .reference import HoverReference, LineReference, WaypointReference
from .tracking import ControllerGains


def _fmt(value: float) -> str:
    return format(value, FLOAT_FORMAT)


def _write_csv(path: str | Path, header: list[str], table: np.ndarray) -> None:
    # one %-format per row, which prints a float as _fmt does
    row_format = ",".join(["%" + FLOAT_FORMAT] * table.shape[1])
    lines = [",".join(header)]
    lines += [row_format % tuple(row.tolist()) for row in table]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_trace(path: str | Path, trace: SimTrace) -> None:
    """Write the CSV trace contract (9 significant digits per float)."""
    for label in trace.obstacle_labels:
        if "," in label:
            raise ConfigError(f"obstacle label {label!r} may not contain commas")
    _write_csv(path, trace_columns(trace.obstacle_labels), trace.table)


def parse_trace(path: str | Path) -> SimTrace:
    """Read a trace CSV back into a SimTrace.

    Only the contract payload survives the file format: half angles and
    reference positions come back empty.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty trace file")
    header = lines[0].split(",")
    labels = tuple(column[2:] for column in header if column.startswith("h_"))
    if header != trace_columns(labels):
        raise ConfigError(f"{path}: unexpected trace header")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad trace row: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ConfigError(f"{path}: ragged trace rows")
    return SimTrace(
        name=path.stem, filter_kind="unknown", obstacle_labels=labels, table=table
    )


def metrics_text(scenario: str, filter_kind: str, metrics: Metrics) -> str:
    """Key: value rendering of the Metrics fields."""
    lines = [
        f"scenario: {scenario}",
        f"filter: {filter_kind}",
        f"min_separation: {_fmt(metrics.min_separation)}",
        f"min_h: {_fmt(metrics.min_h)}",
        f"max_deviation: {_fmt(metrics.max_deviation)}",
        f"intervention_duty: {_fmt(metrics.intervention_duty)}",
        f"tracking_rms: {_fmt(metrics.tracking_rms)}",
        f"success: {'true' if metrics.success else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def comparison_text(report: ComparisonReport, gamma: float) -> str:
    """One comparison section; gamma labels the HO-CBF sweep point."""
    lines = [f"scenario: {report.trace_a.name}", f"hocbf_gamma: {_fmt(gamma)}"]
    for tag, trace, metrics in (
        ("a", report.trace_a, report.metrics_a),
        ("b", report.trace_b, report.metrics_b),
    ):
        lines.append(f"[{tag}] filter: {trace.filter_kind}")
        lines.append(f"[{tag}] min_separation: {_fmt(metrics.min_separation)}")
        lines.append(f"[{tag}] min_h: {_fmt(metrics.min_h)}")
        lines.append(f"[{tag}] success: {'true' if metrics.success else 'false'}")
    gap = report.metrics_a.min_separation - report.metrics_b.min_separation
    lines.append(f"separation_gap: {_fmt(gap)}")
    if report.phi_ratio.size:
        lines.append(f"phi_ratio_max: {_fmt(float(np.max(report.phi_ratio)))}")
    return "\n".join(lines) + "\n"


def write_phi_ratio(path: str | Path, report: ComparisonReport) -> None:
    """CSV of the phi'/phi trace for the HO-CBF side of a comparison."""
    header = ["t"] + [f"phi_ratio_{label}" for label in report.phi_ratio_labels]
    _write_csv(path, header, np.column_stack((report.t, report.phi_ratio)))


# --- scenario files ---------------------------------------------------------


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 4e-3 and 1e200.

    YAML 1.1 wants a dot and a signed exponent, so PyYAML loads an unquoted
    4e-3 as a string. The added resolver takes every plain scalar of the
    YAML 1.2 float form; integers, .nan/.inf and quoted strings load as
    before.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{context}: unknown key {key!r}")


def _number(data, context: str) -> float:
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {data!r}")
    return float(data)


def _vector(data, length: int, context: str) -> np.ndarray:
    if not isinstance(data, (list, tuple)) or len(data) != length:
        raise ConfigError(f"{context}: expected a list of {length} numbers")
    return np.array([_number(v, context) for v in data])


def _parse_state(data, context: str) -> QuadrotorState:
    _check_keys(data, {"position", "velocity", "attitude", "body_rates"}, context)
    if "position" not in data:
        raise ConfigError(f"{context}: position is required")

    def vec(key):
        if key in data:
            return _vector(data[key], 3, f"{context}.{key}")
        return np.zeros(3)

    return QuadrotorState(
        position=_vector(data["position"], 3, f"{context}.position"),
        velocity=vec("velocity"),
        attitude=vec("attitude"),
        body_rates=vec("body_rates"),
    )


def _parse_reference(data, context: str):
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigError(f"{context}: reference needs a 'type'")
    kind = data["type"]
    if kind == "hover":
        _check_keys(data, {"type", "point"}, context)
        return HoverReference(_vector(data["point"], 3, f"{context}.point"))
    if kind == "line":
        _check_keys(data, {"type", "start", "velocity"}, context)
        return LineReference(
            _vector(data["start"], 3, f"{context}.start"),
            _vector(data["velocity"], 3, f"{context}.velocity"),
        )
    if kind == "waypoints":
        _check_keys(data, {"type", "points", "speed"}, context)
        points = data.get("points")
        if not isinstance(points, list) or len(points) < 2:
            raise ConfigError(f"{context}.points: need at least two waypoints")
        array = np.array(
            [_vector(p, 3, f"{context}.points[{i}]") for i, p in enumerate(points)]
        )
        return WaypointReference(array, _number(data["speed"], f"{context}.speed"))
    raise ConfigError(f"{context}: unknown reference type {kind!r}")


def _parse_obstacle(data, index: int) -> Obstacle:
    context = f"obstacles[{index}]"
    _check_keys(
        data,
        {"kind", "center", "radius_raw", "velocity", "axis", "height", "label"},
        context,
    )
    for key in ("kind", "center", "radius_raw"):
        if key not in data:
            raise ConfigError(f"{context}: {key} is required")
    kwargs = dict(
        kind=data["kind"],
        center=_vector(data["center"], 3, f"{context}.center"),
        radius_raw=_number(data["radius_raw"], f"{context}.radius_raw"),
    )
    if "velocity" in data:
        kwargs["velocity"] = _vector(data["velocity"], 3, f"{context}.velocity")
    if "axis" in data:
        axis = _vector(data["axis"], 3, f"{context}.axis")
        if not np.isfinite(axis).all():
            raise ConfigError(f"{context}.axis: must be finite")
        # scaled by its largest component first, so that the squares in the
        # norm neither overflow nor underflow for any finite direction
        largest = float(np.max(np.abs(axis)))
        if largest <= 0.0:
            raise ConfigError(f"{context}.axis: zero vector")
        axis = axis / largest
        kwargs["axis"] = axis / float(np.linalg.norm(axis))
    if "height" in data:
        kwargs["height"] = _number(data["height"], f"{context}.height")
    if "label" in data:
        label = data["label"]
        if not isinstance(label, str) or "," in label:
            raise ConfigError(f"{context}.label: must be a comma-free string")
        kwargs["label"] = label
    return Obstacle(**kwargs)


def _parse_gains(data) -> ControllerGains:
    context = "gains"
    allowed = {"pos_p", "pos_d", "roll_p", "roll_d", "pitch_p", "pitch_d"}
    _check_keys(data, allowed, context)
    kwargs = {}
    for key in ("pos_p", "pos_d"):
        if key in data:
            kwargs[key] = tuple(_vector(data[key], 3, f"{context}.{key}"))
    for key in ("roll_p", "roll_d", "pitch_p", "pitch_d"):
        if key in data:
            kwargs[key] = _number(data[key], f"{context}.{key}")
    return ControllerGains(**kwargs)


def _parse_params(data) -> QuadrotorParams:
    context = "params"
    allowed = {
        "mass", "arm_span", "center_offset", "inertia_diag", "gravity", "body_width"
    }
    _check_keys(data, allowed, context)
    kwargs = {}
    for key in allowed:
        if key not in data:
            continue
        if key == "inertia_diag":
            kwargs[key] = tuple(_vector(data[key], 3, f"{context}.{key}"))
        else:
            kwargs[key] = _number(data[key], f"{context}.{key}")
    return QuadrotorParams(**kwargs)


SCENARIO_KEYS = {
    "name", "description", "duration", "dt", "initial_state",
    "reference", "obstacles", "filter", "kappa_gamma", "hocbf_gamma",
    "gains", "params", "partner",
}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed mapping."""
    _check_keys(data, SCENARIO_KEYS, "scenario")
    for key in ("name", "duration", "dt", "initial_state", "reference"):
        if key not in data:
            raise ConfigError(f"scenario: {key} is required")
    obstacles = []
    raw_obstacles = data.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise ConfigError("obstacles: expected a list")
    for i, entry in enumerate(raw_obstacles):
        obstacles.append(_parse_obstacle(entry, i))
    partner = None
    if "partner" in data:
        _check_keys(data["partner"], {"initial_state", "reference"}, "partner")
        for key in ("initial_state", "reference"):
            if key not in data["partner"]:
                raise ConfigError(f"partner: {key} is required")
        partner = AgentSpec(
            initial_state=_parse_state(
                data["partner"]["initial_state"], "partner.initial_state"
            ),
            reference=_parse_reference(
                data["partner"]["reference"], "partner.reference"
            ),
        )
    try:
        return ScenarioConfig(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            duration=_number(data["duration"], "duration"),
            dt=_number(data["dt"], "dt"),
            initial_state=_parse_state(data["initial_state"], "initial_state"),
            reference=_parse_reference(data["reference"], "reference"),
            obstacles=tuple(obstacles),
            filter_kind=data.get("filter", "c3bf"),
            kappa=ClassKappa(_number(data.get("kappa_gamma", 1.0), "kappa_gamma")),
            hocbf=HocbfConfig(
                gamma_penalty=_number(data.get("hocbf_gamma", 1.0), "hocbf_gamma")
            ),
            gains=_parse_gains(data.get("gains", {})),
            params=_parse_params(data.get("params", {})),
            partner=partner,
        )
    except (ValueError, ConeguardError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(), Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must be a mapping")
    return scenario_from_dict(data)
