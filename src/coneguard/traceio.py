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

Scenario files are YAML mappings of the ScenarioConfig fields. The loader
checks only the file's schema: mappings, unknown keys (rejected at every
nesting level, so typos fail loudly), required keys, the reference type,
the state parts that default to zero and the normalisation of a cylinder
axis. Every value goes as it is to the constructor of the record it
belongs to, which is the one place it is checked; an error is reported
with its YAML path first, as in ``obstacles[0]: center must be 3 numbers``.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from .cone import Obstacle, check_label
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
from .records import checked_array
from .reference import HoverReference, LineReference, WaypointReference
from .tracking import ControllerGains


def _fmt(value: float) -> str:
    return format(value, FLOAT_FORMAT)


def _write_csv(path: str | Path, header: list[str], table: np.ndarray) -> None:
    # one %-format per row, which prints a float as _fmt does
    row_format = ",".join(["%" + FLOAT_FORMAT] * table.shape[1])
    lines = [",".join(header)]
    lines += [row_format % tuple(row.tolist()) for row in table]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_trace(path: str | Path, trace: SimTrace) -> None:
    """Write the CSV trace contract (9 significant digits per float)."""
    for label in trace.obstacle_labels:
        check_label(label, ConfigError)
    _write_csv(path, trace_columns(trace.obstacle_labels), trace.table)


def parse_trace(path: str | Path) -> SimTrace:
    """Read a UTF-8 trace CSV back into a SimTrace.

    Only the contract payload survives the file format: half angles and
    reference positions come back empty.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _check_keys(mapping: dict, allowed, context: str, required=()) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{context}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{context}: {key} is required")


def _at(context: str, build, *args, **kwargs):
    """build(*args, **kwargs); any package error it raises becomes a
    ConfigError whose message starts with the YAML path context."""
    try:
        return build(*args, **kwargs)
    except ConeguardError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_state(data, context: str) -> QuadrotorState:
    parts = ("position", "velocity", "attitude", "body_rates")
    _check_keys(data, parts, context, required=("position",))
    return _at(context, QuadrotorState, *(data.get(key, (0, 0, 0)) for key in parts))


# reference type -> its class and the keys of its arguments, in order
_REFERENCES = {
    "hover": (HoverReference, ("point",)),
    "line": (LineReference, ("start", "velocity")),
    "waypoints": (WaypointReference, ("points", "speed")),
}


def _parse_reference(data, context: str):
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigError(f"{context}: reference needs a 'type'")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in _REFERENCES:
        raise ConfigError(f"{context}: unknown reference type {kind!r}")
    cls, keys = _REFERENCES[kind]
    _check_keys(data, {"type", *keys}, context, required=keys)
    return _at(context, cls, *(data[key] for key in keys))


def _parse_obstacle(data, context: str) -> Obstacle:
    allowed = {f.name for f in fields(Obstacle)}
    _check_keys(data, allowed, context, required=("kind", "center", "radius_raw"))
    if "axis" in data:
        # scaled by its largest component first, so that the squares in the
        # norm neither overflow nor underflow for any finite direction
        axis = _at(context, checked_array, data["axis"], 3, "axis")
        largest = float(np.max(np.abs(axis)))
        if largest <= 0.0:
            raise ConfigError(f"{context}: axis must be nonzero")
        axis = axis / largest
        data = {**data, "axis": axis / float(np.linalg.norm(axis))}
    return _at(context, Obstacle, **data)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed mapping.

    The keys are ScenarioConfig's field names, with ``filter`` for
    filter_kind; a key left out takes the field's default.
    """
    allowed = {f.name for f in fields(ScenarioConfig)} - {"filter_kind"} | {"filter"}
    required = ("name", "duration", "dt", "initial_state", "reference")
    _check_keys(data, allowed, "scenario", required)
    config = {"filter_kind" if key == "filter" else key: v for key, v in data.items()}
    config["initial_state"] = _parse_state(data["initial_state"], "initial_state")
    config["reference"] = _parse_reference(data["reference"], "reference")
    if "obstacles" in data:
        if not isinstance(data["obstacles"], list):
            raise ConfigError("obstacles: expected a list")
        config["obstacles"] = tuple(
            _parse_obstacle(entry, f"obstacles[{i}]")
            for i, entry in enumerate(data["obstacles"])
        )
    for key, cls in (("gains", ControllerGains), ("params", QuadrotorParams)):
        if key in data:
            _check_keys(data[key], {f.name for f in fields(cls)}, key)
            config[key] = _at(key, cls, **data[key])
    if "partner" in data:
        raw, keys = data["partner"], ("initial_state", "reference")
        _check_keys(raw, keys, "partner", required=keys)
        config["partner"] = AgentSpec(
            _parse_state(raw["initial_state"], "partner.initial_state"),
            _parse_reference(raw["reference"], "partner.reference"),
        )
    return ScenarioConfig(**config)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a UTF-8 YAML scenario file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:  # PyYAML's own message spans several lines
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must be a mapping")
    return scenario_from_dict(data)
