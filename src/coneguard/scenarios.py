"""Built-in scenarios and the scenario-file loader.

All eight run the vehicle on-reference at 1 m/s with dt = 1/240 over a 10 s
horizon. Obstacle radii are 0.15 m before inflation and geometries place the
straight-line path inside each engaged obstacle's collision cone at t = 0
(h(0) < 0), so the unfiltered runs collide and the filtered ones must act
from the first step. Lateral offsets are a few centimeters off-axis: enough
to break the head-on symmetry so the swerve direction is deterministic,
small enough that the path still pierces the inflated obstacle.

Scenario files are YAML mappings of the ScenarioConfig fields. The loader
checks only the file's schema: mappings, unknown and repeated keys
(rejected at every nesting level, so typos fail loudly), required keys,
the reference type, the state parts that default to zero and the
normalisation of a cylinder axis. Every value goes as it is to the
constructor of the record it belongs to, which is the one place it is
checked; an error is reported with its YAML path first, as in
``obstacles[0]: center must be 3 numbers``.
"""

from __future__ import annotations

import re
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

from .cone import Obstacle
from .dynamics import QuadrotorParams, QuadrotorState
from .errors import ConeguardError, ConfigError
from .harness import AgentSpec, ScenarioConfig
from .records import checked_array, shown_path
from .reference import HoverReference, LineReference, WaypointReference
from .tracking import ControllerGains

DT = 1.0 / 240.0
DURATION = 10.0
RADIUS = 0.15
ALTITUDE = 1.0


def _state(position, velocity=(0.0, 0.0, 0.0)) -> QuadrotorState:
    return QuadrotorState(position, velocity, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _line_config(
    name, description, obstacles, velocity=(1.0, 0.0, 0.0), reference=None, **kwargs
):
    """A built-in flown from the origin; ``reference`` replaces its line."""
    start = (0.0, 0.0, ALTITUDE)
    return ScenarioConfig(
        name=name,
        description=description,
        duration=DURATION,
        dt=DT,
        initial_state=_state(start, velocity),
        reference=reference if reference is not None else LineReference(start, velocity),
        obstacles=tuple(obstacles),
        **kwargs,
    )


def builtin_scenarios() -> list[ScenarioConfig]:
    """The eight stock scenarios, C3BF-filtered by default."""
    def sphere(center, velocity=(0.0, 0.0, 0.0)):
        return Obstacle(
            kind="sphere", center=center, radius_raw=RADIUS, velocity=velocity
        )
    scenarios = [
        _line_config(
            "static-overtake",
            "fly through a static sphere's spot and swerve around it",
            [sphere((2.0, 0.05, ALTITUDE))],
        ),
        _line_config(
            "static-brake",
            "reference parks short of a sphere dead ahead; filter brakes early",
            [sphere((3.0, 0.0, ALTITUDE))],
            reference=WaypointReference(
                ((0.0, 0.0, ALTITUDE), (2.5, 0.0, ALTITUDE)), speed=1.0
            ),
        ),
        _line_config(
            "moving-head-on",
            "obstacle closes head-on at 1 m/s (2 m/s closing speed)",
            # offset a little sideways and below the flight line so the dodge
            # has a thrust-axis component instead of being pure lateral tilt
            [sphere((4.0, 0.05, ALTITUDE - 0.052), velocity=(-1.0, 0.0, 0.0))],
        ),
        _line_config(
            "moving-slow",
            "overtake an obstacle drifting ahead at 0.1 m/s",
            [sphere((2.5, 0.05, ALTITUDE), velocity=(0.1, 0.0, 0.0))],
        ),
        _line_config(
            "cylinder-side",
            "vertical cylinder on the path; filter sidesteps in the plane",
            [
                Obstacle(
                    kind="cylinder",
                    center=(2.5, 0.05, ALTITUDE),
                    radius_raw=RADIUS,
                    axis=(0.0, 0.0, 1.0),
                    height=2.0,
                )
            ],
        ),
        _line_config(
            "cylinder-top",
            "climbing reference clears the cylinder top, but the infinite-"
            "cylinder model still forces a sidestep",
            [
                Obstacle(
                    kind="cylinder",
                    center=(2.5, 0.08, ALTITUDE),
                    radius_raw=RADIUS,
                    axis=(0.0, 0.0, 1.0),
                    height=1.2,
                )
            ],
            velocity=(1.0, 0.0, 0.3),
        ),
        _line_config(
            "corridor",
            "staggered sphere pair on alternating sides; the swerve around "
            "the first lines the vehicle up with the second",
            [sphere((2.2, 0.10, ALTITUDE)), sphere((3.2, -0.12, ALTITUDE))],
        ),
        _line_config(
            "two-agent",
            "two vehicles head-on, each filtering against the other",
            [],
            partner=AgentSpec(
                initial_state=_state((4.0, 0.06, ALTITUDE), (-1.0, 0.0, 0.0)),
                reference=LineReference((4.0, 0.06, ALTITUDE), (-1.0, 0.0, 0.0)),
            ),
        ),
    ]
    return scenarios


def scenario_names() -> list[str]:
    return [config.name for config in builtin_scenarios()]


def get_scenario(name: str) -> ScenarioConfig:
    for config in builtin_scenarios():
        if config.name == name:
            return config
    raise KeyError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")


# --- scenario files ---------------------------------------------------------


@cache
def _loader():
    """The scenario-file loader, built on first use, so that only a run that
    reads a scenario file imports PyYAML.

    A SafeLoader that refuses a key repeated in one mapping (at any nesting
    level, reported at the repeat's line) and also reads YAML 1.2 floats
    such as 4e-3 and 1e200. YAML 1.1 wants a dot and a signed exponent, so
    PyYAML loads an unquoted 4e-3 as a string; the added resolver takes
    every plain scalar of the YAML 1.2 float form. Integers, .nan/.inf and
    quoted strings load as before.
    """
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep=deep)
            except (ValueError, KeyError, AttributeError, TypeError, IndexError):
                # SafeLoader's untyped errors on values such as 2001-13-14, !!bool x
                shown = repr(node.value) if isinstance(node, yaml.ScalarNode) else node.id
                tag = node.tag.replace("tag:yaml.org,2002:", "!!")
                raise yaml.constructor.ConstructorError(
                    problem=f"cannot read {shown} as {tag}", problem_mark=node.start_mark
                ) from None

        def construct_mapping(self, node, deep=False):
            seen = set()
            # a node that is not a mapping (!!set [1]) is SafeLoader's to refuse
            pairs = node.value if isinstance(node, yaml.MappingNode) else ()
            for key_node, _ in pairs:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # a merge (<<) may override, as YAML allows
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                    seen.add(key)  # a set key passes "in" (as a frozenset), not add
                except TypeError:  # unhashable: SafeLoader reports it
                    continue
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        problem=f"found duplicate key {key!r}",
                        problem_mark=key_node.start_mark,
                    )
            return super().construct_mapping(node, deep=deep)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
        list("-+0123456789."),
    )
    return Loader


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
    import yaml  # PyYAML is imported only where a scenario file is read

    path = Path(path)
    shown = shown_path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in path
        raise ConfigError(f"{shown}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:  # PyYAML's own message spans several lines
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{shown}: invalid YAML{where}: {problem}") from exc
    except RecursionError:  # PyYAML composes and constructs nodes recursively
        raise ConfigError(f"{shown}: invalid YAML: nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{shown}: scenario file must be a mapping")
    return scenario_from_dict(data)
