"""Built-in scenarios.

All eight run the vehicle on-reference at 1 m/s with dt = 1/240 over a 10 s
horizon. Obstacle radii are 0.15 m before inflation and geometries place the
straight-line path inside each engaged obstacle's collision cone at t = 0
(h(0) < 0), so the unfiltered runs collide and the filtered ones must act
from the first step. Lateral offsets are a few centimeters off-axis: enough
to break the head-on symmetry so the swerve direction is deterministic,
small enough that the path still pierces the inflated obstacle.
"""

from __future__ import annotations

from .cone import Obstacle
from .dynamics import QuadrotorState
from .harness import AgentSpec, ScenarioConfig
from .reference import LineReference, WaypointReference

DT = 1.0 / 240.0
DURATION = 10.0
RADIUS = 0.15
ALTITUDE = 1.0


def _state(position, velocity=(0.0, 0.0, 0.0)) -> QuadrotorState:
    return QuadrotorState(position, velocity, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _line_config(name, description, obstacles, velocity=(1.0, 0.0, 0.0), **kwargs):
    start = (0.0, 0.0, ALTITUDE)
    return ScenarioConfig(
        name=name,
        description=description,
        duration=DURATION,
        dt=DT,
        initial_state=_state(start, velocity),
        reference=LineReference(start, velocity),
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
        ScenarioConfig(
            name="static-brake",
            description="reference parks short of a sphere dead ahead; filter brakes early",
            duration=DURATION,
            dt=DT,
            initial_state=_state((0.0, 0.0, ALTITUDE), (1.0, 0.0, 0.0)),
            reference=WaypointReference(
                ((0.0, 0.0, ALTITUDE), (2.5, 0.0, ALTITUDE)), speed=1.0
            ),
            obstacles=(sphere((3.0, 0.0, ALTITUDE)),),
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
        ScenarioConfig(
            name="two-agent",
            description="two vehicles head-on, each filtering against the other",
            duration=DURATION,
            dt=DT,
            initial_state=_state((0.0, 0.0, ALTITUDE), (1.0, 0.0, 0.0)),
            reference=LineReference((0.0, 0.0, ALTITUDE), (1.0, 0.0, 0.0)),
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
