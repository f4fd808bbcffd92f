"""Samplers and controller-check scenarios shared across test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from coneguard.cone import Obstacle
from coneguard.dynamics import QuadrotorState
from coneguard.harness import ScenarioConfig
from coneguard.reference import HoverReference, LineReference
from coneguard.scenarios import ALTITUDE, DT

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"

# The rotor allocation matrix M of the ``tracking`` module docstring.
ALLOCATION = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, -1.0, 0.0],
        [1.0, -1.0, 1.0, -1.0],
    ]
)


def assert_same_bits(got, want, context=""):
    """Equal values, nan for nan, and equal sign bits (so -0.0 != 0.0)."""
    assert np.array_equal(got, want, equal_nan=True), context
    assert np.array_equal(np.signbit(got), np.signbit(want)), context


def random_state(rng, att_max=1.0, speed=2.0, rate=2.0):
    """A generic state with attitude bounded away from the pitch singularity."""
    vec = np.concatenate(
        [
            rng.uniform(-3.0, 3.0, size=3),
            rng.uniform(-speed, speed, size=3),
            rng.uniform(-att_max, att_max, size=3),
            rng.uniform(-rate, rate, size=3),
        ]
    )
    return QuadrotorState.from_vector(vec)


def hover_thrust(params):
    """Per-rotor thrust that balances gravity, m g / 4."""
    return params.mass * params.gravity / 4.0


def random_thrusts(rng, params, spread=0.5):
    base = hover_thrust(params)
    return base * rng.uniform(1.0 - spread, 1.0 + spread, size=4)


def random_sphere(rng, center_scale=4.0, radius_range=(0.1, 0.6)):
    return Obstacle(
        kind="sphere",
        center=tuple(rng.uniform(-center_scale, center_scale, size=3)),
        radius_raw=float(rng.uniform(*radius_range)),
        velocity=tuple(rng.uniform(-1.0, 1.0, size=3)),
    )


def random_cylinder(rng, center_scale=4.0, radius_range=(0.1, 0.6)):
    # axis fixed to +z: that's the only orientation the built-in scenarios
    # use, and the projection math is axis-agnostic anyway
    return Obstacle(
        kind="cylinder",
        center=tuple(rng.uniform(-center_scale, center_scale, size=3)),
        radius_raw=float(rng.uniform(*radius_range)),
        axis=(0.0, 0.0, 1.0),
        height=2.0,
        velocity=tuple(rng.uniform(-1.0, 1.0, size=3)),
    )


def _at_rest(position, velocity=(0.0, 0.0, 0.0)) -> QuadrotorState:
    return QuadrotorState.from_vector(
        np.concatenate([position, velocity, np.zeros(6)])
    )


def hover_scenario(offset=(0.1, 0.0, 0.0), duration: float = 4.0) -> ScenarioConfig:
    """Unfiltered hover hold from a small initial offset (controller check)."""
    target = np.array([0.0, 0.0, ALTITUDE])
    return ScenarioConfig(
        name="hover-hold",
        description="PD hover recovery from an initial offset, no obstacles",
        duration=duration,
        dt=DT,
        initial_state=_at_rest(target + np.asarray(offset, dtype=float)),
        reference=HoverReference(target),
        filter_kind="none",
    )


def line_tracking_scenario(duration: float = 5.0) -> ScenarioConfig:
    """Unfiltered straight-line tracking at 1 m/s (controller check)."""
    return ScenarioConfig(
        name="line-tracking",
        description="PD straight-line tracking at 1 m/s, no obstacles",
        duration=duration,
        dt=DT,
        initial_state=_at_rest((0.0, 0.0, ALTITUDE), (1.0, 0.0, 0.0)),
        reference=LineReference(
            np.array([0.0, 0.0, ALTITUDE]), np.array([1.0, 0.0, 0.0])
        ),
        filter_kind="none",
    )


def field_scenario(dt: float = DT) -> ScenarioConfig:
    """A C3BF run through eight obstacles met one after another at 1 m/s:
    static and head-on spheres and vertical cylinders, all a few cm to one
    side of the path, so that up to eight QP rows are live at once."""
    kinds = ("static", "moving", "cylinder", "static", "moving", "static",
             "cylinder", "moving")
    laterals = (0.07, 0.06, 0.08, 0.05, 0.09, 0.07, 0.06, 0.08)
    radii = (0.15, 0.14, 0.16, 0.17, 0.13, 0.15, 0.14, 0.16)
    closing = (0.0, 0.6, 0.0, 0.0, 0.4, 0.0, 0.0, 0.8)
    obstacles = []
    for i, kind in enumerate(kinds):
        meet = 1.0 + 0.6 * i
        if kind == "cylinder":
            obstacle = Obstacle(
                kind="cylinder", center=(meet, laterals[i], ALTITUDE),
                radius_raw=radii[i], axis=(0.0, 0.0, 1.0), height=2.0,
            )
        else:
            obstacle = Obstacle(
                kind="sphere",
                center=(meet * (1.0 + closing[i]), laterals[i], ALTITUDE),
                radius_raw=radii[i],
                velocity=(-closing[i], 0.0, 0.0),
            )
        obstacles.append(obstacle)
    start = np.array([0.0, 0.0, ALTITUDE])
    return ScenarioConfig(
        name="field",
        duration=6.0,
        dt=dt,
        initial_state=_at_rest(start, (1.0, 0.0, 0.0)),
        reference=LineReference(start, np.array([1.0, 0.0, 0.0])),
        obstacles=tuple(obstacles),
    )


def quantize_edge_values() -> np.ndarray:
    """Values the quantize rule hands to the string rule or could misround,
    and one ulp either side of each, with both signs: decimal ties between
    two 9-digit values, powers of ten, carries into a tenth digit, zeros and
    subnormals."""
    rng = np.random.default_rng(13)
    digits = rng.integers(10**8, 10**9, 400).tolist()
    exponents = rng.integers(-14, 31, 400).tolist()
    ties = [float(f"{n}5e{k - 9}") for n, k in zip(digits, exponents)]
    ties += [1234567895.0, 9999999995.0, 123456789.5]  # exact in binary
    powers = [float(f"1e{k}") for k in range(-14, 31)]
    carries = [float(f"9.999999995e{k}") for k in range(-16, 33)]
    near = np.array(ties + powers + carries)
    values = np.concatenate(
        [
            near,
            np.nextafter(near, np.inf),
            np.nextafter(near, -np.inf),
            [0.0, 5e-324, 2.2250738585072e-310, 2.2250738585072014e-308],
            [np.nextafter(2.2250738585072014e-308, 0.0), 1e-15, 1e31],
        ]
    )
    return np.concatenate([values, -values])
