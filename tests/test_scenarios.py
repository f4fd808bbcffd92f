"""Built-in scenario registry checks (geometry, not full runs)."""

import numpy as np
import pytest

from helpers import hover_scenario, line_tracking_scenario
from coneguard.cone import BodyFrame
from coneguard.harness import separation_distance
from coneguard.scenarios import get_scenario, scenario_names

EXPECTED = (
    "static-overtake",
    "static-brake",
    "moving-head-on",
    "moving-slow",
    "cylinder-side",
    "cylinder-top",
    "corridor",
    "two-agent",
)


def test_registry_names_and_order():
    assert tuple(scenario_names()) == EXPECTED


def test_unknown_name_lists_choices():
    with pytest.raises(KeyError) as exc_info:
        get_scenario("warp-drive")
    assert "static-overtake" in str(exc_info.value)


def test_builtins_share_grid_and_filter():
    for name in EXPECTED:
        config = get_scenario(name)
        assert config.duration == 10.0
        assert abs(config.dt - 1 / 240) < 1e-18
        assert config.filter_kind == "c3bf"
        assert config.description


def test_builtins_start_outside_every_obstacle():
    """No scenario may begin in contact; h(0) sign is scenario-specific."""
    for name in EXPECTED:
        config = get_scenario(name)
        frame = BodyFrame(config.initial_state, config.params)
        for obstacle in config.obstacles:
            d = separation_distance(frame, obstacle, config.params, 0.0)
            assert d > 0.0, f"{name} starts inside {obstacle.kind}"


def test_two_agent_carries_partner():
    config = get_scenario("two-agent")
    assert config.partner is not None
    gap = np.linalg.norm(
        config.partner.initial_state.position - config.initial_state.position
    )
    assert gap > 1.0


def test_helper_scenarios_are_unfiltered():
    hover = hover_scenario()
    assert hover.filter_kind == "none"
    assert hover.obstacles == ()
    assert np.allclose(
        hover.initial_state.position - np.array([0.0, 0.0, 1.0]), [0.1, 0, 0]
    )
    line = line_tracking_scenario()
    assert line.filter_kind == "none"
    assert line.duration == 5.0
