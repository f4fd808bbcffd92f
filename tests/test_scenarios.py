"""Built-in scenario registry checks (geometry, and 0.1 s flights of the YAML twins)."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    CONFIGS_DIR,
    assert_same_bits,
    hover_scenario,
    line_tracking_scenario,
)
from coneguard.cone import BodyFrame
from coneguard.harness import run_pair, separation_distance
from coneguard.scenarios import get_scenario, load_scenario, scenario_names

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


def _assert_same(got, want, path):
    """Same types, bit-equal arrays and equal other values, down through
    every attribute of every record, reference and tuple element."""
    assert type(got) is type(want), path
    if isinstance(want, np.ndarray):
        assert_same_bits(got, want, path)
    elif isinstance(want, tuple):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif hasattr(want, "__dict__"):
        assert vars(got).keys() == vars(want).keys(), path
        for key, value in vars(want).items():
            _assert_same(vars(got)[key], value, f"{path}.{key}")
    else:
        assert got == want, path


@pytest.mark.parametrize(
    ("file", "name"),
    [
        ("moving_head_on.yaml", "moving-head-on"),
        ("static_overtake.yaml", "static-overtake"),
        ("two_agent.yaml", "two-agent"),
    ],
)
def test_yaml_equivalents_match_the_builtins(file, name):
    """Every field but the prose description, the partner's included, and
    so the same flight: 0.1 s of both, every vehicle's table bit-equal (the
    full 10 s flights are too)."""
    builtin = get_scenario(name)
    loaded = load_scenario(CONFIGS_DIR / file)
    _assert_same(replace(loaded, description=builtin.description), builtin, name)
    got = run_pair(replace(loaded, duration=0.1))
    want = run_pair(replace(builtin, duration=0.1))
    assert len(got) == len(want), name
    for g, w in zip(got, want):
        assert g.table.shape[0] > 1, name
        assert_same_bits(g.table, w.table, (name, w.name))

