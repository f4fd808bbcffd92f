"""Quadrotor flight simulation with a collision-cone CBF safety filter.

A PD tracking controller produces desired rotor thrusts; a quadratic program
minimally modifies them so that every obstacle's collision-cone barrier
condition holds, keeping the relative velocity out of the cone of directions
that lead to impact. A higher-order CBF baseline is included for
conservativeness comparisons.

The package root exports the run-level surface; the layers (``dynamics``,
``tracking``, ``cone``, ``qp``, ``traceio``) are imported as submodules.
"""

from .errors import ConeguardError
from .harness import (
    Metrics,
    ScenarioConfig,
    SimTrace,
    compare,
    compute_metrics,
    run,
    run_pair,
)
from .scenarios import builtin_scenarios, get_scenario
from .traceio import load_scenario, parse_trace, write_trace

__all__ = [
    "ConeguardError",
    "Metrics",
    "ScenarioConfig",
    "SimTrace",
    "builtin_scenarios",
    "compare",
    "compute_metrics",
    "get_scenario",
    "load_scenario",
    "parse_trace",
    "run",
    "run_pair",
    "write_trace",
]
