"""Shared fixtures for the test suite."""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np
import pytest

from coneguard import harness
from coneguard.dynamics import QuadrotorParams
from coneguard.scenarios import builtin_scenarios


@pytest.fixture(scope="session")
def params():
    return QuadrotorParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


class BuiltinFlights(NamedTuple):
    runs: dict  # scenario name -> (config, traces, wall seconds)
    raw_tables: list  # the nine trace tables before harness._quantize


@pytest.fixture(scope="session")
def builtin_flights():
    """One filtered run of every built-in scenario, each with its traces and
    wall time, and the nine trace tables (two-agent records both vehicles)
    as recorded, before ``harness._quantize`` rounds them."""
    runs, raw = {}, []
    quantize = harness._quantize

    def capture(table):
        raw.append(table.copy())
        quantize(table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_quantize", capture)
        for config in builtin_scenarios():
            start = time.perf_counter()
            traces = harness.run_pair(config)
            runs[config.name] = (config, traces, time.perf_counter() - start)
    assert len(raw) == 9
    return BuiltinFlights(runs, raw)
