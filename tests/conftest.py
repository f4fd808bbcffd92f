"""Shared fixtures for the test suite."""

from __future__ import annotations

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


@pytest.fixture(scope="session")
def raw_builtin_tables():
    """The nine trace tables of the eight built-ins (two-agent records both
    vehicles) as recorded, before ``harness._quantize`` rounds them."""
    raw = []
    quantize = harness._quantize

    def capture(table):
        raw.append(table.copy())
        quantize(table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_quantize", capture)
        for config in builtin_scenarios():
            runner = harness.run_pair if config.partner is not None else harness.run
            runner(config)
    assert len(raw) == 9
    return raw
