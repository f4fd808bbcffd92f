"""The obstacle-field benchmark's traces against their recorded digests.

The 8-obstacle fields are the only flights that reach the stacked survey
and an 8-row feasible start on most steps, so their trace bytes pin
both. The generator and the digests are the benchmark's own files,
read as they are.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from coneguard.harness import run
from coneguard.traceio import write_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def field():
    """perfbench/field.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("field", PERFBENCH / "field.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("seed", [0, 7919])
def test_field_trace_matches_recorded_digest(field, tmp_path, seed, index):
    """Each field of the recorded seeds, flown and written as the benchmark
    writes it, has the sha256 of ``digests.json``."""
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    config = field.generate_field(seed, index)
    path = tmp_path / f"{config.name}.csv"
    write_trace(path, run(config))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == recorded["obstacle-field"][str(seed)][config.name]
