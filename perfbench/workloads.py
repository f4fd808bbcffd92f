"""The three workloads, each a list of units that one pass runs in order.

Every unit goes through the package's public entry points only
(``harness.run``/``run_pair``, ``scenarios.builtin_scenarios``,
``traceio.write_trace`` and ``cli.main``), looked up on their modules at
call time so that a traced pass sees the wrapped names. A unit returns how
many vehicle control steps it ran, the sha256 of every file it wrote, and a
deferred accessor for its C3BF traces, which the quality metrics read after
the unit's timed run.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from coneguard import cli, harness, scenarios, traceio

from perfbench.field import FIELDS_PER_PASS, generate_field

WORKLOADS = ("builtins", "obstacle-field", "compare-cli")
DIGESTS = Path(__file__).with_name("digests.json")
COMPARE_SCENARIO = "moving-head-on"


@dataclass
class Outcome:
    label: str
    steps: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    c3bf: Callable[[], list] = list  # every C3BF trace the unit produced
    error: str | None = None
    # safety margin, summed squared tracking error and its sample count
    quality: tuple[float, float, int] | None = None
    seconds: float = 0.0  # wall time of the unit, set by the pass


@dataclass
class Workload:
    units: list[tuple[str, Callable[[], Outcome]]]
    expected: dict[str, str]  # recorded digests; empty if none for the field seed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _written(path: Path, trace) -> str:
    traceio.write_trace(path, trace)
    return sha256(path)


def _builtin_unit(config, out: Path):
    def execute() -> Outcome:
        if config.partner is not None:
            traces = harness.run_pair(config)
        else:
            traces = (harness.run(config),)
        return Outcome(
            label=config.name,
            steps=sum(trace.t.shape[0] for trace in traces),
            digests={t.name: _written(out / f"{t.name}.csv", t) for t in traces},
            c3bf=lambda: list(traces),
        )

    return config.name, execute


def _field_unit(config, out: Path):
    def execute() -> Outcome:
        trace = harness.run(config)
        return Outcome(
            label=config.name,
            steps=trace.t.shape[0],
            digests={config.name: _written(out / f"{config.name}.csv", trace)},
            c3bf=lambda: [trace],
        )

    return config.name, execute


def _compare_unit(out: Path):
    config = scenarios.get_scenario(COMPARE_SCENARIO)
    argv = ["compare", "--scenario", COMPARE_SCENARIO, "--sweep-gamma", "--out", str(out)]

    def c3bf_traces():
        trace = traceio.parse_trace(out / "trace_c3bf.csv")
        refs = np.array([config.reference.sample(t).position for t in trace.t])
        return [replace(trace, ref_positions=refs)]

    def execute() -> Outcome:
        shutil.rmtree(out, ignore_errors=True)
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        files = sorted(out.iterdir())
        # every gamma runs the C3BF twin of its HO-CBF run, same length
        steps = 2 * sum(
            p.read_bytes().count(b"\n") - 1
            for p in files
            if p.name.startswith("trace_hocbf")
        )
        return Outcome(
            label="compare",
            steps=steps,
            digests={p.name: sha256(p) for p in files},
            c3bf=c3bf_traces,
            error=None if code == 0 else f"cli exit code {code}",
        )

    return "compare", execute


def prepare(name: str, seed: int, out: Path, field_seed: int) -> Workload:
    """Build the configs of one workload; this is the timed set-up.

    ``seed`` orders the units of a pass. The fields come from ``field_seed``;
    one without recorded digests fails the gate on every unit.
    """
    recorded = json.loads(DIGESTS.read_text())
    out.mkdir(parents=True, exist_ok=True)
    if name == "builtins":
        units = [_builtin_unit(c, out) for c in scenarios.builtin_scenarios()]
        expected = recorded["builtins"]
    elif name == "compare-cli":
        units = [_compare_unit(out / "compare")]
        expected = recorded["compare-cli"]
    elif name == "obstacle-field":
        configs = [generate_field(field_seed, j) for j in range(FIELDS_PER_PASS)]
        units = [_field_unit(config, out) for config in configs]
        expected = recorded["obstacle-field"].get(str(field_seed), {})
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    order = np.random.default_rng(seed).permutation(len(units))
    return Workload([units[i] for i in order], expected)
