"""Fuzzing the scenario-file, command-line and QP-constructor boundaries.

The documents are built from the loader's own schema (the record fields and
``scenarios._REFERENCES``) with nominal values, then mutated: leaves and
containers replaced by wrong types, nan/inf spellings, values near 0 and
near the double range, empty and nested containers, and strings from all of
Unicode (lone surrogates and ``records.LINE_BREAKS`` included); keys repeated,
added and dropped. Every document must load or fail as one typed line, and
one that loads must fly and write a trace that parses back to its table.

The command lines are built from the parser's own subcommands and flags,
with mutated values, unknown and repeated flags and missing or double
sources; ``main`` must return 0 or 2, or end with code 1 and one stderr line.

The QP constructor's arguments are a nominal problem's arrays and labels,
mutated the same way: entries and labels replaced, rows reshaped or sent
near a zero norm, counts off by one, whole arguments replaced. It must
raise one typed line or hold read-only finite arrays and valid labels, and
``solve`` on what it holds must answer or raise one typed line.

The other public constructors (the records a scenario is made of and the
references) get nominal arguments, with the records inside them, mutated
by the same leaves: each must build a record whose numbers are finite or
raise ``ConfigError``, a ValueError, with one line.
"""

import argparse
import copy
import io
import math
import tempfile
import warnings
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import CONFIGS_DIR, assert_same_bits
from coneguard import cli, harness, scenarios
from coneguard.cone import Obstacle
from coneguard.dynamics import QuadrotorParams, QuadrotorState
from coneguard.errors import ConeguardError, ConfigError
from coneguard.harness import (
    FILTER_KINDS,
    AgentSpec,
    Metrics,
    ScenarioConfig,
    compute_metrics,
    run_pair,
)
from coneguard.qp import GRADIENT_MIN, QpProblem, QpSolution, solve
from coneguard.records import LINE_BREAKS, check_label
from coneguard.reference import HoverReference, LineReference, WaypointReference
from coneguard.scenarios import load_scenario
from coneguard.traceio import metrics_text, parse_trace, write_trace
from coneguard.tracking import ControllerGains

# A flight lasts at most this long and this many steps.
FLIGHT_SECONDS = 0.05
FLIGHT_STEPS = 20


class Raw(str):
    """A scalar spelled as it stands in the document (a plain YAML scalar)."""


class Pairs(list):
    """A mapping as (key, value) pairs, so that a key can be repeated."""


def _quoted(text: str) -> str:
    """text as a double-quoted YAML scalar: printable ASCII as it is, every
    other character (a lone surrogate too) as its \\U escape."""
    return '"' + "".join(
        c if " " <= c <= "~" and c not in '"\\' else f"\\U{ord(c):08x}" for c in text
    ) + '"'


def to_yaml(node) -> str:
    """node as one flow-style YAML document."""
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{to_yaml(k)}: {to_yaml(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(to_yaml, node)) + "]"
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, str):
        return _quoted(node)
    if node is None or isinstance(node, bool):
        return {None: "null", True: "true", False: "false"}[node]
    return repr(node)  # int or float; nan and inf spell YAML strings


# ---- nominal documents from the schema ------------------------------------

_NOMINAL = {
    "name": "fuzz",
    "description": "",
    "duration": FLIGHT_SECONDS,
    "dt": 1.0 / 240.0,
    "kappa_gamma": 1.0,
    "hocbf_gamma": 1.0,
    # reference arguments
    "point": [0.0, 0.0, 1.0],
    "start": [0.0, 0.0, 1.0],
    "velocity": [1.0, 0.0, 0.0],
    "points": [[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]],
    "speed": 1.0,
    # obstacle fields
    "center": [1.0, 0.05, 1.0],
    "radius_raw": 0.15,
    "axis": [0.0, 0.0, 1.0],
    "height": 2.0,
}


def _nominal(key):
    """A fresh copy of the nominal value of key, which mutations may edit."""
    return copy.deepcopy(_NOMINAL[key])


def _plain(value):
    """A record default as YAML data: tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


def _record(cls) -> Pairs:
    """Every field of a record of defaults (ControllerGains, QuadrotorParams)."""
    return Pairs((Raw(f.name), _plain(f.default)) for f in fields(cls))


@st.composite
def _state(draw, position) -> Pairs:
    parts = [(Raw("position"), list(position))]
    for part in ("velocity", "attitude", "body_rates"):
        if draw(st.booleans()):
            parts.append((Raw(part), [0.0, 0.0, 0.0]))
    return Pairs(parts)


@st.composite
def _reference(draw) -> Pairs:
    kind = draw(st.sampled_from(sorted(scenarios._REFERENCES)))
    _, keys = scenarios._REFERENCES[kind]
    return Pairs([(Raw("type"), Raw(kind))] + [(Raw(k), _nominal(k)) for k in keys])


@st.composite
def _obstacle(draw, index) -> Pairs:
    kind = draw(st.sampled_from(("sphere", "cylinder")))
    entry = Pairs([(Raw("kind"), Raw(kind))])
    for f in fields(Obstacle):
        if f.name == "kind" or kind == "sphere" and f.name in ("axis", "height"):
            continue
        required = f.default is MISSING or kind == "cylinder" and f.name == "axis"
        if required or draw(st.booleans()):
            value = f"o{index}" if f.name == "label" else _nominal(f.name)
            entry.append((Raw(f.name), value))
    return entry


@st.composite
def documents(draw) -> Pairs:
    """A scenario document with every required key and a drawn choice of
    the optional ones, nominal values throughout."""
    doc = Pairs()
    for f in fields(ScenarioConfig):
        key = "filter" if f.name == "filter_kind" else f.name
        if f.default is not MISSING and not draw(st.booleans()):
            continue
        if key == "initial_state":
            value = draw(_state((0.0, 0.0, 1.0)))
        elif key == "reference":
            value = draw(_reference())
        elif key == "partner":
            state, reference = draw(_state((4.0, 0.06, 1.0))), draw(_reference())
            value = Pairs([(Raw("initial_state"), state), (Raw("reference"), reference)])
        elif key == "obstacles":
            value = [draw(_obstacle(i)) for i in range(draw(st.integers(0, 2)))]
        elif key == "filter":
            value = Raw(draw(st.sampled_from(FILTER_KINDS)))
        elif key in ("gains", "params"):
            value = _record({"gains": ControllerGains, "params": QuadrotorParams}[key])
        else:
            value = _nominal(key)
        doc.append((Raw(key), value))
    return doc


# ---- mutations ------------------------------------------------------------

_SPELLINGS = (
    ".nan .NaN .NAN nan NaN .inf .Inf +.inf -.inf inf -inf Infinity 1e999"
    " -1e999 1e-999 0 -0 0.0 -0.0 5e-324 -5e-324 2.2250738585072014e-308"
    " 1e-300 1.7976931348623157e308 -1.7976931348623157e308 1e308 0x10 0o17"
    " 1_000 4e-3 1:20 true false yes off null ~ 2001-12-14 '' 'x'"
    " 2001-13-14 2001-02-30 2001-12-14T25:00:00Z"  # dates no calendar has
).split() + [  # explicit tags on values they may not read
    f"{tag} {value}"
    for tag in "!!float !!int !!bool !!null !!timestamp !!str !!binary !!set !!omap".split()
    for value in ("x", "1", "''", "[1]", "{a: 1}")
]

_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),  # surrogates too
    st.text(st.sampled_from([*LINE_BREAKS, ",", " ", "a", "\udc80", "\ud800"]), max_size=4),
)

_LEAVES = st.one_of(
    st.sampled_from(_SPELLINGS).map(Raw),
    st.floats(),
    st.floats(-1e-300, 1e-300),
    st.integers() | st.sampled_from([10**400, -(10**400), 2**64]),
    st.booleans(),
    st.none(),
    _TEXT,
)

_KEYS = st.one_of(_TEXT, st.sampled_from(["1", "null", "true", "<<", "name"]).map(Raw))

_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(_KEYS, children), max_size=3).map(Pairs),
    max_leaves=6,
)


def _slots(node, slots):
    """Every (container, index) below node, and every mapping as (node, None)."""
    if isinstance(node, Pairs):
        slots.append((node, None))
    if isinstance(node, list):
        for i, item in enumerate(node):
            slots.append((node, i))
            _slots(item[1] if isinstance(node, Pairs) else item, slots)
    return slots


@st.composite
def mutated_documents(draw) -> str:
    doc = draw(documents())
    for _ in range(draw(st.integers(0, 3))):
        container, i = draw(st.sampled_from(_slots(doc, [])))
        if i is None:  # a mapping: add a key, maybe one it already has
            keys = [k for k, _ in container]
            key = draw(st.sampled_from(keys) | _KEYS if keys else _KEYS)
            container.append((key, draw(_VALUES)))
        elif isinstance(container, Pairs) and draw(st.booleans()):
            del container[i]
        elif isinstance(container, Pairs):
            container[i] = (container[i][0], draw(_VALUES))
        else:
            container[i] = draw(_VALUES)
    return to_yaml(doc)


# ---- the scenario-file property -------------------------------------------

def _assert_one_line(exc: ConeguardError) -> None:
    message = str(exc)
    assert message and message.splitlines() == [message], repr(message)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutated_documents())
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]},'
    ' obstacles: [{kind: sphere, center: [1.0, 0.0, 1.0], radius_raw: 0.2,'
    ' label: "a\\udc80b"}]}'
).via("lone surrogate in a label")
@example(
    '{name: "a\\udc80b", duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("lone surrogate in the scenario name")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [1.7976931348623157e308, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("an infinite thrust command: numpy warned on inf times 0 in the mixer")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0], body_rates: [1e+154, 0.0, 0.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]},'
    ' obstacles: [{kind: sphere, center: [1.0, 0.0, 1.0], radius_raw: 0.2}]}'
).via("body rates whose products overflow in the survey and the QP")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0], velocity: [0.5, 0.0, 0.0]},'
    ' reference: {type: line, start: [0.0, 0.0, 1.0], velocity: [1.0, 0.0, 0.0]},'
    ' obstacles: [{kind: sphere, center: [0.5, 0.05, 1.0], radius_raw: 0.15,'
    ' velocity: [-0.5, 0.0, 0.0]}, {kind: cylinder, center: [-1e+154, -0.05, 1.0],'
    ' radius_raw: 0.15, velocity: [0.0, 0.1, 0.0], axis: [0.0, 0.0, 1.0]}]}'
).via("Gram products that overflow reached lstsq: LinAlgError and a LAPACK line")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: waypoints, points: [[0.0, 0.0, 1.0],'
    ' [1.7976931348623157e308, 0.0, 1.0]], speed: 1.0}}'
).via("waypoints whose segment length overflows")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: waypoints, points: [[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]],'
    ' speed: 5e-324}}'
).via("a waypoint speed whose knot time overflows")
@example(
    '{name: "a\\nb", duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("a line break in the scenario name split its metrics.txt line")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: waypoints, points: [[0.0, 0.0, 1.0], [1e-170, 0.0, 1.0]],'
    ' speed: 1.0}}'
).via("distinct waypoints 1e-170 m apart were refused as not distinct")
@example(
    '{name: 2001-13-14, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("an invalid date raised PyYAML's untyped ValueError")
@example(
    '{name: fuzz, duration: !!float x, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("!!float x raised ValueError")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}, description: !!bool x}'
).via("!!bool x raised KeyError")
@example(
    '{name: !!timestamp x, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}}'
).via("!!timestamp x raised AttributeError")
@example(
    '{name: fuzz, duration: 0.05, dt: 0.004166666666666667,'
    ' initial_state: {position: [0.0, 0.0, 1.0]},'
    ' reference: {type: hover, point: [0.0, 0.0, 1.0]}, obstacles: !!set [1]}'
).via("!!set [1] raised TypeError in the duplicate-key check")
@example("{name: " + "[" * 5000 + "]" * 5000 + "}").via(
    "a document nested 5,000 deep raised RecursionError"
)
def test_scenario_files_load_or_fail_as_one_typed_line(text):
    """A document loads, or raises a ConeguardError whose message is one
    line. One that loads flies (at most FLIGHT_SECONDS and FLIGHT_STEPS), or
    fails the same way; its traces are written and parse back to their
    tables and labels, and its metrics text is UTF-8 and one ``key: value``
    line per Metrics field, after the scenario and the filter."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(text, encoding="utf-8")
        try:
            config = load_scenario(path)
        except ConeguardError as exc:
            _assert_one_line(exc)
            return
        duration = min(config.duration, FLIGHT_SECONDS, FLIGHT_STEPS * config.dt)
        config = replace(config, duration=duration)
        try:
            traces = run_pair(config)
        except ConeguardError as exc:
            _assert_one_line(exc)
            return
        for trace in traces:
            write_trace(path.with_suffix(".csv"), trace)
            back = parse_trace(path.with_suffix(".csv"))
            assert back.obstacle_labels == trace.obstacle_labels
            assert_same_bits(back.table, trace.table)
            metrics = compute_metrics(trace)
            text = metrics_text(config.name, config.filter_kind, metrics)
            text.encode("utf-8")
            assert [line.split(": ")[0] for line in text.splitlines()] == _METRICS_KEYS


_METRICS_KEYS = ["scenario", "filter", *(f.name for f in fields(Metrics))]


# ---- the command line -----------------------------------------------------

# The sources: every built-in, and three files flown for FLIGHT_SECONDS: a
# hover, the same hover named héllo, which an ASCII stdout cannot print as
# it is, and a line past a sphere and a cylinder, so that compare writes
# phi-ratio columns.
_HOVER = (CONFIGS_DIR / "hover.yaml").read_text()
_HOVER = _HOVER.replace("duration: 4.0", f"duration: {FLIGHT_SECONDS}")
_HELLO = _HOVER.replace("name: hover", "name: héllo")
_OBSTACLES = f"""\
name: fuzz-obstacles
duration: {FLIGHT_SECONDS}
dt: 0.004166666666666667
initial_state:
  position: [0.0, 0.0, 1.0]
  velocity: [1.0, 0.0, 0.0]
reference:
  type: line
  start: [0.0, 0.0, 1.0]
  velocity: [1.0, 0.0, 0.0]
obstacles:
  - kind: sphere
    center: [1.0, 0.05, 1.0]
    radius_raw: 0.15
    velocity: [-0.5, 0.0, 0.0]
  - kind: cylinder
    center: [1.5, -0.1, 1.0]
    radius_raw: 0.15
    axis: [0.0, 0.0, 1.0]
    height: 2.0
    label: post
"""


def _flags() -> dict[str, dict[str, argparse.Action]]:
    """{subcommand: {flag: its action}}, read from cli._build_parser()."""
    parser = cli._build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {flag: action for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.choices.items()
    }


_FLAGS = _flags()
_SOURCES = st.sampled_from(
    [("--config", name) for name in ("hover.yaml", "hello.yaml", "obstacles.yaml")]
) | st.sampled_from([("--scenario", name) for name in scenarios.scenario_names()])

# Flag values. The test runs in a scratch directory that holds "hover.yaml",
# "hello.yaml", "obstacles.yaml", the plain file "file" and the directory
# "held", where directories hold the output files "trace.csv" and
# "trace_hocbf_gamma1.csv"; a drawn text has no "/", so that every path
# stays inside that directory or its parent.
_ARG_VALUES = st.one_of(
    st.sampled_from(
        [*scenarios.scenario_names(), *FILTER_KINDS, "hover.yaml", "hello.yaml",
         "obstacles.yaml", "missing.yaml", "file", "file/x", "held", "out", "-",
         "--", "-1"]
    ),
    st.sampled_from(_SPELLINGS),
    st.floats().map(repr),
    st.text(st.characters(exclude_categories=(), exclude_characters="/"), max_size=6),
    st.text(st.sampled_from([*LINE_BREAKS, "\x00", "\ud800", "\udc80", "a", "-"]), max_size=4),
)
_UNKNOWN_FLAGS = st.sampled_from(["--bogus", "-x", "--h", "--c", "--out=", "--"])


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand (one time in ten any text), 0-2 sources and 0-3 of its
    flags or unknown ones, each flag that takes a value with a drawn one."""
    known = draw(st.integers(0, 9)) > 0
    command = draw(st.sampled_from(sorted(_FLAGS)) if known else _ARG_VALUES)
    flags = _FLAGS.get(command, {})
    flag_names = st.sampled_from(sorted(flags)) | _UNKNOWN_FLAGS if flags else _UNKNOWN_FLAGS
    args = [list(source) for source in draw(st.lists(_SOURCES, max_size=2))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(flag_names)
        takes_none = flag in flags and flags[flag].nargs == 0
        args.append([flag] if takes_none else [flag, draw(_ARG_VALUES)])
    return [command, *(token for arg in draw(st.permutations(args)) for token in arg)]


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs())
@example(["run", "--scenario", "corridor", "--filter", "bogus"]).via(
    "argparse printed its usage block before the error line"
)
@example(["run", "--config", "hover.yaml", "--out", "file"]).via(
    "an output directory that is a file: FileExistsError traceback"
)
@example(["compare", "--config", "hover.yaml", "--out", "file/x"]).via(
    "an output directory below a file: NotADirectoryError traceback"
)
@example(["run", "--config", "hover.yaml", "--out", "held"]).via(
    "an output file held by a directory: IsADirectoryError traceback"
)
@example(["run", "--config", "hover.yaml", "--out", "a\x00b"]).via(
    "a NUL in the output path: ValueError traceback"
)
@example(["compare", "--config", "obstacles.yaml", "--sweep-gamma"]).via(
    "the phi-ratio columns of a sphere and a cylinder at every swept gamma"
)
@example(["validate-config", "--config", "a\x00b"]).via(
    "a NUL in the scenario path: ValueError traceback"
)
@example(["validate-config", "--config", "a\u2028b"]).via(
    "a line break in a missing scenario path split the error line"
)
@example(["run", "--config", "hello.yaml"]).via(
    "an ASCII stdout: UnicodeEncodeError traceback"
)
def test_cli_returns_0_or_2_or_fails_as_one_line(argv):
    """main returns 0 or 2 with nothing on stderr, or ends with code 1,
    returned or as SystemExit(1), and exactly one stderr line; --help may
    exit 0. harness.MAX_STEPS is cut to FLIGHT_STEPS, so that a long flight,
    each built-in's included, is refused as one typed line, not flown. A
    compare that returns 0 or 2 wrote phi-ratio tables that fit its traces.
    stdout and stderr are strict ASCII, as under LC_ALL=C."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        work = Path(tmp) / "work"
        work.mkdir()
        (work / "hover.yaml").write_text(_HOVER, encoding="utf-8")
        (work / "hello.yaml").write_text(_HELLO, encoding="utf-8")
        (work / "obstacles.yaml").write_text(_OBSTACLES, encoding="utf-8")
        (work / "file").write_text("", encoding="utf-8")
        for held in ("trace.csv", "trace_hocbf_gamma1.csv"):
            (work / "held" / held).mkdir(parents=True)
        patch.chdir(work)
        patch.setattr(harness, "MAX_STEPS", FLIGHT_STEPS)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = returned = cli.main(argv)
            except SystemExit as exc:
                code, returned = exc.code, None
        if argv[0] == "compare" and returned in (0, 2):
            _check_phi_ratio_tables(Path(tmp))
        stderr.flush()
        err = stderr.buffer.getvalue().decode("ascii")
    if code == 1:
        assert err.endswith("\n") and len(err.splitlines()) == 1, repr(err)
    else:
        assert code in (0, 2), code
        assert err == "", repr(err)


def _check_phi_ratio_tables(root: Path) -> None:
    """Each phi_ratio_gamma*.csv below root has the header t and one
    phi_ratio_<label> per config obstacle (a pair's partner has none), and
    one row per row of the HO-CBF trace at its gamma, at that trace's t."""
    tables = sorted(root.rglob("phi_ratio_gamma*.csv"))
    assert tables
    for path in tables:
        trace = parse_trace(path.with_name(path.name.replace("phi_ratio", "trace_hocbf")))
        labels = [label for label in trace.obstacle_labels if label != "partner"]
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header.split(",") == ["t"] + [f"phi_ratio_{label}" for label in labels]
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert table.shape == (len(trace.t), 1 + len(labels))
        assert_same_bits(table[:, 0], trace.t)


# ---- the QP constructor ---------------------------------------------------

# Entries: nan, inf, values near 0, 1e-10 and +-1e308, any float, and every
# leaf above (wrong types, booleans, nan/inf spellings, huge ints, text).
_EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1.7976931348623157e308]
_EDGES += [1e-10, -1e-10, 5e-324]
_ENTRIES = st.one_of(st.sampled_from(_EDGES), st.floats(), _LEAVES)
_NUMBERS = st.floats(-10.0, 10.0)
_ROW = st.lists(_NUMBERS, min_size=4, max_size=4)


@st.composite
def qp_arguments(draw) -> tuple:
    """(u_des, A, b, labels) of a problem of 1-4 rows, nominal, then mutated
    0-3 times: an entry of u_des, A or b or a label replaced by any entry,
    leaf or text, or a row by one of 3-5 numbers or of norm about 1e-10.
    Last, the rows, the offsets or the labels may get one more or one
    fewer, or a whole argument be replaced by any value."""
    m = draw(st.integers(1, 4))
    u_des = draw(_ROW)
    A = [draw(_ROW) for _ in range(m)]
    b = draw(st.lists(_NUMBERS, min_size=m, max_size=m))
    labels = [f"c{i}" for i in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, m - 1))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            u_des[draw(st.integers(0, 3))] = draw(_ENTRIES)
        elif kind == 1:
            A[i][draw(st.integers(0, len(A[i]) - 1))] = draw(_ENTRIES)
        elif kind == 2:
            b[i] = draw(_ENTRIES)
        elif kind == 3:
            labels[i] = draw(_TEXT | _LEAVES)
        elif kind == 4:
            A[i] = draw(st.lists(_NUMBERS, min_size=3, max_size=5))
        else:
            A[i] = draw(st.lists(st.floats(-1e-10, 1e-10), min_size=4, max_size=4))
    args = [u_des, A, b, labels]
    last = draw(st.integers(0, 9))
    if last in (1, 2, 3):  # one count off by one
        extra = (None, [1.0, 0.0, 0.0, 0.0], 0.0, f"c{m}")[last]
        args[last] = args[last][:-1] if draw(st.booleans()) else [*args[last], extra]
    elif last == 9:
        args[draw(st.integers(0, 3))] = draw(_VALUES | st.just(np.ones(4, dtype=bool)))
    return tuple(args)


_OPPOSED = ([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]], [-1.0, -1.0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(qp_arguments())
@example((*_OPPOSED, [5, 6])).via(
    "labels 5 and 6 were accepted, and solve ended in an untyped TypeError"
)
@example((*_OPPOSED, ["a\nb", "c"])).via(
    "a label with a line break was accepted, and solve's InfeasibleQpError had two lines"
)
@example(([1.0] * 4, [], [], [])).via("an empty row list was refused as not rows of 4")
@example(([1e300] * 4, [[1e300, 0.0, 0.0, 0.0]], [-1e300], ["c0"])).via(
    "solve warned on an overflowing product outside a run"
)
@example(([0.0] * 4, [[0.0] * 4], [-1.0], ["c0"])).via(
    "a vanished row was refused as DegenerateGradientError, which is not a ValueError"
)
def test_qp_problem_is_checked_or_fails_as_one_typed_line(args):
    """QpProblem(u_des, A, b, labels) raises a ConfigError whose message
    is one line, or holds read-only finite float arrays of shapes (4,),
    (m, 4) and (m,), rows with ||a|| > GRADIENT_MIN, and a tuple of m labels
    that check_label accepts. solve on it returns a finite u*, or raises a
    ConeguardError whose message is one line; neither warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_qp_problem(args)


def _check_qp_problem(args):
    try:
        problem = QpProblem(*args)
    except ConeguardError as exc:
        assert type(exc) is ConfigError, repr(exc)
        _assert_one_line(exc)
        return
    m = len(problem.labels)
    arrays = (problem.u_des, problem.A, problem.b)
    assert [array.shape for array in arrays] == [(4,), (m, 4), (m,)]
    for array in arrays:
        assert array.dtype == float and not array.flags.writeable
        assert np.isfinite(array).all()
    assert type(problem.labels) is tuple
    for label in problem.labels:
        check_label(label)
    assert all(math.hypot(*row) > GRADIENT_MIN for row in problem.A.tolist())
    try:
        solution = solve(problem)
    except ConeguardError as exc:
        _assert_one_line(exc)
        return
    assert type(solution) is QpSolution and np.isfinite(solution.u_star).all()


# ---- the public constructors ----------------------------------------------


class Call(NamedTuple):
    """A constructor and its keyword arguments, records among them as
    Calls too, so that the test builds each inner record, which may fail."""

    build: Callable
    kwargs: dict


def _state_call(position) -> Call:
    parts = {p: [0.0] * 3 for p in ("velocity", "attitude", "body_rates")}
    return Call(QuadrotorState, {"position": list(position), **parts})


def _obstacle_call(kind: str) -> Call:
    kwargs = {"kind": kind, "center": _nominal("center"), "radius_raw": 0.15}
    kwargs |= {"velocity": [0.0] * 3, "label": "o0"}
    if kind == "cylinder":
        kwargs |= {"axis": _nominal("axis"), "height": 2.0}
    return Call(Obstacle, kwargs)


def _hover_call() -> Call:
    return Call(HoverReference, {"point": _nominal("point")})


def _agent_call() -> Call:
    return Call(
        AgentSpec,
        {"initial_state": _state_call((4.0, 0.06, 1.0)), "reference": _hover_call()},
    )


def _defaults_call(cls) -> Call:
    return Call(cls, {f.name: _plain(f.default) for f in fields(cls)})


def _nominal_calls() -> dict[str, Call]:
    """Every public constructor with nominal arguments, none shared."""
    config = {
        "name": "fuzz",
        "duration": FLIGHT_SECONDS,
        "dt": _NOMINAL["dt"],
        "initial_state": _state_call((0.0, 0.0, 1.0)),
        "reference": _hover_call(),
        "obstacles": [_obstacle_call("sphere")],
        "filter_kind": "c3bf",
        "kappa_gamma": 1.0,
        "hocbf_gamma": 1.0,
        "gains": _defaults_call(ControllerGains),
        "params": _defaults_call(QuadrotorParams),
        "partner": _agent_call(),
        "description": "",
    }
    references = {
        "line": Call(LineReference, {k: _nominal(k) for k in ("start", "velocity")}),
        "waypoints": Call(WaypointReference, {k: _nominal(k) for k in ("points", "speed")}),
    }
    return {
        "sphere": _obstacle_call("sphere"),
        "cylinder": _obstacle_call("cylinder"),
        "state": _state_call((0.0, 0.0, 1.0)),
        "state-vector": Call(QuadrotorState.from_vector, {"x": [0.0] * 12}),
        "params": _defaults_call(QuadrotorParams),
        "gains": _defaults_call(ControllerGains),
        "hover": _hover_call(),
        **references,
        "agent": _agent_call(),
        "scenario": Call(ScenarioConfig, config),
    }


def _arguments(node, slots):
    """Every (container, key) below node that holds an argument, an entry of
    one or an argument of a record inside it."""
    if isinstance(node, (Call, list)):
        container = node.kwargs if isinstance(node, Call) else node
        keys = list(container) if isinstance(node, Call) else range(len(node))
        for key in keys:
            slots.append((container, key))
            _arguments(container[key], slots)
    return slots


@st.composite
def constructor_calls(draw) -> Call:
    """A public constructor with nominal arguments, mutated 0-3 times: an
    argument, an entry of one or an argument of an inner record replaced by
    a QP entry, a scenario leaf or container, or a nominal record (of the
    wrong type, mostly)."""
    names = st.sampled_from(sorted(_nominal_calls()))
    call = _nominal_calls()[draw(names)]
    records = names.map(lambda name: _nominal_calls()[name])  # a fresh one each
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(_arguments(call, [])))
        container[key] = draw(_ENTRIES | _VALUES | records)
    return call


def _build(node):
    """node with every Call in it built, innermost first."""
    if isinstance(node, Call):
        return node.build(**{k: _build(v) for k, v in node.kwargs.items()})
    if type(node) is list:
        return [_build(item) for item in node]
    return node


def _assert_finite(value, where: str) -> None:
    """Every number value holds, in its public attributes, is finite."""
    if isinstance(value, np.ndarray):
        assert value.dtype == float and np.isfinite(value).all(), where
    elif isinstance(value, (int, float)):
        assert math.isfinite(value) and not isinstance(value, bool), where
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _assert_finite(item, f"{where}[{i}]")
    elif hasattr(value, "__dict__"):
        for name, item in vars(value).items():
            if not name.startswith("_"):
                _assert_finite(item, f"{where}.{name}")


_PITCHED = _nominal_calls()["scenario"]
_PITCHED.kwargs["initial_state"].kwargs["attitude"] = [0.0, 2.0, 0.0]


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(constructor_calls())
@example(Call(QuadrotorState.from_vector, {"x": [math.nan] * 12})).via(
    "a nan state was built, and refused only by a separate validate()"
)
@example(
    Call(Obstacle, {"kind": "sphere", "center": [math.nan, 0, 0], "radius_raw": 0.1})
).via("a nan obstacle center raised an obstacle-only error that is not a ValueError")
@example(_PITCHED).via("a start state pitched past pi/2")
@example(
    Call(Obstacle, {"kind": "cylinder", "center": [0, 0, 0], "radius_raw": 0.1,
                    "axis": [1e308, 0.0, 1.0]})
).via("an axis of 1e308 warned on overflow in its norm before it was refused")
def test_public_constructors_build_finite_records_or_raise_config_error(call):
    """Obstacle, both QuadrotorState constructors, QuadrotorParams,
    ControllerGains, AgentSpec, ScenarioConfig and the three references
    build a record whose numbers are all finite, or raise ConfigError,
    caught as a ValueError, whose message is one line; no other class."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = _build(call)
    except ValueError as exc:
        assert type(exc) is ConfigError, repr(exc)
        _assert_one_line(exc)
        return
    _assert_finite(record, call.build.__qualname__)
