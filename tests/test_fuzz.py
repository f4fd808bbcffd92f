"""Fuzzing the scenario-file boundary.

The documents are built from the loader's own schema (the record fields and
``traceio._REFERENCES``) with nominal values, then mutated: leaves and
containers replaced by wrong types, nan/inf spellings, values near 0 and
near the double range, empty and nested containers, and strings from all of
Unicode (lone surrogates and ``cone.LINE_BREAKS`` included); keys repeated,
added and dropped. Every document must load or fail as one typed line, and
one that loads must fly and write a trace that parses back to its table.
"""

import copy
import tempfile
from dataclasses import MISSING, fields, replace
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_bits
from coneguard import traceio
from coneguard.cone import LINE_BREAKS, Obstacle
from coneguard.dynamics import QuadrotorParams
from coneguard.errors import ConeguardError
from coneguard.harness import (
    FILTER_KINDS,
    ScenarioConfig,
    compute_metrics,
    run,
    run_pair,
)
from coneguard.traceio import load_scenario, metrics_text, parse_trace, write_trace
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
    kind = draw(st.sampled_from(sorted(traceio._REFERENCES)))
    _, keys = traceio._REFERENCES[kind]
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
).split()

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


# ---- the property ---------------------------------------------------------

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
def test_scenario_files_load_or_fail_as_one_typed_line(text):
    """A document loads, or raises a ConeguardError whose message is one
    line. One that loads flies (at most FLIGHT_SECONDS and FLIGHT_STEPS), or
    fails the same way; its traces are written and parse back to their
    tables and labels, and its metrics text is UTF-8."""
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
            if config.partner is not None:
                traces = run_pair(config)
            else:
                traces = (run(config),)
        except ConeguardError as exc:
            _assert_one_line(exc)
            return
        for trace in traces:
            write_trace(path.with_suffix(".csv"), trace)
            back = parse_trace(path.with_suffix(".csv"))
            assert back.obstacle_labels == trace.obstacle_labels
            assert_same_bits(back.table, trace.table)
            metrics = compute_metrics(trace)
            metrics_text(config.name, config.filter_kind, metrics).encode("utf-8")
