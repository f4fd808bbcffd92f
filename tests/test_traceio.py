"""Trace CSV contract and strict YAML scenario parsing."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import quantize_edge_values
from coneguard import traceio
from coneguard.cone import Obstacle
from coneguard.dynamics import QuadrotorState
from coneguard.errors import ConfigError
from coneguard.harness import (
    VIOLATION_TOL,
    ScenarioConfig,
    compare,
    compute_metrics,
    run,
)
from coneguard.reference import (
    HoverReference,
    LineReference,
    WaypointReference,
)
from coneguard.records import LINE_BREAKS
from coneguard.scenarios import load_scenario, scenario_from_dict
from coneguard.traceio import (
    comparison_text,
    metrics_text,
    parse_trace,
    trace_columns,
    write_phi_ratio,
    write_trace,
)

MINIMAL = {
    "name": "yaml-min",
    "duration": 1.0,
    "dt": 1 / 240,
    "initial_state": {"position": [0.0, 0.0, 1.0]},
    "reference": {"type": "hover", "point": [0.0, 0.0, 1.0]},
}


_DUPLICATE_TOP = """\
name: dup
duration: 1.0
dt: 0.004166666666666667
duration: 2.0
initial_state: {position: [0.0, 0.0, 1.0]}
reference: {type: hover, point: [0.0, 0.0, 1.0]}
"""
_DUPLICATE_NESTED = """\
name: dup
duration: 1.0
dt: 0.004166666666666667
initial_state:
  position: [0.0, 0.0, 1.0]
  position: [0.0, 0.0, 2.0]
reference: {type: hover, point: [0.0, 0.0, 1.0]}
"""
_DUPLICATE_OBSTACLE = """\
name: dup
duration: 1.0
dt: 0.004166666666666667
initial_state: {position: [0.0, 0.0, 1.0]}
reference: {type: hover, point: [0.0, 0.0, 1.0]}
obstacles:
  - kind: sphere
    center: [1.0, 0.0, 1.0]
    radius_raw: 0.2
  - kind: sphere
    center: [2.0, 0.0, 1.0]
    radius_raw: 0.2
    radius_raw: 0.3
"""


def short_config():
    return ScenarioConfig(
        name="io-check",
        duration=0.25,
        dt=1 / 240,
        initial_state=QuadrotorState.from_vector(
            np.array([0.0, 0.0, 1.0, 0.6, 0.0, 0.0] + [0.0] * 6)
        ),
        reference=LineReference(
            start=np.array([0.0, 0.0, 1.0]), velocity=np.array([0.6, 0.0, 0.0])
        ),
        obstacles=(
            Obstacle(
                kind="sphere", center=(1.2, 0.02, 1.0), radius_raw=0.25, label="ball"
            ),
        ),
        filter_kind="c3bf",
    )


def short_trace():
    return run(short_config())


def test_round_trip_is_exact(tmp_path):
    trace = short_trace()
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    back = parse_trace(path)
    assert back.obstacle_labels == trace.obstacle_labels
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.states, trace.states)
    assert np.array_equal(back.u_des, trace.u_des)
    assert np.array_equal(back.u_star, trace.u_star)
    assert np.array_equal(back.h, trace.h)
    assert np.array_equal(back.separation, trace.separation)
    assert np.array_equal(
        back.separation < -VIOLATION_TOL, trace.separation < -VIOLATION_TOL
    )


def test_write_is_byte_deterministic(tmp_path):
    trace = short_trace()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, trace)
    write_trace(b, trace)
    assert a.read_bytes() == b.read_bytes()


def test_header_contract(tmp_path):
    trace = short_trace()
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,x,y,z,vx,vy,vz,roll,pitch,yaw,wx,wy,wz,u_des_1")
    assert header.endswith("h_ball,sep_ball")


def test_parse_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,x\n0,1\n")
    with pytest.raises(ConfigError):
        parse_trace(bad)
    bad.write_text("")
    with pytest.raises(ConfigError):
        parse_trace(bad)
    with pytest.raises(ConfigError):
        parse_trace(tmp_path / "missing.csv")
    header = ",".join(trace_columns(()))
    bad.write_text(header + "\n" + ",".join(["abc"] + ["0"] * 20) + "\n")
    with pytest.raises(ConfigError):
        parse_trace(bad)


def test_comma_label_rejected(tmp_path):
    trace = short_trace()
    tampered = replace(trace, obstacle_labels=("a,b",))
    with pytest.raises(ConfigError):
        write_trace(tmp_path / "x.csv", tampered)


# every character str.splitlines breaks at, the two of "\r\n" included
_BREAKS = {"\n": "lf", "\r": "cr", "\x0b": "vt", "\x0c": "ff", "\x1c": "fs"}
_BREAKS |= {"\x1d": "gs", "\x1e": "rs", "\x85": "nel", "\u2028": "ls", "\u2029": "ps"}


def test_line_breaks_are_those_of_splitlines():
    """The label rule refuses exactly the characters parse_trace's
    str.splitlines breaks a line at."""
    breaks = {chr(i) for i in range(0x110000) if len(f"a{chr(i)}b".splitlines()) > 1}
    assert breaks == set(LINE_BREAKS) == set(_BREAKS)


@pytest.mark.parametrize("label", [f"a{c}b" for c in _BREAKS], ids=_BREAKS.values())
def test_line_break_label_rejected(tmp_path, label):
    """A line break in a label would split the trace header in two, so both
    the obstacle and write_trace refuse it, as they refuse a comma."""
    with pytest.raises(ConfigError, match="may not contain commas or line"):
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.1, label=label)
    tampered = replace(short_trace(), obstacle_labels=(label,))
    with pytest.raises(ConfigError, match="may not contain commas or line"):
        write_trace(tmp_path / "x.csv", tampered)
    assert not (tmp_path / "x.csv").exists()


def test_label_that_utf8_cannot_encode_rejected(tmp_path):
    """A lone surrogate cannot be written to the UTF-8 trace, so the
    obstacle and write_trace refuse it with one line showing its repr."""
    message = "obstacle label 'a\\udc80b' is not UTF-8 text"
    with pytest.raises(ConfigError) as caught:
        Obstacle(kind="sphere", center=(0, 0, 0), radius_raw=0.1, label="a\udc80b")
    assert str(caught.value) == message
    tampered = replace(short_trace(), obstacle_labels=("a\udc80b",))
    with pytest.raises(ConfigError) as caught:
        write_trace(tmp_path / "x.csv", tampered)
    assert str(caught.value) == message
    assert not (tmp_path / "x.csv").exists()


def test_labels_round_trip_through_the_trace(tmp_path):
    """Labels of characters that break no line, a tab, \x1f, non-ASCII
    letters and a line separator's neighbours, are written and parsed back
    as they were."""
    labels = ("a\tb", "unit\x1fsep", "café", "Δx", "\u2027")
    trace = short_trace()
    h, sep = trace.table[:, 21:22], trace.table[:, 22:23]
    table = np.hstack([trace.table[:, :21]] + [h, sep] * len(labels))
    tampered = replace(trace, obstacle_labels=labels, table=table)
    path = tmp_path / "trace.csv"
    write_trace(path, tampered)
    back = parse_trace(path)
    assert back.obstacle_labels == labels
    assert np.array_equal(back.table, table)


def _write_both(tmp_path, header, table):
    """The bytes _write_csv and the per-row %-format oracle write."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    traceio._write_csv(got, header, table)
    oracles.write_csv_per_row(want, header, table)
    return got.read_bytes(), want.read_bytes()


def test_csv_writer_is_the_per_row_format_on_edge_values(tmp_path, builtin_flights):
    """The block writer prints what "%.8e" prints, byte for byte: on the
    quantize tests' edge values with nan and +-inf, one and two to a row,
    and on the built-ins' trace tables, raw and quantized."""
    values = np.concatenate([quantize_edge_values(), [np.nan, np.inf, -np.inf]])
    tables = [values[:, None], values[:-1].reshape(-1, 2)]
    for raw in builtin_flights.raw_tables:
        quantized = raw.copy()
        traceio._quantize(quantized)
        tables += [raw, quantized]
    for i, table in enumerate(tables):
        header = [f"c{j}" for j in range(table.shape[1])]
        got, want = _write_both(tmp_path, header, table)
        assert got == want, i


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257])
def test_csv_writer_is_the_per_row_format_on_unquantized_tables(tmp_path, rows):
    """The same on random unquantized tables around the block size,
    exponents from 1e-30 to 1e40 of either sign, some zeros, and a header
    with non-ASCII labels."""
    assert traceio._QUANTIZE_ROWS == 256
    rng = np.random.default_rng(rows)
    table = rng.choice((-1.0, 1.0), (rows, 9)) * 10.0 ** rng.uniform(-30, 40, (rows, 9))
    table[rng.random((rows, 9)) < 0.05] = 0.0
    header = ["t"] + [f"h_Δ{j}" for j in range(8)]
    got, want = _write_both(tmp_path, header, table)
    assert got == want
    assert got.count(b"\n") == rows + 1


def test_metrics_text_lists_fields():
    trace = short_trace()
    text = metrics_text("io-check", "c3bf", compute_metrics(trace))
    for key in (
        "min_separation",
        "min_h",
        "max_deviation",
        "intervention_duty",
        "tracking_rms",
        "success",
    ):
        assert key in text


def test_comparison_text_and_phi_ratio(tmp_path):
    obs = Obstacle(
        kind="sphere", center=(2.0, 0.05, 0.90), radius_raw=0.2, velocity=(-0.3, 0, 0)
    )

    config = ScenarioConfig(
        name="io-compare",
        duration=1.5,
        dt=1 / 240,
        initial_state=QuadrotorState.from_vector(
            np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0] + [0.0] * 6)
        ),
        reference=LineReference(
            start=np.array([0.0, 0.0, 1.0]), velocity=np.array([1.0, 0.0, 0.0])
        ),
        obstacles=(obs,),
    )

    ((report,),) = compare(config, (1.0,))
    text = comparison_text(report, 1.0)
    assert "[a]" in text and "[b]" in text
    assert "separation_gap" in text
    assert "hocbf_gamma: 1" in text
    path = tmp_path / "phi.csv"
    write_phi_ratio(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi_ratio_sphere0"
    assert len(lines) == report.trace_a.t.shape[0] + 1


def test_minimal_yaml_dict():
    config = scenario_from_dict(dict(MINIMAL))
    assert config.name == "yaml-min"
    assert config.filter_kind == "c3bf"
    assert isinstance(config.reference, HoverReference)
    assert config.obstacles == ()


def test_full_yaml_dict():
    data = dict(MINIMAL)
    data.update(
        {
            "description": "everything at once",
            "filter": "hocbf",
            "kappa_gamma": 2.0,
            "hocbf_gamma": 0.5,
            "reference": {
                "type": "waypoints",
                "points": [[0, 0, 1], [1, 0, 1], [1, 1, 1]],
                "speed": 0.5,
            },
            "obstacles": [
                {
                    "kind": "cylinder",
                    "center": [2, 0, 0],
                    "radius_raw": 0.2,
                    "axis": [0, 0, 2],
                    "height": 2.0,
                    "label": "post",
                },
            ],
            "gains": {"pos_p": [5, 5, 5], "roll_p": 80.0},
            "params": {"mass": 0.03},
            "partner": {
                "initial_state": {"position": [3, 0, 1]},
                "reference": {"type": "line", "start": [3, 0, 1], "velocity": [-1, 0, 0]},
            },
        }
    )
    config = scenario_from_dict(data)
    assert config.filter_kind == "hocbf"
    assert config.kappa_gamma == 2.0
    assert config.hocbf_gamma == 0.5
    assert isinstance(config.reference, WaypointReference)
    # axis arrives normalized
    assert np.allclose(config.obstacles[0].axis, [0, 0, 1], atol=0.0)
    assert config.obstacles[0].label == "post"
    assert config.gains.pos_p == (5.0, 5.0, 5.0)
    assert config.params.mass == 0.03
    assert config.partner is not None


def test_yaml_rejects_unknown_keys():
    data = dict(MINIMAL)
    data["filtr"] = "c3bf"
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_yaml_rejects_unknown_nested_keys():
    data = dict(MINIMAL)
    data["reference"] = {"type": "hover", "point": [0, 0, 1], "speed": 1.0}
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_yaml_rejects_boolean_numbers():
    data = dict(MINIMAL)
    data["duration"] = True
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_yaml_rejects_missing_required():
    data = dict(MINIMAL)
    del data["reference"]
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_yaml_rejects_bad_filter():
    data = dict(MINIMAL)
    data["filter"] = "mpc"
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_yaml_rejects_comma_label():
    data = dict(MINIMAL)
    data["obstacles"] = [
        {"kind": "sphere", "center": [1, 0, 1], "radius_raw": 0.1, "label": "a,b"}
    ]
    with pytest.raises(ConfigError, match=r"^obstacles\[0\]: obstacle label 'a,b'"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "labels, twice",
    [(("sphere1", ""), "sphere1"), (("post", "post"), "post")],
    ids=["default-label", "user-labels"],
)
def test_yaml_rejects_duplicate_row_labels(labels, twice):
    """Two rows of one label would write two h_ and two sep_ columns of one
    name; a user label may also collide with another obstacle's default."""
    data = dict(MINIMAL)
    data["obstacles"] = [
        {"kind": "sphere", "center": [1 + i, 0, 1], "radius_raw": 0.1, "label": label}
        for i, label in enumerate(labels)
    ]
    with pytest.raises(ConfigError, match=f"^obstacle label '{twice}' names two rows$"):
        scenario_from_dict(data)


def test_yaml_rejects_fractional_seed():
    data = dict(MINIMAL)
    data["seed"] = 1.5
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "name: from-file\n"
        "duration: 0.5\n"
        "dt: 0.004166666666666667\n"
        "initial_state:\n  position: [0.0, 0.0, 1.0]\n"
        "reference:\n  type: hover\n  point: [0.0, 0.0, 1.0]\n"
    )
    config = load_scenario(path)
    assert config.name == "from-file"
    assert abs(config.duration - 0.5) < 1e-15


@pytest.mark.parametrize("name", ["a\nb", "a\x00b"], ids=["line-break", "nul"])
def test_unprintable_paths_are_shown_as_their_repr(tmp_path, monkeypatch, name):
    """A path with a line break or a NUL is shown as its repr by the two
    readers and the two writers, so that the error stays one line: a file
    to read that is missing, one to write below a missing directory, and a
    directory in the file's place; the NUL's ValueError is a ConfigError too."""
    monkeypatch.chdir(tmp_path)
    ((report,),) = compare(short_config(), (1.0,))
    held = tmp_path / "held" / name
    if "\x00" not in name:
        held.mkdir(parents=True)
    for use, below in (
        (load_scenario, ""),
        (parse_trace, ""),
        (lambda path: write_trace(path, report.trace_a), "/x.csv"),
        (lambda path: write_phi_ratio(path, report), "/x.csv"),
    ):
        for path in (name + below, Path(f"{tmp_path / name}{below}"), held):
            with pytest.raises(ConfigError) as exc_info:
                use(path)
            message = str(exc_info.value)
            assert message.startswith(f"{str(path)!r}: "), message
            assert message.splitlines() == [message]
        if held.is_dir():
            assert message == f"{str(held)!r}: Is a directory"


def test_non_utf8_files_raise_one_line_config_errors(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"\xffname: x\n")
    want = f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"
    for read in (load_scenario, parse_trace):
        with pytest.raises(ConfigError, match=want) as exc_info:
            read(path)
        assert "\n" not in str(exc_info.value)


@pytest.mark.parametrize(
    "text, where",
    [
        ("duration: [1", " at line 1, column 13: expected ',' or ']'"),
        ("name: x\nduration: 1: 2\n", " at line 2, column 12: mapping values"),
        ("name: \x00\n", ": unacceptable character #x0000"),
        ("name: 2001-13-14\n", " at line 1, column 7: cannot read '2001-13-14' as !!timestamp"),
        ("name: x\ndt: !!float x\n", " at line 2, column 5: cannot read 'x' as !!float"),
        ("name: [1, !!bool x]\n", " at line 1, column 11: cannot read 'x' as !!bool"),
        ("name: !!timestamp x\n", " at line 1, column 7: cannot read 'x' as !!timestamp"),
        ("name: !!set [1]\n", " at line 1, column 7: expected a mapping node, but"),
        ("!!set x: 1\n", " at line 1, column 1: found unhashable key"),
        (f"name: {'[' * 5000}{']' * 5000}\n", ": nested too deeply to read"),
    ],
    ids=[
        "unclosed-list",
        "nested-mapping",
        "control-character",
        "invalid-date",
        "float-tag",
        "bool-tag",
        "timestamp-tag",
        "set-tag",
        "set-key",
        "deep-nesting",
    ],
)
def test_yaml_syntax_error_is_one_line(tmp_path, text, where):
    """PyYAML's own message adds context and caret lines; the error keeps
    the problem and, where PyYAML has one, its line and column. A value its
    tag cannot read (SafeLoader raised ValueError, KeyError, AttributeError
    or TypeError for these) fails the same way, and so does a document
    nested deeper than Python's recursion limit (RecursionError)."""
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc_info:
        load_scenario(path)
    message = str(exc_info.value)
    assert message.startswith(f"{path}: invalid YAML{where}")
    assert "\n" not in message


@pytest.mark.parametrize(
    "text, where, key",
    [
        (_DUPLICATE_TOP, "line 4, column 1", "duration"),
        (_DUPLICATE_NESTED, "line 6, column 3", "position"),
        (_DUPLICATE_OBSTACLE, "line 13, column 5", "radius_raw"),
    ],
    ids=["top", "nested", "in-list"],
)
def test_yaml_rejects_duplicate_keys(tmp_path, text, where, key):
    """A key repeated in one mapping, at any nesting level, fails with one
    line naming the key and the line of the repeat, rather than loading the
    last value."""
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc_info:
        load_scenario(path)
    message = str(exc_info.value)
    assert message == f"{path}: invalid YAML at {where}: found duplicate key {key!r}"


def test_yaml_merge_key_may_be_overridden(tmp_path):
    """A key given beside a merge (<<) overrides the merged one, as YAML
    allows; it is not a repeated key."""
    path = tmp_path / "merge.yaml"
    path.write_text(
        "name: merge\nduration: 1.0\ndt: 0.01\n"
        "reference: {type: hover, point: [0.0, 0.0, 1.0]}\n"
        "initial_state:\n  <<: {position: [0.0, 0.0, 2.0]}\n"
        "  position: [0.0, 0.0, 1.0]\n"
    )
    assert load_scenario(path).initial_state.position.tolist() == [0.0, 0.0, 1.0]


def test_import_leaves_yaml_unloaded():
    """Importing the package does not import PyYAML; reading a scenario
    file does."""
    code = (
        "import sys, coneguard; assert 'yaml' not in sys.modules;"
        " from helpers import CONFIGS_DIR;"
        " coneguard.load_scenario(CONFIGS_DIR / 'hover.yaml');"
        " assert 'yaml' in sys.modules"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_load_scenario_rejects_non_mapping(tmp_path):
    path = tmp_path / "junk.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_scenario(path)
