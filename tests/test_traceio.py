"""Trace CSV contract and strict YAML scenario parsing."""

from dataclasses import replace

import numpy as np
import pytest

from coneguard.cone import Obstacle
from coneguard.dynamics import QuadrotorState
from coneguard.errors import ConfigError
from coneguard.harness import (
    VIOLATION_TOL,
    ScenarioConfig,
    compare,
    compute_metrics,
    run,
    trace_columns,
)
from coneguard.reference import (
    HoverReference,
    LineReference,
    WaypointReference,
)
from coneguard.traceio import (
    comparison_text,
    load_scenario,
    metrics_text,
    parse_trace,
    scenario_from_dict,
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


def short_trace():
    config = ScenarioConfig(
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
    return run(config)


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

    (report,) = compare(config, (1.0,))
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


def test_load_scenario_rejects_non_mapping(tmp_path):
    path = tmp_path / "junk.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_scenario(path)
