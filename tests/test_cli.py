"""End-to-end CLI checks through main(argv) with short scenario files."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import CONFIGS_DIR
from coneguard import harness, qp
from coneguard.cli import main
from coneguard.scenarios import scenario_names
from coneguard.traceio import parse_trace

HOVER_YAML = textwrap.dedent(
    """\
    name: cli-hover
    duration: 0.5
    dt: 0.004166666666666667
    initial_state:
      position: [0.1, 0.0, 1.0]
    reference:
      type: hover
      point: [0.0, 0.0, 1.0]
    filter: none
    """
)

# straight line through a fat sphere dead ahead: collides well inside 2 s
COLLIDE_YAML = textwrap.dedent(
    """\
    name: cli-collide
    duration: 2.0
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
        center: [1.0, 0.0, 1.0]
        radius_raw: 0.3
    filter: none
    """
)

# static-overtake geometry, short horizon: safe filtered, unsafe unfiltered
OVERTAKE_YAML = textwrap.dedent(
    """\
    name: cli-overtake
    duration: 3.0
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
        center: [2.0, 0.05, 1.0]
        radius_raw: 0.15
    filter: c3bf
    """
)

# approaching sphere offset below the path; gentle enough for both filters
COMPARE_YAML = textwrap.dedent(
    """\
    name: cli-compare
    duration: 2.0
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
        center: [2.0, 0.05, 0.90]
        radius_raw: 0.15
        velocity: [-0.3, 0.0, 0.0]
    filter: c3bf
    """
)

PAIR_YAML = textwrap.dedent(
    """\
    name: cli-pair
    duration: 1.0
    dt: 0.004166666666666667
    initial_state:
      position: [0.0, 0.0, 1.0]
    reference:
      type: hover
      point: [0.0, 0.0, 1.0]
    partner:
      initial_state:
        position: [3.0, 0.0, 1.0]
      reference:
        type: hover
        point: [3.0, 0.0, 1.0]
    filter: c3bf
    """
)


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_scenarios_prints_all_names(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_validate_shipped_configs(capsys):
    paths = sorted(CONFIGS_DIR.glob("*.yaml"))
    assert len(paths) == 6
    for path in paths:
        assert main(["validate-config", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: ")


def test_validate_missing_file_exits_1(capsys):
    assert main(["validate-config", "--config", "/no/such/file.yaml"]) == 1
    assert capsys.readouterr().err == (
        "error: /no/such/file.yaml: No such file or directory\n"
    )


@pytest.mark.parametrize(
    "content, problem",
    [
        (b"\xffname: x\n", "'utf-8' codec can't decode byte 0xff"),
        (b"duration: [1", "invalid YAML at line 1, column 13: "),
        (b"name: 2001-13-14\n", "invalid YAML at line 1, column 7: cannot read "),
    ],
    ids=["not-utf8", "yaml-syntax", "invalid-date"],
)
def test_validate_unreadable_file_prints_one_error_line(
    tmp_path, capsys, content, problem
):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    assert main(["validate-config", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: {problem}")


@pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_validate_refuses_a_repeated_key(tmp_path, capsys, path):
    """A shipped config with its duration repeated at the end exits 1 with
    one line naming the key and its line, instead of flying the last
    value."""
    text = path.read_text()
    bad = tmp_path / path.name
    bad.write_text(text + "duration: 0.5\n")
    line = text.count("\n") + 1
    assert main(["validate-config", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}: invalid YAML at line {line}, column 1:"
        " found duplicate key 'duration'\n"
    )


HOVER_REFERENCE = "  type: hover\n  point: [0.0, 0.0, 1.0]\n"
# the hover scene plus one cylinder; a case appends its axis and height lines
CYLINDER_YAML = HOVER_YAML + textwrap.dedent(
    """\
    obstacles:
      - kind: cylinder
        center: [2.0, 0.0, 1.0]
        radius_raw: 0.2
    """
)


@pytest.mark.parametrize(
    ("text", "path"),
    [
        pytest.param(
            HOVER_YAML.replace(
                HOVER_REFERENCE,
                "  type: waypoints\n  points: [[0, 0, 1], [1, 0, 1]]\n  speed: .nan\n",
            ),
            "reference: speed ",
            id="waypoint-speed-nan",
        ),
        pytest.param(
            HOVER_YAML.replace("point: [0.0,", "point: [.nan,"),
            "reference: hover point ",
            id="hover-point-nan",
        ),
        pytest.param(
            HOVER_YAML.replace(
                HOVER_REFERENCE,
                "  type: line\n  start: [0, 0, 1]\n  velocity: [.inf, 0, 0]\n",
            ),
            "reference: line velocity ",
            id="line-velocity-inf",
        ),
        pytest.param(
            HOVER_YAML + "gains:\n  pos_p: [-1, 0, 0]\n", "gains: pos_p ", id="gains"
        ),
        pytest.param(HOVER_YAML + "params:\n  mass: 0\n", "params: mass ", id="params"),
        pytest.param(
            CYLINDER_YAML + "    axis: [.nan, 0.0, 1.0]\n",
            "obstacles[0]: axis ",
            id="axis-nan",
        ),
        pytest.param(
            CYLINDER_YAML + "    axis: [.inf, 0.0, 0.0]\n",
            "obstacles[0]: axis ",
            id="axis-inf",
        ),
        pytest.param(
            CYLINDER_YAML + "    axis: [0.0, 0.0, 1.0]\n    height: .nan\n",
            "obstacles[0]: cylinder height ",
            id="height-nan",
        ),
        pytest.param(
            CYLINDER_YAML + "    axis: [0.0, 0.0, 1.0]\n    height: .inf\n",
            "obstacles[0]: cylinder height ",
            id="height-inf",
        ),
        pytest.param(
            HOVER_YAML.replace("position: [0.1,", "position: [.nan,"),
            "initial_state: ",
            id="initial-position-nan",
        ),
        pytest.param(
            HOVER_YAML.replace(
                "  position: [0.1, 0.0, 1.0]\n",
                "  position: [0.1, 0.0, 1.0]\n  attitude: [2.0, 0.0, 0.0]\n",
            ),
            "initial_state: attitude ",
            id="initial-attitude-out-of-range",
        ),
        pytest.param(
            HOVER_YAML.replace("dt: 0.004166666666666667", 'dt: "4e-3"'),
            "dt ",
            id="dt-quoted-string",
        ),
        pytest.param(
            HOVER_YAML.replace(HOVER_REFERENCE, "  type: hover\n"),
            "reference: point ",
            id="hover-without-point",
        ),
        pytest.param(
            HOVER_YAML.replace(HOVER_REFERENCE, "  type: line\n  start: [0, 0, 1]\n"),
            "reference: velocity ",
            id="line-without-velocity",
        ),
        pytest.param(
            HOVER_YAML.replace(
                HOVER_REFERENCE, "  type: waypoints\n  points: [[0, 0, 1], [1, 0, 1]]\n"
            ),
            "reference: speed ",
            id="waypoints-without-speed",
        ),
        pytest.param(
            HOVER_YAML.replace("dt: 0.004166666666666667", "dt: 1" + "0" * 400),
            "dt ",
            id="dt-int-overflow",
        ),
        pytest.param(
            HOVER_YAML.replace("duration: 0.5", "duration: true"),
            "duration ",
            id="duration-bool",
        ),
        pytest.param(
            HOVER_YAML.replace(
                "  position: [0.1, 0.0, 1.0]\n",
                "  position: [0.1, 0.0, 1.0]\n  velocity: [true, 0, 0]\n",
            ),
            "initial_state: velocity ",
            id="velocity-bool",
        ),
        pytest.param(
            HOVER_YAML.replace("point: [0.0, 0.0, 1.0]", "point: [[0.0, 0.0, 1.0]]"),
            "reference: hover point ",
            id="hover-point-nested",
        ),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_rejects_bad_values(tmp_path, capsys, text, path):
    """One error line, which starts with the YAML path of the bad value."""
    assert main(["validate-config", "--config", _write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: " + path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            HOVER_YAML.replace("dt: 0.004166666666666667", "dt: 4e-3"),
            id="dt-exponent-without-dot",
        ),
        pytest.param(
            HOVER_YAML + "kappa_gamma: 1e200\n", id="kappa-exponent-without-dot"
        ),
        pytest.param(
            CYLINDER_YAML + "    axis: [1.0e+200, 1.0e+200, 0.0]\n", id="axis-huge"
        ),
        pytest.param(
            CYLINDER_YAML + "    axis: [1.0e-170, 1.0e-170, 0.0]\n", id="axis-tiny"
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_validate_accepts_good_values(tmp_path, capsys, text):
    assert main(["validate-config", "--config", _write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == "ok: cli-hover\n"


def test_validate_requires_config_flag():
    with pytest.raises(SystemExit) as exc_info:
        main(["validate-config"])
    assert exc_info.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 1


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    config = _write(tmp_path, HOVER_YAML)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "trace.csv").is_file()
    assert (out / "metrics.txt").is_file()
    stdout = capsys.readouterr().out
    assert "cli-hover" in stdout
    assert "min_separation" in stdout


# static-overtake cut to 0.05 s, its sphere's label or its name a lone surrogate
_OVERTAKE = (CONFIGS_DIR / "static_overtake.yaml").read_text()
_OVERTAKE = _OVERTAKE.replace("duration: 10.0", "duration: 0.05")
_SURROGATES = {
    "label": (
        _OVERTAKE + '    label: "a\\udc80b"\n',
        "obstacles[0]: obstacle label 'a\\udc80b' is not UTF-8 text",
    ),
    "name": (
        _OVERTAKE.replace("name: static-overtake", 'name: "a\\udc80b"'),
        "scenario name 'a\\udc80b' is not UTF-8 text",
    ),
}


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("where", sorted(_SURROGATES))
def test_text_that_utf8_cannot_encode_exits_1(tmp_path, capsys, where, command):
    """A label or name the UTF-8 outputs cannot hold fails as one error
    line before anything is flown or written."""
    text, problem = _SURROGATES[where]
    config = _write(tmp_path, text)
    out = tmp_path / "out"
    out_flag = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", config, *out_flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {problem}\n"
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_name_with_a_line_break_exits_1(tmp_path, capsys, command):
    config = _write(tmp_path, HOVER_YAML.replace("name: cli-hover", 'name: "a\\nb"'))
    out = tmp_path / "out"
    out_flag = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", config, *out_flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario name 'a\\nb' may not contain line breaks\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, below, reason",
    [("run", "", "File exists"), ("compare", "/x", "Not a directory")],
)
def test_out_path_that_cannot_be_a_directory_exits_1(
    tmp_path, capsys, command, below, reason
):
    """An --out that is a file, or lies below one, ends in one error line
    before anything is flown."""
    config = _write(tmp_path, HOVER_YAML)
    (tmp_path / "file").write_text("")
    out = f"{tmp_path / 'file'}{below}"
    assert main([command, "--config", config, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"


@pytest.mark.parametrize(
    "command, held", [("run", "trace.csv"), ("compare", "trace_hocbf_gamma1.csv")]
)
def test_output_file_held_by_a_directory_exits_1(tmp_path, capsys, command, held):
    """An output file whose path a directory holds ends in one error line
    after the flight, not in an IsADirectoryError traceback."""
    config = _write(tmp_path, HOVER_YAML)
    out = tmp_path / "out"
    (out / held).mkdir(parents=True)
    assert main([command, "--config", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out / held}: Is a directory\n"


def test_reports_are_utf8_under_an_ascii_locale(tmp_path):
    """metrics.txt and compare.txt are UTF-8 whatever the locale: under
    LC_ALL=C, with neither UTF-8 mode nor locale coercion, run and compare
    a scenario named héllo with exit 0. stdout's encoding is the
    terminal's, so it is set to UTF-8 here."""
    text = HOVER_YAML.replace("cli-hover", "héllo")
    config = tmp_path / "scenario.yaml"
    text = text.replace("duration: 0.5", "duration: 0.05")
    config.write_text(text, encoding="utf-8")
    tests = Path(__file__).resolve().parent
    env = {
        **os.environ,
        "PYTHONPATH": str(tests.parent / "src"),
        "PYTHONIOENCODING": "utf-8",
        "PYTHONCOERCECLOCALE": "0",
        "LC_ALL": "C",
    }
    for command, report in (("run", "metrics.txt"), ("compare", "compare.txt")):
        out = tmp_path / command
        argv = [command, "--config", str(config), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "coneguard.cli", *argv],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "scenario: héllo\n" in (out / report).read_text(encoding="utf-8")


def test_run_dt_override_changes_grid(tmp_path):
    config = _write(tmp_path, HOVER_YAML)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), "--dt", "0.01"]) == 0
    trace = parse_trace(out / "trace.csv")
    assert trace.t[1] == pytest.approx(0.01, abs=1e-12)


def test_run_rejects_runaway_step_count(tmp_path, capsys, monkeypatch):
    """--dt 1e-9 asks for 1e10 steps: refused before any step runs."""
    monkeypatch.setattr(harness, "step", None)  # a step taken would raise
    argv = ["run", "--scenario", "static-overtake", "--dt", "1e-9"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "steps" in err
    assert not (tmp_path / "out").exists()


def test_run_uncertified_qp_answer_exits_1(tmp_path, capsys, monkeypatch):
    """An answer the QP cannot certify (here: forged multipliers) ends the
    run with one line and exit code 1, not a traceback."""
    monkeypatch.setattr(qp, "_multipliers", lambda W, step: np.full(W.shape[0], 1e3))
    config = _write(tmp_path, OVERTAKE_YAML)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: step ") and "uncertified" in err


def test_run_unfiltered_collision_exits_2(tmp_path):
    config = _write(tmp_path, COLLIDE_YAML)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2


def test_run_filtered_overtake_exits_0(tmp_path):
    config = _write(tmp_path, OVERTAKE_YAML)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    trace = parse_trace(out / "trace.csv")
    assert trace.separation.min() >= -1e-3


def test_run_filter_override_flag(tmp_path):
    """--filter none on the safe overtake file must reach the collision."""
    config = _write(tmp_path, OVERTAKE_YAML)
    out = tmp_path / "out"
    rc = main(["run", "--config", config, "--out", str(out), "--filter", "none"])
    assert rc == 2
    trace = parse_trace(out / "trace.csv")
    assert trace.separation.min() < 0.0


def test_run_requires_exactly_one_source(tmp_path, capsys):
    config = _write(tmp_path, HOVER_YAML)
    assert main(["run", "--scenario", "static-overtake", "--config", config]) == 1
    assert "exactly one" in capsys.readouterr().err
    assert main(["run", "--out", str(tmp_path)]) == 1


def test_run_unknown_scenario_exits_1(capsys):
    assert main(["run", "--scenario", "warp-drive"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_pair_writes_partner_trace(tmp_path):
    config = _write(tmp_path, PAIR_YAML)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "trace.csv").is_file()
    assert (out / "trace_partner.csv").is_file()


# a hover beside a partner that flies into a sphere, unfiltered: only the
# partner collides
PARTNER_CRASH_YAML = textwrap.dedent(
    """\
    name: cli-partner-crash
    duration: 3.0
    dt: 0.004166666666666667
    initial_state:
      position: [0.0, 0.0, 1.0]
    reference:
      type: hover
      point: [0.0, 0.0, 1.0]
    obstacles:
      - kind: sphere
        center: [2.0, 3.0, 1.0]
        radius_raw: 0.3
    partner:
      initial_state:
        position: [0.0, 3.0, 1.0]
        velocity: [1.0, 0.0, 0.0]
      reference:
        type: line
        start: [0.0, 3.0, 1.0]
        velocity: [1.0, 0.0, 0.0]
    filter: none
    """
)


def test_run_pair_reports_the_partner(tmp_path, capsys):
    """A pair whose partner alone collides exits 2, and metrics.txt and
    stdout show why: the scenario's block, safe, then the partner's, unsafe."""
    config = _write(tmp_path, PARTNER_CRASH_YAML)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    text = (out / "metrics.txt").read_text()
    assert capsys.readouterr().out == text
    first, partner = text.split("\n\n")
    assert first.splitlines()[0] == "scenario: cli-partner-crash"
    assert "success: true" in first.splitlines()
    assert partner.splitlines()[0] == "scenario: cli-partner-crash-partner"
    assert "success: false" in partner.splitlines()
    assert parse_trace(out / "trace_partner.csv").separation.min() < -1e-3


def test_compare_writes_reports(tmp_path, capsys):
    config = _write(tmp_path, COMPARE_YAML)
    out = tmp_path / "out"
    assert main(["compare", "--config", config, "--out", str(out)]) == 0
    for name in (
        "trace_c3bf.csv",
        "trace_hocbf_gamma1.csv",
        "phi_ratio_gamma1.csv",
        "compare.txt",
    ):
        assert (out / name).is_file(), name
    assert "separation_gap" in capsys.readouterr().out


def test_compare_gamma_sweep(tmp_path, capsys):
    config = _write(tmp_path, COMPARE_YAML)
    out = tmp_path / "out"
    assert main(["compare", "--config", config, "--out", str(out), "--sweep-gamma"]) == 0
    for tag in ("0p5", "1", "2"):
        assert (out / f"trace_hocbf_gamma{tag}.csv").is_file()
        assert (out / f"phi_ratio_gamma{tag}.csv").is_file()
    assert capsys.readouterr().out.count("hocbf_gamma:") == 3


def test_compare_pair_phi_ratio_rows_match_header(tmp_path):
    """The partner of a pair gets no phi-ratio column, in the header or the rows."""
    sphere = textwrap.dedent(
        """\
        obstacles:
          - kind: sphere
            center: [1.5, 1.0, 1.0]
            radius_raw: 0.1
        """
    )
    config = _write(tmp_path, PAIR_YAML + sphere)
    out = tmp_path / "out"
    assert main(["compare", "--config", config, "--out", str(out)]) == 0
    for name in ("phi_ratio_gamma1.csv", "phi_ratio_gamma1_partner.csv"):
        header, *rows = (out / name).read_text().splitlines()
        assert header.split(",") == ["t", "phi_ratio_sphere0"]
        assert rows and all(len(row.split(",")) == 2 for row in rows)


# a hover, and a partner hovering 0.1 m from a sphere's centre: only the
# partner is inside an obstacle, under either filter
PARTNER_INSIDE_YAML = textwrap.dedent(
    """\
    name: cli-partner-inside
    duration: 0.5
    dt: 0.004166666666666667
    initial_state:
      position: [0.0, 0.0, 1.0]
    reference:
      type: hover
      point: [0.0, 0.0, 1.0]
    obstacles:
      - kind: sphere
        center: [0.1, 3.0, 1.0]
        radius_raw: 0.3
    partner:
      initial_state:
        position: [0.0, 3.0, 1.0]
      reference:
        type: hover
        point: [0.0, 3.0, 1.0]
    filter: c3bf
    """
)


def test_compare_pair_reports_the_partner(tmp_path, capsys):
    """compare on a pair reports and gates both vehicles: the partner's C3BF
    run is unsafe, so it exits 2, with a partner section and partner files."""
    config = _write(tmp_path, PARTNER_INSIDE_YAML)
    out = tmp_path / "out"
    assert main(["compare", "--config", config, "--out", str(out)]) == 2
    text = (out / "compare.txt").read_text()
    assert capsys.readouterr().out == text
    first, partner = text.split("\n\n")
    assert first.splitlines()[0] == "scenario: cli-partner-inside"
    assert "[a] success: true" in first.splitlines()
    assert partner.splitlines()[0] == "scenario: cli-partner-inside-partner"
    assert "[a] success: false" in partner.splitlines()
    for name in ("trace_hocbf_gamma1_partner.csv", "phi_ratio_gamma1_partner.csv"):
        assert (out / name).is_file(), name
    assert parse_trace(out / "trace_c3bf_partner.csv").separation.min() < -1e-3


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--scenario", "moving-head-on", "--hocbf-gamma", "0"],
        ["run", "--scenario", "static-overtake", "--filter", "hocbf",
         "--hocbf-gamma", "-1"],
    ],
)
def test_invalid_hocbf_gamma_exits_1(tmp_path, capsys, monkeypatch, argv):
    """A bad penalty is refused before any run is flown."""
    monkeypatch.setattr(harness, "_simulate", None)  # a run flown would raise
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "gamma" in err
