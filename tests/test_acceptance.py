"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each criterion is one test that prints a single [PASS]/[FAIL] line with the
measured numbers (visible under ``pytest -s`` or in a failure report) and
then asserts. Tolerances live here, next to the checks, not in the library.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    hover_scenario,
    hover_thrust,
    line_tracking_scenario,
    random_cylinder,
    random_sphere,
    random_state,
    random_thrusts,
)
from coneguard.cone import (
    BodyFrame,
    Obstacle,
    barrier_3d,
    barrier_ho,
    barrier_projection,
    contract,
    encompassing_radius,
    inflated_radius,
)
from coneguard.dynamics import QuadrotorParams
from coneguard.harness import VIOLATION_TOL, compute_metrics, run, run_pair
from coneguard.qp import QpProblem, solve
from coneguard.scenarios import builtin_scenarios, get_scenario
from coneguard.traceio import parse_trace, write_trace

PARAMS = QuadrotorParams()
kappa = 1.0
# sha256 of the write_trace output of every built-in run and of the
# moving-head-on HO-CBF runs, as recorded for the benchmark's gate
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _trace_digest(trace, path) -> str:
    write_trace(path, trace)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c01_builtins_safe_and_fast(builtin_flights):
    """All built-ins: separation >= -1e-3 everywhere, h stays >= -1e-6 for
    any obstacle that starts outside its cone, and each 10 s run at
    dt = 1/240 simulates in under 10 s of wall time.

    Every built-in deliberately starts with h(0) < 0 (the unfiltered twin
    must collide), which would make the invariance clause vacuous, so it is
    also checked in its strong form: once h crosses >= 0 it never falls
    below -1e-6 again. That form only holds where the constant-velocity
    obstacle model is exact, so the two-agent runs (the partner accelerates)
    are covered by the separation clause alone."""
    worst_sep = np.inf
    safe_start_channels = 0
    worst_suffix = np.inf
    max_wall = 0.0
    ok = True
    for name, (config, traces, wall) in builtin_flights.runs.items():
        max_wall = max(max_wall, wall)
        ok = ok and wall <= 10.0
        for trace in traces:
            worst_sep = min(worst_sep, float(trace.separation.min()))
            ok = ok and trace.separation.min() >= -1e-3
            for j in range(trace.h.shape[1]):
                if trace.h[0, j] >= 0.0:
                    safe_start_channels += 1
                    ok = ok and trace.h[:, j].min() >= -1e-6
                if name == "two-agent":
                    continue
                nonneg = np.flatnonzero(trace.h[:, j] >= 0.0)
                if nonneg.size:
                    low = float(trace.h[nonneg[0]:, j].min())
                    worst_suffix = min(worst_suffix, low)
                    ok = ok and low >= -1e-6
    detail = (
        f"min_sep={worst_sep:+.6f} (>=-1e-3), "
        f"h(0)>=0 on {safe_start_channels} channels (clause vacuous), "
        f"min h after first crossing >= 0: {worst_suffix:+.2e} (>=-1e-6), "
        f"max_wall={max_wall:.1f}s (<=10s)"
    )
    _verdict("c01 builtin safety", ok, detail)


@pytest.mark.parametrize("rate", [50, 100])
def test_builtins_safe_at_coarser_control_rates(rate):
    """Every built-in, both vehicles of two-agent included, flown under C3BF
    at dt = 1/rate: no run aborts, every trace's separation stays >= -1e-3
    (c01's gate), and every rotor's u* stays within [0.85, 1.15] x hover.
    Measured: worst separation +2.42e-3 m at 1/50 and +4.26e-4 m at 1/100
    (both moving-head-on), u* within [0.918, 1.097] and [0.924, 1.097] x
    hover. c01 flies dt = 1/240; the CI sweep adds 1/500 and HO-CBF."""
    worst_sep, low, high = np.inf, np.inf, -np.inf
    for config in builtin_scenarios():
        assert config.filter_kind == "c3bf", config.name
        for trace in run_pair(replace(config, dt=1.0 / rate)):
            worst_sep = min(worst_sep, float(trace.separation.min()))
            u = trace.u_star / hover_thrust(config.params)
            low, high = min(low, float(u.min())), max(high, float(u.max()))
    ok = worst_sep >= -1e-3 and 0.85 <= low and high <= 1.15
    detail = f"min_sep={worst_sep:+.3e} (>=-1e-3), u*/hover in [{low:.3f}, {high:.3f}]"
    _verdict(f"builtins at dt=1/{rate}", ok, detail)


def test_c02_unfiltered_baselines_collide():
    """With the filter off, the overtake and head-on scenarios must reach
    negative separation; otherwise the filtered runs prove nothing."""
    seps = {}
    for name in ("static-overtake", "moving-head-on"):
        config = replace(get_scenario(name), filter_kind="none")
        seps[name] = compute_metrics(run(config)).min_separation
    ok = all(v < 0.0 for v in seps.values())
    detail = ", ".join(f"{k}: min_sep={v:+.6f} (<0)" for k, v in seps.items())
    _verdict("c02 unfiltered collide", ok, detail)


def _fd_worst(rng, n, make_obstacle, barrier, oracle_kwargs, reject):
    """Worst relative |fd - (drift + row.f)| over n accepted random states."""
    worst = 0.0
    checked = 0
    while checked < n:
        state = random_state(rng)
        obs = make_obstacle(rng)
        t = float(rng.uniform(0, 2))
        r, kwargs = oracle_kwargs(obs)
        p, _ = oracles.relative_state(state.as_vector(), obs.center, obs.velocity, t)
        if reject(p, r):
            continue
        f = random_thrusts(rng, PARAMS)
        frame = BodyFrame(state, PARAMS)
        terms, (input_row, _) = barrier(frame, obs, t)
        fd = oracles.fd_hdot(
            state.as_vector(), f, obs.center, obs.velocity, r, t, **kwargs
        )
        analytic = contract(frame, terms, "")[0] + float(input_row @ f)
        worst = max(worst, abs(fd - analytic) / max(1.0, abs(fd)))
        checked += 1
    return worst


def test_c03_barrier_derivatives_match_finite_differences():
    """1000 random states per barrier variant: the affine model
    drift + row.u matches a central-difference dh/dt along the true flow
    to 1e-4 relative. States closer than 0.01 m to the surface are
    resampled (the clamped sqrt is not differentiable there)."""
    tol = 1e-4
    variants = {
        "cone-sphere": _fd_worst(
            np.random.default_rng(301),
            1000,
            random_sphere,
            lambda frame, o, t: barrier_3d(frame, o, PARAMS, kappa, t),
            lambda o: (inflated_radius(o, PARAMS.body_width), {"variant": "sphere"}),
            lambda p, r: np.linalg.norm(p) < r + 0.01,
        ),
        "cone-cylinder": _fd_worst(
            np.random.default_rng(302),
            1000,
            random_cylinder,
            lambda frame, o, t: barrier_projection(frame, o, PARAMS, kappa, t),
            lambda o: (
                inflated_radius(o, PARAMS.body_width),
                {"variant": "cylinder", "axis": (0.0, 0.0, 1.0)},
            ),
            lambda p, r: np.linalg.norm(p[:2]) < r + 0.01,
        ),
        "ho": _fd_worst(
            np.random.default_rng(303),
            1000,
            random_sphere,
            lambda frame, o, t: barrier_ho(
                frame, o, PARAMS, kappa, 1.0, t
            ),
            lambda o: (
                encompassing_radius(o) + 0.5 * PARAMS.body_width,
                {"variant": "ho", "gamma": 1.0},
            ),
            lambda p, r: np.linalg.norm(p) < r + 0.01,
        ),
    }
    ok = all(v <= tol for v in variants.values())
    detail = ", ".join(f"{k}: worst={v:.2e} (<=1e-4)" for k, v in variants.items())
    _verdict("c03 derivative rows", ok, detail)


def test_c04_input_row_never_vanishes():
    """1e5 random states per cone variant with |roll|, |pitch| < 1 rad and
    at least 0.01 m of clearance: the QP input row always has norm > 1e-8,
    so the filter never loses authority over the barrier. Each row also
    meets the per-state bound of ``cone``'s lemma, ||input_row|| >=
    sigma_min ||w|| with sigma_min = min(sqrt(2) a, sqrt(2) b, 2/m), to
    the 8 eps that test_cone's norm-bound property allows."""
    rng = np.random.default_rng(304)
    lever = PARAMS.center_offset * PARAMS.arm_span
    ixx, iyy, _ = PARAMS.inertia_diag
    sigma_min = min(np.sqrt(2) * lever / ixx, np.sqrt(2) * lever / iyy, 2 / PARAMS.mass)
    floor = 1.0 - 8.0 * float(np.finfo(float).eps)
    mins = {"cone-sphere": np.inf, "cone-cylinder": np.inf}
    n = 100_000
    checked = 0
    while checked < n:
        state = random_state(rng)  # roll, pitch drawn inside (-1, 1)
        sphere = random_sphere(rng)
        cylinder = random_cylinder(rng)
        t = float(rng.uniform(0, 2))
        frame = BodyFrame(state, PARAMS)
        p_s, _ = frame.relative(sphere, t)
        r_s = inflated_radius(sphere, PARAMS.body_width)
        p_c, _ = frame.relative(cylinder, t)
        r_c = inflated_radius(cylinder, PARAMS.body_width)
        if np.linalg.norm(p_s) < r_s + 0.01 or np.linalg.norm(p_c[:2]) < r_c + 0.01:
            continue
        rows = {
            "cone-sphere": barrier_3d(frame, sphere, PARAMS, kappa, t),
            "cone-cylinder": barrier_projection(frame, cylinder, PARAMS, kappa, t),
        }
        for name, (terms, (row, _)) in rows.items():
            norm = np.linalg.norm(row)
            mins[name] = min(mins[name], norm)
            ratio = norm / (sigma_min * np.linalg.norm(terms.w))
            assert ratio >= floor, (name, ratio, state, t)
        checked += 1
    ok = all(v > 1e-8 for v in mins.values())
    detail = ", ".join(f"{k}: min_row_norm={v:.2e} (>1e-8)" for k, v in mins.items())
    _verdict("c04 gradient floor", ok, detail)


def test_c05_qp_solver_vs_dual_oracle():
    """1000 random feasible instances with 1-3 constraints: the active-set
    answer matches an accelerated dual projected-gradient oracle to 1e-3,
    satisfies stationarity to 1e-8, has nonnegative multipliers, and
    complementary slackness to 1e-8. 1000 single-constraint instances match
    the closed form to 1e-12."""
    rng = np.random.default_rng(305)
    worst_gap = 0.0
    worst_stat = 0.0
    worst_slack = 0.0
    lam_min = np.inf
    for m in (1, 2, 3):
        count = 334 if m == 1 else 333
        u_all = np.empty((count, 4))
        a_all = np.empty((count, m, 4))
        b_all = np.empty((count, m))
        sols = []
        for i in range(count):
            a_all[i] = rng.normal(size=(m, 4))
            z = rng.normal(size=4)
            b_all[i] = rng.uniform(0.0, 2.0, m) - a_all[i] @ z
            u_all[i] = rng.normal(size=4)
            labels = tuple(f"c{j}" for j in range(m))
            sol = solve(QpProblem(u_all[i], a_all[i], b_all[i], labels))
            sols.append(sol)
            lam_full = np.zeros(m)
            for label, lam in zip(sol.active_set, sol.multipliers):
                lam_full[int(label[1:])] = lam
            lam_min = min(lam_min, float(lam_full.min(initial=np.inf)))
            stationarity = sol.u_star - u_all[i] - a_all[i].T @ lam_full
            worst_stat = max(worst_stat, float(np.linalg.norm(stationarity)))
            slack = a_all[i] @ sol.u_star + b_all[i]
            worst_slack = max(worst_slack, float(np.max(np.abs(lam_full * slack))))
        oracle = oracles.qp_dual_batch(u_all, a_all, b_all, iters=20_000)
        for i, sol in enumerate(sols):
            worst_gap = max(worst_gap, float(np.linalg.norm(sol.u_star - oracle[i])))
    worst_closed = 0.0
    for _ in range(1000):
        a = rng.normal(size=4)
        z = rng.normal(size=4)
        b = float(rng.uniform(0.0, 2.0) - a @ z)
        u_des = rng.normal(size=4)
        single = oracles.solve_single(u_des, a, b)
        general = solve(QpProblem(u_des, [a], [b], ("c0",)))
        worst_closed = max(
            worst_closed, float(np.linalg.norm(single - general.u_star))
        )
    ok = (
        worst_gap <= 1e-3
        and worst_stat <= 1e-8
        and lam_min >= 0.0
        and worst_slack <= 1e-8
        and worst_closed <= 1e-12
    )
    detail = (
        f"|u*-oracle|={worst_gap:.2e} (<=1e-3), "
        f"stationarity={worst_stat:.2e} (<=1e-8), "
        f"min_multiplier={lam_min:.2e} (>=0), "
        f"comp_slack={worst_slack:.2e} (<=1e-8), "
        f"closed_vs_general={worst_closed:.2e} (<=1e-12)"
    )
    _verdict("c05 qp oracle", ok, detail)


def test_c06_speed_matched_penalty_recovers_cone():
    """1e4 random sphere encounters: with gamma set to ||v_rel|| the HO
    barrier equals the cone barrier to 1e-12; with a drawn constant
    gamma < ||v_rel|| the effective cone is strictly wider, and on
    approaching states the HO value is strictly below the cone value."""
    rng = np.random.default_rng(306)
    worst_eq = 0.0
    widened = 0
    below = 0
    approaching = 0
    checked = 0
    ok = True
    while checked < 10_000:
        state = random_state(rng)
        obs = random_sphere(rng)
        t = float(rng.uniform(0, 2))
        frame = BodyFrame(state, PARAMS)
        p_rel, v_rel = frame.relative(obs, t)
        r = inflated_radius(obs, PARAMS.body_width)
        p_norm = float(np.linalg.norm(p_rel))
        v_norm = float(np.linalg.norm(v_rel))
        if p_norm < r + 0.01 or v_norm < 1e-3:
            continue
        cone, _ = barrier_3d(frame, obs, PARAMS, kappa, t)
        matched, _ = barrier_ho(
            frame, obs, PARAMS, kappa, v_norm, t
        )
        worst_eq = max(worst_eq, abs(matched.h - cone.h))
        gamma = float(rng.uniform(0.1, 3.0))
        if v_norm > gamma:
            phi_eff = oracles.effective_half_angle(v_norm, p_norm, r, gamma)
            ok = ok and phi_eff > cone.phi
            widened += 1
            if float(p_rel @ v_rel) < 0.0:
                approaching += 1
                ho, _ = barrier_ho(
                    frame, obs, PARAMS, kappa, gamma, t
                )
                ok = ok and ho.h < cone.h
                below += 1 if ho.h < cone.h else 0
        checked += 1
    ok = ok and worst_eq <= 1e-12 and widened > 1000 and approaching > 500
    detail = (
        f"|h_ho(gamma=|v|) - h_cone|={worst_eq:.2e} (<=1e-12), "
        f"cone strictly wider on all {widened} samples with gamma<|v_rel|, "
        f"h strictly below on all {below} approaching ones"
    )
    _verdict("c06 penalty matching", ok, detail)


def test_c07_ho_baseline_more_conservative(builtin_flights, tmp_path):
    """Head-on moving obstacle: the HO filter at gamma = 1 ends up strictly
    closer to the obstacle than the cone filter, and the |gap| between the
    two shrinks monotonically as gamma grows through {0.5, 1, 2}. Each HO
    trace file is byte-identical to the recorded compare-cli one."""
    config, traces, _ = builtin_flights.runs["moving-head-on"]
    cone_sep = compute_metrics(traces[0]).min_separation
    ho_sep = {}
    moved = []
    for gamma in (0.5, 1.0, 2.0):
        ho_config = replace(
            config, filter_kind="hocbf", hocbf_gamma=gamma
        )
        ho_trace = run(ho_config)
        ho_sep[gamma] = compute_metrics(ho_trace).min_separation
        name = "trace_hocbf_gamma{}.csv".format(f"{gamma:g}".replace(".", "p"))
        if _trace_digest(ho_trace, tmp_path / name) != DIGESTS["compare-cli"][name]:
            moved.append(name)
    gaps = [abs(cone_sep - ho_sep[g]) for g in (0.5, 1.0, 2.0)]
    ok = ho_sep[1.0] < cone_sep and gaps[0] > gaps[1] > gaps[2] and not moved
    detail = (
        f"cone={cone_sep:+.6f}, "
        + ", ".join(f"ho(g={g:g})={ho_sep[g]:+.6f}" for g in (0.5, 1.0, 2.0))
        + f", gaps={gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}"
        + f", digests moved: {moved or 'none'}"
    )
    _verdict("c07 ho conservatism", ok, detail)


def test_c08_tracking_quality_unfiltered():
    """Controller alone: a 10 cm hover offset decays below 1 cm for all
    t >= 2 s, and straight-line tracking at 1 m/s stays under 5 cm RMS."""
    hover = run(hover_scenario())
    err = np.linalg.norm(hover.states[:, :3] - np.array([0.0, 0.0, 1.0]), axis=1)
    settled = float(err[hover.t >= 2.0 - 1e-9].max())
    line = run(line_tracking_scenario())
    rms = compute_metrics(line).tracking_rms
    ok = settled <= 0.01 and rms < 0.05
    detail = f"hover_err_after_2s={settled:.4f}m (<=0.01), line_rms={rms:.2e}m (<0.05)"
    _verdict("c08 tracking", ok, detail)


def test_c09_projection_ignores_axis_direction(builtin_flights):
    """Vertical-cylinder runs are invariant (to 1e-9 in the h trace) under
    any change of the obstacle's position and velocity along its own axis:
    the projected barrier must not see the axial direction at all."""
    config, traces, _ = builtin_flights.runs["cylinder-side"]
    base = traces[0]
    worst = 0.0
    for dz, vz in ((0.7, 0.4), (-1.3, -2.0)):
        obs = config.obstacles[0]
        center = (obs.center[0], obs.center[1], obs.center[2] + dz)
        shifted = Obstacle(
            kind=obs.kind,
            center=center,
            radius_raw=obs.radius_raw,
            velocity=(0.0, 0.0, vz),
            axis=(0.0, 0.0, 1.0),
            height=obs.height,
        )
        variant = run(replace(config, obstacles=(shifted,)))
        worst = max(worst, float(np.max(np.abs(variant.h - base.h))))
    ok = worst <= 1e-9
    _verdict(
        "c09 axis invariance", ok, f"max |h - h_shifted|={worst:.2e} (<=1e-9)"
    )


def test_c10_deterministic_and_round_trip(builtin_flights, tmp_path):
    """The same config byte-for-byte reproduces its trace file, parsing
    a written trace returns exactly the recorded arrays, and every built-in
    trace file (partner included) is byte-identical to the recorded one."""
    _, traces, _ = builtin_flights.runs["static-overtake"]
    again = run(get_scenario("static-overtake"))
    path_a = tmp_path / "static-overtake.csv"
    path_b = tmp_path / "again.csv"
    write_trace(path_a, traces[0])
    write_trace(path_b, again)
    identical = path_a.read_bytes() == path_b.read_bytes()
    parsed = parse_trace(path_a)
    fields = ("t", "states", "u_des", "u_star", "h", "separation")
    exact = all(
        np.array_equal(getattr(parsed, f), getattr(traces[0], f)) for f in fields
    )
    exact = exact and np.array_equal(
        parsed.separation < -VIOLATION_TOL, traces[0].separation < -VIOLATION_TOL
    )
    exact = exact and parsed.obstacle_labels == traces[0].obstacle_labels
    moved = [
        trace.name
        for _, runs, _ in builtin_flights.runs.values()
        for trace in runs
        if _trace_digest(trace, tmp_path / f"{trace.name}.csv")
        != DIGESTS["builtins"][trace.name]
    ]
    checked = sum(len(runs) for _, runs, _ in builtin_flights.runs.values())
    ok = identical and exact and not moved
    detail = (
        f"byte_identical={identical}, parse_round_trip_exact={exact}, "
        f"digests moved: {moved or 'none'} of {checked}"
    )
    _verdict("c10 determinism", ok, detail)
