#!/usr/bin/env python3
"""coneguard benchmark: one workload per invocation, one JSON line at the end.

    python3 perfbench/run.py --workload builtins --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: set-up
time as the median of several fresh processes, then whole passes of the
workload, repeated while another pass still fits in ``--seconds`` (at least
one), with the host's speed sampled during every unit (``hostspeed.py``).
``--trace 1`` runs every unit of one pass twice, untraced and then
traced, and reports the per-layer metrics from the traced runs. ``--seed``
orders the units of a pass; ``--field-seed`` picks the generated fields of
``obstacle-field`` (default 0, held out 7919). Every pass goes through the
correctness gate: each written file's sha256 must match ``digests.json``,
where a file without a recorded digest fails, and every C3BF trace must stay
safe. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60


class _FirstStep(BaseException):
    """Raised by the set-up probe at the first control step."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--field-seed", type=int, default=0,
                        help="generator seed of the obstacle fields (recorded: 0, 7919)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.field_seed < 0:
        parser.error("--seed and --field-seed must be >= 0")
    return args


def _setup_probe(args, out: Path) -> int:
    """Child process: print the monotonic time of the first control step."""
    from coneguard import reference
    from perfbench.workloads import prepare

    def first_step(self, t):
        raise _FirstStep(time.monotonic())

    for cls in (reference.HoverReference, reference.LineReference,
                reference.WaypointReference):
        cls.sample = first_step
    _, execute = prepare(args.workload, args.seed, out, args.field_seed).units[0]
    try:
        execute()
    except _FirstStep as reached:
        print(repr(reached.args[0]))
        return 0
    print("the first unit ran no control step", file=sys.stderr)
    return 1


def _setup_seconds(args) -> list[float]:
    """Process start to first control step, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--field-seed", str(args.field_seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                               timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        samples.append(float(child.stdout.strip().splitlines()[-1]) - start)
    return samples


def _run_unit(label, execute):
    start = time.perf_counter()
    try:
        outcome = execute()
    except Exception as exc:  # a failed unit is counted and reported
        from perfbench.workloads import Outcome

        outcome = Outcome(label, error=f"{type(exc).__name__}: {exc}")
    outcome.seconds = time.perf_counter() - start
    return outcome


def _run_pass(workload, host):
    """Every unit once, sampling the host's speed while it runs; a unit's
    seconds are its own, the reference bursts taken out."""
    outcomes = []
    for label, execute in workload.units:
        sampled = host.seconds
        with host.sampling():
            outcome = _run_unit(label, execute)
        outcome.seconds -= host.seconds - sampled
        _check_quality(outcome)
        outcomes.append(outcome)
    return sum(o.seconds for o in outcomes), outcomes


def _gate(outcomes, expected) -> int:
    """Print one line per unit; return how many failed the gate."""
    failed = 0
    for outcome in outcomes:
        problems = [outcome.error] if outcome.error else []
        for name, digest in outcome.digests.items():
            want = expected.get(name)
            if want is None:
                problems.append(f"{name} has no recorded digest")
            elif want != digest:
                problems.append(f"{name} digest {digest[:12]} != expected {want[:12]}")
        failed += bool(problems)
        status = "FAIL " + "; ".join(problems) if problems else "ok"
        digests = " ".join(f"{n}={d[:12]}" for n, d in outcome.digests.items())
        print(f"  {outcome.label:<18} {outcome.seconds:7.3f} s  steps={outcome.steps:<6} "
              f"{status}  {digests}")
    missing = sorted(set(expected) - {n for o in outcomes for n in o.digests})
    if missing and not failed:
        print(f"  FAIL outputs not written: {', '.join(missing)}")
        failed = 1
    return failed


def _check_quality(outcome) -> None:
    """Reduce the unit's C3BF traces to its safety margin and tracking error
    and let the traces go, so that what earlier units produced does not stay
    alive while later units run; a unit whose trace is unsafe is marked
    failed.

    The margin is the minimum separation plus the violation tolerance: how
    far the closest approach stays from counting as a collision. It is
    positive whenever the gate passes.
    """
    from coneguard.harness import VIOLATION_TOL

    traces, outcome.c3bf = outcome.c3bf, list
    if outcome.error:
        return
    margin = float("inf")
    sq_sum, n = 0.0, 0
    for trace in traces():
        min_sep = float(trace.separation.min())
        if min_sep < -VIOLATION_TOL:
            outcome.error = f"{trace.name} unsafe: min separation {min_sep:.3e} m"
        margin = min(margin, min_sep + VIOLATION_TOL)
        err = trace.states[:, 0:3] - trace.ref_positions
        sq_sum += float((err * err).sum())
        n += trace.t.shape[0]
    outcome.quality = (margin, sq_sum, n)


def _quality(outcomes) -> tuple[float, float]:
    """Safety margin and pooled tracking RMS over the checked units."""
    checked = [o.quality for o in outcomes if o.quality is not None]
    margin = min((q[0] for q in checked), default=float("inf"))
    n = sum(q[2] for q in checked)
    return margin, (sum(q[1] for q in checked) / n) ** 0.5 if n else float("nan")


def _end_to_end(args, workload):
    from perfbench.hostspeed import HostSpeed

    setup = _setup_seconds(args)
    host = HostSpeed()
    walls, steps, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        wall, outcomes = _run_pass(workload, host)
        print(f"pass {len(walls) + 1}: {wall:.3f} s of units")
        if not walls:
            margin, rms = _quality(outcomes)
        attempted += len(outcomes)
        failed += _gate(outcomes, workload.expected)
        walls.append(wall)
        steps.append(sum(o.steps for o in outcomes))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "steps_per_ref_s": sum(steps) / host.reference_seconds(sum(walls)),
        "peak_rss_mb": peak_rss_mb,
        "safety_margin_m": margin,
        "tracking_rms_m": rms,
        "pass_ratio": (attempted - failed) / attempted,
    }
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"{sum(steps) / sum(walls):.3f} steps per host second; reference kernel "
          f"{host.batches / host.seconds:.1f} batches/s over {host.seconds:.3f} s")
    return attempted, failed, metrics


def _per_layer(workload):
    """Each unit untraced, then traced; per-layer metrics from the traced runs.

    Interleaving keeps each traced run next to its untraced twin, so the
    overhead ratio is not skewed by the host's speed drifting over a pass.
    """
    from perfbench.tracing import Tracer, layer_metrics, self_times

    tracer = Tracer()
    untraced, traced = [], []
    for label, execute in workload.units:
        untraced.append(_run_unit(label, execute))
        _check_quality(untraced[-1])
        with tracer.installed(), tracer.span("bench.unit"):
            traced.append(_run_unit(label, execute))
    print("untraced:")
    failed = _gate(untraced, workload.expected)
    print(f"traced ({len(tracer.spans)} spans):")
    failed += _gate(traced, workload.expected)
    traced_s = sum(o.seconds for o in traced)
    overhead = statistics.median(t.seconds / u.seconds for t, u in zip(traced, untraced))
    metrics = layer_metrics(tracer, traced_s, overhead)
    print("self time by span (s, share of traced time):")
    for name, seconds in sorted(self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {seconds:9.4f} {seconds / traced_s:7.2%}")
    return len(untraced) + len(traced), failed, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads; children inherit it
    if not (ROOT / "src" / "coneguard" / "__init__.py").is_file():
        print(f"no coneguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            return _setup_probe(args, out)
        workload = prepare(args.workload, args.seed, out, args.field_seed)
        if args.trace:
            attempted, failed, values = _per_layer(workload)
        else:
            attempted, failed, values = _end_to_end(args, workload)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a value that could not be measured (no unit passed) is null
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
            for k, v in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
