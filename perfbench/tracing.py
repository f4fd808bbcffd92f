"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces, while a traced unit runs, the module-level
names that ``coneguard.harness`` calls into (and the reference ``sample``
methods, the recorder's ``add`` and the CLI's writers) with wrappers that
record one span per call: name, start, end, parent span and run id. Spans
stay in memory; the metrics are computed from them after the runs, so the
bookkeeping does not land inside any span. Nothing inside the package is
edited.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from math import comb
from time import perf_counter_ns

import numpy as np

# Spans that contain layer spans rather than being a layer themselves: the
# benchmark's traced unit, and the runs it starts.
ROOTS = ("bench.unit", "harness.run", "harness.run_pair")
BARRIERS = ("cone.barrier_3d", "cone.barrier_projection")
FILTER_SPANS = BARRIERS + ("hocbf.barrier_ho", "harness.separation_distance", "qp.solve")
WRITERS = ("traceio.write_trace", "traceio.write_phi_ratio")
MAX_SUBSET = 4  # qp._feasible_start projects onto row subsets of size <= 4


class Tracer:
    """In-memory span recorder for the traced runs of one invocation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run]
        self.kept: list[tuple] = []  # (span index, args, result), read later
        self.run_dt: list[float] = []  # control period of each run id
        self._stack = [-1]
        self._run = -1

    def wrap(self, name, fn, keep=False, root=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if root:
                outer_run = self._run
                self._run = len(self.run_dt)
                self.run_dt.append(float(args[0].dt))
            idx = len(spans)
            span = [name, 0, 0, stack[-1], self._run]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                if root:
                    self._run = outer_run
            if keep:
                self.kept.append((idx, args, result))
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a traced unit."""
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1], self._run]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter_ns()
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap the package's layer boundaries; restore them on exit."""
        from coneguard import cli, harness, reference, traceio

        targets = [
            (harness, "run", "harness.run", False, True),
            (harness, "run_pair", "harness.run_pair", False, True),
            (harness, "track", "tracking.track", False, False),
            (harness, "barrier_3d", "cone.barrier_3d", False, False),
            (harness, "barrier_projection", "cone.barrier_projection", False, False),
            (harness, "barrier_ho", "hocbf.barrier_ho", False, False),
            (harness, "separation_distance", "harness.separation_distance", False, False),
            (harness, "solve", "qp.solve", True, False),
            (harness, "step", "dynamics.step", False, False),
            (harness, "_phi_ratio", "harness.phi_ratio", False, False),
            (harness._Recorder, "add", "harness.record", False, False),
            (reference.HoverReference, "sample", "reference.sample", False, False),
            (reference.LineReference, "sample", "reference.sample", False, False),
            (reference.WaypointReference, "sample", "reference.sample", False, False),
            (traceio, "write_trace", "traceio.write_trace", True, False),
            (cli, "write_trace", "traceio.write_trace", True, False),
            (cli, "write_phi_ratio", "traceio.write_phi_ratio", True, False),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
        try:
            for owner, attr, name, keep, root in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], keep, root))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _mean_us(durations) -> float:
    return float(np.mean(durations)) / 1e3 if len(durations) else 0.0


def _percentile_us(durations, q) -> float:
    if not len(durations):
        return 0.0
    return float(np.percentile(durations, q, method="inverted_cdf")) / 1e3


def _qp_counts(problem, solution, feas_tol) -> tuple[int, bool, int, int]:
    """Rows, feasible-start path taken, subsets it visits, active rows."""
    m = len(problem.constraints)
    if m == 0:
        return 0, False, 0, 0
    A = np.array([c.gradient_row for c in problem.constraints])
    b = np.array([c.offset for c in problem.constraints])
    infeasible_start = bool(np.min(A @ problem.u_des + b) < -feas_tol)
    subsets = (
        sum(comb(m, k) for k in range(1, min(MAX_SUBSET, m) + 1))
        if infeasible_start
        else 0
    )
    return m, infeasible_start, subsets, len(solution.active_set)


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
    return totals


def layer_metrics(tracer: Tracer, traced_s: float, overhead: float) -> dict[str, float]:
    """Per-layer metrics of the traced runs, which took ``traced_s`` in all
    and ``overhead`` times as long as their untraced twins."""
    from coneguard.qp import FEAS_TOL

    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for name, start, end, _, _ in spans:
        by_name.setdefault(name, []).append(end - start)

    def durations(*names):
        return [d for n in names for d in by_name.get(n, ())]

    barrier = durations(*BARRIERS)
    solves = durations("qp.solve")

    counts = [
        _qp_counts(args[0], result, FEAS_TOL)
        for idx, args, result in tracer.kept
        if spans[idx][0] == "qp.solve"
    ]
    n_solves = max(len(counts), 1)

    rows = written = 0
    for idx, args, _ in tracer.kept:
        name = spans[idx][0]
        if name not in WRITERS:
            continue
        if name == "traceio.write_phi_ratio" and args[1].phi_ratio is None:
            continue  # nothing was written
        rows += args[1].t.shape[0]
        written += os.path.getsize(args[0])
    write_ns = sum(durations(*WRITERS))

    # Filter time of a control step: barrier/separation rows plus the QP,
    # grouped between consecutive reference samples of the same run.
    steps: list[list] = []  # [run, filter_ns]
    current: dict[int, list] = {}
    for name, start, end, _, run in spans:
        if name == "reference.sample":
            current[run] = [run, 0]
            steps.append(current[run])
        elif name in FILTER_SPANS and run in current:
            current[run][1] += end - start
    filter_ns = [ns for _, ns in steps]
    over = sum(1 for run, ns in steps if ns > tracer.run_dt[run] * 1e9)

    covered = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name not in ROOTS and (parent < 0 or spans[parent][0] in ROOTS)
    )

    return {
        "cone.barrier_us": _mean_us(barrier),
        "cone.evals_per_s": len(barrier) / (sum(barrier) / 1e9) if barrier else 0.0,
        "harness.separation_us": _mean_us(durations("harness.separation_distance")),
        "qp.solve_us_p50": _percentile_us(solves, 50),
        "qp.solve_us_p99": _percentile_us(solves, 99),
        "qp.rows_per_solve": sum(c[0] for c in counts) / n_solves,
        "qp.intervene_ratio": sum(1 for c in counts if c[3]) / n_solves,
        "qp.feasible_start_ratio": sum(1 for c in counts if c[1]) / n_solves,
        "qp.subsets_per_solve": sum(c[2] for c in counts) / n_solves,
        "qp.active_per_solve": sum(c[3] for c in counts) / n_solves,
        "dynamics.rk4_us": _mean_us(durations("dynamics.step")),
        "tracking.track_us": _mean_us(durations("tracking.track")),
        "reference.sample_us": _mean_us(durations("reference.sample")),
        "harness.record_us": _mean_us(durations("harness.record")),
        "hocbf.barrier_us": _mean_us(durations("hocbf.barrier_ho")),
        "harness.phi_ratio_s": sum(durations("harness.phi_ratio")) / 1e9,
        "traceio.write_us_per_row": write_ns / 1e3 / rows if rows else 0.0,
        "traceio.bytes_written": float(written),
        "filter.step_us_p50": _percentile_us(filter_ns, 50),
        "filter.step_us_p99": _percentile_us(filter_ns, 99),
        "filter.over_budget_ratio": over / len(steps) if steps else 0.0,
        "trace.overhead": overhead,
        "trace.coverage": covered / 1e9 / traced_s,
    }
