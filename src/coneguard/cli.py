"""Command-line front end.

Exit codes are a contract: 0 safe success, 1 usage/config/solver error,
2 completed run with a safety violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConeguardError
from .harness import ScenarioConfig, compare, compute_metrics, run, run_pair
from .scenarios import builtin_scenarios, get_scenario
from .traceio import (
    comparison_text,
    load_scenario,
    metrics_text,
    write_phi_ratio,
    write_trace,
)

SWEEP_GAMMAS = (0.5, 1.0, 2.0)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    safety violations, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="coneguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--scenario", help="built-in scenario name")
        p.add_argument("--config", help="scenario YAML file")
        p.add_argument("--dt", type=float, help="override integration step (s)")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_source(p_run)
    p_run.add_argument("--filter", choices=["none", "c3bf", "hocbf"])
    p_run.add_argument("--hocbf-gamma", type=float, help="HO-CBF penalty gamma")

    p_cmp = sub.add_parser("compare", help="run c3bf vs hocbf on one scenario")
    add_source(p_cmp)
    p_cmp.add_argument("--hocbf-gamma", type=float, default=1.0)
    p_cmp.add_argument(
        "--sweep-gamma",
        action="store_true",
        help="compare at gamma in {0.5, 1, 2} instead of a single value",
    )

    sub.add_parser("list-scenarios", help="print built-in scenario names")

    p_val = sub.add_parser("validate-config", help="check a scenario file")
    p_val.add_argument("--config", required=True)
    return parser


def _resolve_config(args) -> ScenarioConfig:
    if bool(args.scenario) == bool(args.config):
        raise ConeguardError("exactly one of --scenario/--config is required")
    if args.scenario:
        try:
            config = get_scenario(args.scenario)
        except KeyError as exc:
            raise ConeguardError(str(exc)) from exc
    else:
        config = load_scenario(args.config)
    if args.dt is not None:
        config = replace(config, dt=args.dt)
    return config


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    if args.filter is not None:
        config = replace(config, filter_kind=args.filter)
    if args.hocbf_gamma is not None:
        config = replace(config, hocbf_gamma=args.hocbf_gamma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if config.partner is not None:
        trace, partner_trace = run_pair(config)
        write_trace(out / "trace_partner.csv", partner_trace)
        ok = compute_metrics(partner_trace).success
    else:
        trace = run(config)
        ok = True
    metrics = compute_metrics(trace)
    write_trace(out / "trace.csv", trace)
    text = metrics_text(config.name, config.filter_kind, metrics)
    (out / "metrics.txt").write_text(text, newline="\n")
    sys.stdout.write(text)
    return 0 if (metrics.success and ok) else 2


def _cmd_compare(args) -> int:
    config = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gammas = SWEEP_GAMMAS if args.sweep_gamma else (args.hocbf_gamma,)
    sections = []
    for gamma, report in zip(gammas, compare(config, gammas)):
        tag = f"{gamma:g}".replace(".", "p")
        write_trace(out / f"trace_hocbf_gamma{tag}.csv", report.trace_b)
        write_phi_ratio(out / f"phi_ratio_gamma{tag}.csv", report)
        sections.append(comparison_text(report, gamma))
    write_trace(out / "trace_c3bf.csv", report.trace_a)
    text = "\n".join(sections)
    (out / "compare.txt").write_text(text, newline="\n")
    sys.stdout.write(text)
    return 0 if report.metrics_a.success else 2


def _cmd_list() -> int:
    for config in builtin_scenarios():
        print(f"{config.name:<16} {config.description}")
    return 0


def _cmd_validate(args) -> int:
    config = load_scenario(args.config)
    print(f"ok: {config.name}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "list-scenarios":
            return _cmd_list()
        if args.command == "validate-config":
            return _cmd_validate(args)
    except ConeguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
