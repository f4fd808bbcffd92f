"""Command-line front end.

Exit codes are a contract: 0 safe success, 1 usage/config/solver error,
2 completed run with a safety violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConeguardError, ConfigError
from .harness import FILTER_KINDS, ScenarioConfig, compare, compute_metrics, run_pair
from .records import file_access
from .scenarios import builtin_scenarios, get_scenario, load_scenario
from .traceio import comparison_text, metrics_text, write_phi_ratio, write_trace

SWEEP_GAMMAS = (0.5, 1.0, 2.0)
# the file-name suffix of each vehicle's outputs, in run_pair's order
VEHICLE_SUFFIXES = ("", "_partner")


def _print_error(text: str) -> None:
    """text on one stderr line: a character that is not printable (a line
    break, a NUL, a lone surrogate) is shown as its escape."""
    shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)
    print(shown, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, after a usage block; the CLI contract
    reserves 2 for safety violations and gives an error one line, so a usage
    error prints only its error line and exits 1."""

    def error(self, message):
        _print_error(f"{self.prog}: error: {message}")
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
    p_run.add_argument("--filter", choices=FILTER_KINDS)
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
        raise ConfigError("exactly one of --scenario/--config is required")
    if args.scenario:
        try:
            config = get_scenario(args.scenario)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        config = load_scenario(args.config)
    if args.dt is not None:
        config = replace(config, dt=args.dt)
    return config


def _out_dir(name: str) -> Path:
    """The output directory, made with its parents where they are missing."""
    with file_access(name):
        Path(name).mkdir(parents=True, exist_ok=True)
    return Path(name)


def _report(path: Path, blocks: list[str], metrics) -> int:
    """The blocks, joined by a blank line, to path and stdout; exit code 0
    when every vehicle's run is safe, else 2."""
    text = "\n".join(blocks)
    with file_access(path):
        path.write_text(text, encoding="utf-8", newline="\n")
    sys.stdout.write(text)
    return 0 if all(m.success for m in metrics) else 2


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    if args.filter is not None:
        config = replace(config, filter_kind=args.filter)
    if args.hocbf_gamma is not None:
        config = replace(config, hocbf_gamma=args.hocbf_gamma)
    out = _out_dir(args.out)
    traces = run_pair(config)
    metrics = [compute_metrics(trace) for trace in traces]
    for suffix, trace in zip(VEHICLE_SUFFIXES, traces):
        write_trace(out / f"trace{suffix}.csv", trace)
    blocks = [metrics_text(t.name, config.filter_kind, m) for t, m in zip(traces, metrics)]
    return _report(out / "metrics.txt", blocks, metrics)


def _cmd_compare(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args.out)
    gammas = SWEEP_GAMMAS if args.sweep_gamma else (args.hocbf_gamma,)
    sections = []
    for gamma, reports in zip(gammas, compare(config, gammas)):
        tag = f"{gamma:g}".replace(".", "p")
        for suffix, report in zip(VEHICLE_SUFFIXES, reports):
            write_trace(out / f"trace_hocbf_gamma{tag}{suffix}.csv", report.trace_b)
            write_phi_ratio(out / f"phi_ratio_gamma{tag}{suffix}.csv", report)
            sections.append(comparison_text(report, gamma))
    for suffix, report in zip(VEHICLE_SUFFIXES, reports):
        write_trace(out / f"trace_c3bf{suffix}.csv", report.trace_a)
    return _report(out / "compare.txt", sections, [r.metrics_a for r in reports])


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
        _print_error(f"error: {exc}")
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
