"""Command-line surface.

Subcommands::

    swarmpulse run <scenario-or-config-path> [--seed N] [--out DIR]
    swarmpulse list
    swarmpulse describe <name>
    swarmpulse compare <metrics_a.csv> <metrics_b.csv> --metric <col> --tol <x>

Exit codes: 0 success (compare: deltas within tolerance), 1 comparison
exceeded tolerance, 2 invalid config/arguments (including a trace that
cannot be read as a metrics trace and an output directory that cannot
be written), 3 numeric blow-up.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, parse_config, validate_config
from .engine import NumericBlowup, ScenarioEventError
from .runner import run_config
from .scenarios import SCENARIO_NAMES, UnknownScenario, scenario_text
from .traces import TraceSchemaError, compare_metrics

EXIT_OK = 0
EXIT_COMPARE_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpulse",
        description="Deterministic pulse-coupled swarmalator drone swarm simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a bundled scenario or a config file")
    run_p.add_argument("scenario", help="bundled scenario name or path to a config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory (default: $SWARMPULSE_OUT or ./runs)")

    sub.add_parser("list", help="list bundled scenarios")

    desc_p = sub.add_parser("describe", help="print a bundled scenario's config")
    desc_p.add_argument("name")

    cmp_p = sub.add_parser("compare", help="compare a metric column of two metrics traces")
    cmp_p.add_argument("trace_a")
    cmp_p.add_argument("trace_b")
    cmp_p.add_argument("--metric", required=True)
    cmp_p.add_argument("--tol", type=float, required=True)
    return parser


def _resolve_scenario(arg: str) -> tuple[str, str]:
    """Returns (name, config text) for a bundled name or a file path."""
    path = Path(arg)
    if path.is_file():
        try:
            return path.stem, path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ConfigError([(None, f"{path}: not a UTF-8 text file")]) from None
        except OSError as exc:
            raise ConfigError([(None, f"{path}: cannot read ({exc.strerror})")]) from None
    try:
        return arg, scenario_text(arg)
    except UnknownScenario:
        raise ConfigError(
            [(None, f"{arg!r} is neither a config file nor a bundled scenario")]
        )


def _cmd_run(args) -> int:
    try:
        name, text = _resolve_scenario(args.scenario)
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
            validate_config(cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_config(cfg, name=name, out_dir=args.out, write=True)
    except NumericBlowup as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ScenarioEventError as exc:
        print(f"invalid scenario event: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write traces: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    final = result.summary["final"]
    print(f"scenario {name}: {result.summary['agents_final']} agents, "
          f"t={final['t']:g}, order_param={final['order_param']:.6g}")
    assert result.paths is not None
    print(f"traces written to {result.paths['summary'].parent}")
    return EXIT_OK


def _cmd_list() -> int:
    for name in SCENARIO_NAMES:
        print(name)
    return EXIT_OK


def _cmd_describe(args) -> int:
    try:
        print(scenario_text(args.name), end="")
    except UnknownScenario:
        print(f"unknown scenario {args.name!r}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_compare(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"compare error: --tol must be a finite number >= 0, got {args.tol}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = compare_metrics(
            Path(args.trace_a), Path(args.trace_b), args.metric, args.tol
        )
    except (TraceSchemaError, OSError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.render())
    return EXIT_OK if report.passed else EXIT_COMPARE_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "compare":
        return _cmd_compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
