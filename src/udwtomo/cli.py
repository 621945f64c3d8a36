"""Command-line interface: run and validate scenario configs.

Exit codes: 0 success, 2 config error (including an output directory that
cannot be created, or an output file in it that cannot be opened or
written), 3 numerical failure.  Only ``run`` imports the scenario
runners (and numpy); ``validate``, ``list-scenarios`` and ``--help`` load the
standard library alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, UdwTomoError
from .config import list_scenarios, validate_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    if not isinstance(raw, dict):  # left for validate_config to reject
        return raw
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.enable_quadrature_columns:
        raw["enable_quadrature_columns"] = True
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udwtomo",
        description="Detector-lattice simulation and field-correlator reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    val_p = sub.add_parser("validate", help="check a scenario config without running it")
    val_p.add_argument("config", help="path to a JSON scenario config")
    sub.add_parser("list-scenarios", help="list available scenario ids")

    for p in (run_p, val_p):
        p.add_argument("--out", metavar="DIR", default=None,
                       help="override the config's output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed")
        p.add_argument("--enable-quadrature-columns", action="store_true",
                       help="include the expensive quadrature cross-check columns")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for sid, desc in list_scenarios():
            print(f"{sid:24s} {desc}")
        return EXIT_OK
    try:
        raw = _apply_overrides(_load_config(args.config), args)
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print(f"config OK: scenario {cfg.scenario_id!r}, output -> {cfg.output_dir}")
        return EXIT_OK
    from .scenarios import run
    try:
        paths = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UdwTomoError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
