"""Command-line entry point: pinlab run | validate | list-experiments.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import SPECS, ConfigError, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="JSON or key=value config file")
    val_p = sub.add_parser("validate", help="check a config file without running")
    val_p.add_argument("--config", required=True)
    sub.add_parser("list-experiments", help="print the available experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name, spec in SPECS.items():
            print(f"{name}: {spec.description}\n  keys: {' '.join(spec.keys)} seed out_dir")
        return 0
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"ok: {cfg.experiment}")
            return 0
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report.summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
