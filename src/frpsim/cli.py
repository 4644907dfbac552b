"""Command-line entry point: ``frpsim <subcommand> --config <path>``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .pipeline import POLICIES, STAGES, ExperimentConfig, StageError, run_pipeline

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frpsim",
        description="Compare proxy and data-driven ramping-product policies "
                    "through a rolling real-time market simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "all"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all"
                           else "run every stage in order")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--policy", choices=POLICIES,
                       default=None, help="override policy selection")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--force", action="store_true",
                       help="recompute artifacts even if they exist")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "policy": args.policy, "output_dir": args.out}
    try:
        # replace() checks the overridden config as the constructor does
        cfg = replace(ExperimentConfig.from_json(args.config),
                      **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run_pipeline(cfg, stages=STAGES if args.command == "all" else [args.command],
                     force=args.force)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
