"""Command-line entry point: ``frpsim <subcommand> --config <path>``."""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, ExperimentConfig, StageError, run_pipeline

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
        p.add_argument("--policy", choices=["proxy", "datadriven", "both"],
                       default=None, help="override policy selection")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--force", action="store_true",
                       help="recompute artifacts even if they exist")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    if args.policy is not None:
        cfg.policy = args.policy
    if args.out is not None:
        cfg.output_dir = args.out
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
