"""Command-line interface for the experiment harness.

Subcommands: generate, run, run-baselines, report, sweep. Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    HarnessError,
    cmd_generate,
    cmd_report,
    cmd_run,
    cmd_run_baselines,
    cmd_sweep,
    load_config,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument(
            "--task", action="append",
            help="restrict to a task id (repeatable)",
        )
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: evaluation is serial")

    for name in ("generate", "run", "run-baselines", "sweep"):
        add_common(sub.add_parser(name))
    sub.choices["sweep"].add_argument(
        "--seeds", type=int, default=10, help="number of master seeds"
    )
    report = sub.add_parser("report")
    report.add_argument("--out", required=True, help="results directory")
    report.add_argument("--task", action="append")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            print(cmd_report(args.out, tasks=args.task), end="")
            return EXIT_OK
        cfg = load_config(
            path=args.config, master_seed=args.seed, out_dir=args.out
        )
        if args.command == "generate":
            for path in cmd_generate(cfg):
                print(path)
        elif args.command == "run":
            cmd_run(cfg, tasks=args.task)
            print(cmd_report(cfg.out_dir, tasks=None), end="")
        elif args.command == "run-baselines":
            cmd_run_baselines(cfg, tasks=args.task)
        elif args.command == "sweep":
            print(cmd_sweep(cfg, args.seeds, tasks=args.task))
        return EXIT_OK
    except (HarnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
