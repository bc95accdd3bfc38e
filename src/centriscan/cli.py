"""Command-line entry point.

Exit codes: 0 = no findings at or above the failure threshold, 1 = findings
at or above the threshold, 2 = usage or configuration error. Unreadable
files surface as diagnostics, never as exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import FAIL_THRESHOLDS, UsageError, load_config
from .engine import scan_paths
from .report import meets_threshold, render_report


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centriscan",
        description="Detect centralization-risk patterns in Solidity and TEAL "
                    "smart contracts.",
    )
    parser.add_argument("--version", action="version", version=f"centriscan {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    scan = subparsers.add_parser("scan", help="scan files or directories")
    scan.add_argument("paths", nargs="+", metavar="PATH",
                      help=".sol/.teal files or directories to scan recursively")
    scan.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    scan.add_argument("--config", metavar="FILE", default=None,
                      help="analyzer configuration file")
    scan.add_argument("--fail-on", choices=FAIL_THRESHOLDS, default=None,
                      help="lowest severity that causes exit code 1 "
                           "(default: warning)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_scan(args)
    except UsageError as exc:
        print(f"centriscan: error: {exc}", file=sys.stderr)
        return 2


def _run_scan(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.fail_on is not None:
        config = replace(config, fail_threshold=args.fail_on)
    report = scan_paths(args.paths, config)
    rendered = render_report(report, args.format)
    if rendered:
        print(rendered)
    if args.format == "text":
        for diag in report.diagnostics:
            print(f"{diag.file}:{diag.line}: {diag.severity}: {diag.message}",
                  file=sys.stderr)
    return 1 if meets_threshold(report, config.fail_threshold) else 0


if __name__ == "__main__":
    sys.exit(main())
