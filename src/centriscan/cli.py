"""Command-line entry point.

Exit codes: 0 = no findings at or above the failure threshold, 1 = findings
at or above the threshold, 2 = usage or configuration error. Unreadable
files surface as diagnostics, never as exit 2.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import FAIL_THRESHOLDS, UsageError, load_config
from .engine import scan_paths
from .report import meets_threshold, render_chunks

_WRITE_SIZE = 1 << 15


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
        config = config._replace(fail_threshold=args.fail_on)
    report = scan_paths(args.paths, config)
    # Written as rendered, so the process never holds the whole document,
    # in pieces of about _WRITE_SIZE characters: with PYTHONUNBUFFERED set,
    # every write is a system call.
    pending, size, written = [], 0, False
    for chunk in render_chunks(report, args.format):
        pending.append(chunk)
        size += len(chunk)
        written = True
        if size >= _WRITE_SIZE:
            sys.stdout.write("".join(pending))
            pending, size = [], 0
    if written:
        pending.append("\n")
        sys.stdout.write("".join(pending))
    if args.format == "text":
        for diag in report.diagnostics:
            print(f"{diag.file}:{diag.line}:{diag.column}: {diag.severity}: {diag.message}",
                  file=sys.stderr)
    return 1 if meets_threshold(report, config.fail_threshold) else 0


if __name__ == "__main__":
    sys.exit(main())
