"""Command-line entry point.

Exit codes: 0 = no findings at or above the failure threshold, 1 = findings
at or above the threshold, 2 = usage or configuration error, or the report
could not be written (a closed stdout ends the scan without a word).
Unreadable files surface as diagnostics, never as exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, TextIO

from . import __version__
from .config import FAIL_THRESHOLDS, UsageError, load_config
from .engine import stream_paths
from .report import diagnostic_lines, meets_threshold, render_chunks

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
    report = stream_paths(args.paths, config)
    try:
        _write(sys.stdout, render_chunks(report, args.format), end="\n")
        if args.format == "text":
            _write(sys.stderr, diagnostic_lines(report))
    except BrokenPipeError:
        return 2  # the reader is gone; so is anyone to tell
    except OSError as exc:
        print(f"centriscan: error: cannot write the report: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 1 if meets_threshold(report, config.fail_threshold) else 0


def _write(stream: TextIO, pieces: Iterable[str], end: str = "") -> None:
    """Writes the pieces as they come, so the process never holds the whole
    text, then end if there were any. Runs of about _WRITE_SIZE characters
    go out in one write: with PYTHONUNBUFFERED set, every write is a system
    call. A write error stops the writing and is raised once the stream's
    file is the null device, so the flush at exit cannot fail again."""
    pending, size, written = [], 0, False
    try:
        for piece in pieces:
            pending.append(piece)
            size += len(piece)
            written = True
            if size >= _WRITE_SIZE:
                stream.write("".join(pending))
                pending, size = [], 0
        if written:
            pending.append(end)
            stream.write("".join(pending))
        stream.flush()
    except OSError:
        _discard(stream)
        raise


def _discard(stream: TextIO) -> None:
    """Point the stream's file at the null device, as the signal module's
    documentation does for a broken pipe: Python flushes stdout and stderr
    at exit, and what is still buffered must not fail a second time."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return  # not a file, so there is nothing to flush at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
