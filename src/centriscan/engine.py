"""Scan orchestration: file discovery, per-file pipelines, report assembly.

Per-file analyses are pure functions of (text, config) and may run
concurrently; the report is assembled by a deterministic sort so results
are independent of input order.
"""

from __future__ import annotations

import os

from . import __version__
from .config import AnalyzerConfig, UsageError
from .diagnostics import Diagnostic
from .report import (
    Finding,
    ScanReport,
    SolidityDetections,
    TealDetections,
    build_report,
    classify,
)
from .solidity.detectors import find_fund_modifications, find_sender_guards, pair_detections
from .solidity.parser import parse_source
from .solidity.symbols import collect_state_vars
from .solidity.tokens import tokenize
from .teal.absint import abstract_exec_block
from .teal.cfg import build_cfg
from .teal.detectors import compute_guardedness, find_fund_mod_points, find_guard_points
from .teal.parser import parse_teal

SOLIDITY_EXT = ".sol"
TEAL_EXT = ".teal"


def discover_files(paths: list[str]) -> list[str]:
    """Resolve path arguments to a sorted list of .sol/.teal files.

    Raises UsageError when an argument does not exist; directories are
    walked recursively.
    """
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(os.path.normpath(path))
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith((SOLIDITY_EXT, TEAL_EXT)):
                        found.append(os.path.normpath(os.path.join(dirpath, name)))
        else:
            raise UsageError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(found))


def analyze_solidity_source(
    source: str, path: str, config: AnalyzerConfig
) -> tuple[list[Finding], list[Diagnostic]]:
    """Run the full Solidity pipeline over one file's text."""
    unit = parse_source(tokenize(source), path, source)
    diagnostics = list(unit.diagnostics)
    detections = []
    for contract in unit.contracts:
        symbols = collect_state_vars(contract, diagnostics)
        guards = find_sender_guards(contract, config)
        funds = find_fund_modifications(contract, symbols, config)
        detections.extend(pair_detections(contract, guards, funds, diagnostics))
    findings = classify([SolidityDetections(path, detections)])
    return findings, diagnostics


def analyze_teal_source(
    source: str, path: str, config: AnalyzerConfig
) -> tuple[list[Finding], list[Diagnostic]]:
    """Run the full TEAL pipeline over one file's text."""
    program = parse_teal(source, path)
    diagnostics = program.diagnostics
    cfg = build_cfg(program, diagnostics)
    facts = [abstract_exec_block(block, program, config, diagnostics)
             for block in cfg.blocks]
    guards = find_guard_points(cfg, facts, program, diagnostics)
    funds = find_fund_mod_points(facts, program)
    guardedness = compute_guardedness(cfg, guards, funds, diagnostics)
    findings = classify([TealDetections(path, guards, funds, guardedness)])
    return findings, diagnostics


def _read_text(path: str) -> tuple[str | None, list[Diagnostic]]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return None, [Diagnostic(f"cannot read file: {exc.strerror}", 1,
                                 severity="warning", file=path)]
    try:
        return data.decode("utf-8"), []
    except UnicodeDecodeError:
        return data.decode("utf-8", errors="replace"), [
            Diagnostic("invalid UTF-8 replaced during decoding", 1,
                       severity="warning", file=path)
        ]


def scan_files(files: list[str], config: AnalyzerConfig) -> ScanReport:
    """Analyze already-discovered files and assemble the report."""
    findings: list[Finding] = []
    diagnostics: list[Diagnostic] = []
    scanned = 0
    for path in files:
        source, read_diags = _read_text(path)
        diagnostics.extend(read_diags)
        if source is None:
            continue
        if path.endswith(TEAL_EXT):
            file_findings, file_diags = analyze_teal_source(source, path, config)
        elif path.endswith(SOLIDITY_EXT):
            file_findings, file_diags = analyze_solidity_source(source, path, config)
        else:
            diagnostics.append(Diagnostic(
                "unsupported file type; expected .sol or .teal", 1, file=path))
            continue
        scanned += 1
        findings.extend(file_findings)
        diagnostics.extend(Diagnostic(d.message, d.line, d.column, d.severity, path)
                           for d in file_diags)
    return build_report(findings, diagnostics, scanned, config, __version__)


def scan_paths(paths: list[str], config: AnalyzerConfig) -> ScanReport:
    """Discover files under the given paths and scan them."""
    return scan_files(discover_files(paths), config)
