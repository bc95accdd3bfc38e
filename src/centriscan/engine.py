"""Scan orchestration: file discovery, per-file pipelines, report assembly.

Per-file analyses are pure functions of (text, config). Results come out
in path order, one file at a time, each file's findings and diagnostics
already in report order, so the report does not depend on input order.
scan_files collects them into a report; stream_paths hands them to a
renderer as they come.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from . import __version__
from .config import AnalyzerConfig, UsageError
from .diagnostics import Diagnostic
from .report import (DIAGNOSTIC_ORDER, FINDING_ORDER, Finding, ScanReport, build_report,
                     classify, stream_report)

# build_report is exported for callers that assemble a report from lists of their own.
__all__ = ["SOLIDITY_EXT", "TEAL_EXT", "discover_files", "analyze_solidity_source",
           "analyze_teal_source", "scan_stream", "scan_files", "scan_paths", "stream_paths",
           "build_report"]

SOLIDITY_EXT = ".sol"
TEAL_EXT = ".teal"

# Each language's stage functions and their back-end modules. A back end is
# imported on first use, so a run compiles only the languages it scans; its
# stages are then engine globals that the pipelines call and a tracer may rebind.
_STAGES = {
    SOLIDITY_EXT: {
        "tokenize": "solidity.tokens", "parse_source": "solidity.parser",
        "collect_state_vars": "solidity.symbols", "find_sender_guards": "solidity.detectors",
        "find_fund_modifications": "solidity.detectors", "pair_detections": "solidity.detectors",
    },
    TEAL_EXT: {
        "parse_teal": "teal.parser", "build_cfg": "teal.cfg",
        "abstract_exec_block": "teal.absint", "success_ends": "teal.detectors",
        "find_guard_points": "teal.detectors",
        "find_fund_mod_points": "teal.detectors", "compute_guardedness": "flow",
        "find_subjects": "teal.detectors",
    },
}


def _load(language: str) -> None:
    """Bind the language's stages as globals; a name already bound stays."""
    bound = globals()
    for name, module in _STAGES[language].items():
        if name not in bound:  # from .module import name
            bound[name] = getattr(__import__(module, bound, None, (name,), 1), name)


def __getattr__(name: str):
    """Read a stage that is not bound yet: load its back end first."""
    for language, stages in _STAGES.items():
        if name in stages:
            _load(language)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in filenames:
                    if name.endswith((SOLIDITY_EXT, TEAL_EXT)):
                        found.append(os.path.normpath(os.path.join(dirpath, name)))
        else:
            raise UsageError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(found))


def analyze_solidity_source(
    source: str, path: str, config: AnalyzerConfig
) -> tuple[list[Finding], list[Diagnostic]]:
    """Run the full Solidity pipeline over one file's text. Its rules read
    no config; it takes one so both languages' entry points are alike."""
    _load(SOLIDITY_EXT)
    unit = parse_source(tokenize(source))
    diagnostics = unit.diagnostics
    subjects = []
    for contract in unit.contracts:
        balances = collect_state_vars(contract, unit.tokens, diagnostics)
        lowering = find_sender_guards(contract, unit.tokens, balances, diagnostics)
        funds = find_fund_modifications(lowering)
        subjects.extend(pair_detections(lowering, unit.tokens, funds, diagnostics))
    findings = classify("solidity", path, subjects)
    return findings, diagnostics


def analyze_teal_source(
    source: str, path: str, config: AnalyzerConfig
) -> tuple[list[Finding], list[Diagnostic]]:
    """Run the full TEAL pipeline over one file's text."""
    _load(TEAL_EXT)
    program = parse_teal(source)
    diagnostics = program.diagnostics
    cfg = build_cfg(program)
    facts = [abstract_exec_block(block, program, config, diagnostics)
             for block in cfg.blocks]
    ends = success_ends(cfg, facts, program)
    guards = find_guard_points(cfg, facts, program, ends, diagnostics)
    funds = find_fund_mod_points(facts, program)
    # The points and the ends hold all the flow query and the subjects read
    # of the program's columns and the block facts, so those go before it runs.
    del program, facts
    guardedness = compute_guardedness(cfg, guards, funds, ends, diagnostics)
    # classify makes each subject as it reads it, so no list of them is held.
    findings = classify("teal", path, find_subjects(guards, funds, guardedness))
    return findings, diagnostics


def _read_text(path: str) -> tuple[str | None, list[Diagnostic]]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return None, [Diagnostic(f"cannot read file: {exc.strerror}", 1,
                                 severity="warning", file=path)]
    try:
        return data.decode("utf-8-sig"), []
    except UnicodeDecodeError:
        return data.decode("utf-8-sig", errors="replace"), [
            Diagnostic("invalid UTF-8 replaced during decoding", 1,
                       severity="warning", file=path)
        ]


def scan_stream(
    files: Iterable[str], config: AnalyzerConfig
) -> Iterator[tuple[list[Finding], list[Diagnostic], bool]]:
    """Analyze the files one at a time in path order. Yields per file its
    findings and its diagnostics, each sorted as the report sorts them,
    and whether it was scanned: read, and of a language centriscan knows."""
    for path in sorted(set(files)):
        source, diagnostics = _read_text(path)
        if source is None:
            yield [], diagnostics, False
            continue
        if path.endswith(TEAL_EXT):
            findings, file_diags = analyze_teal_source(source, path, config)
        elif path.endswith(SOLIDITY_EXT):
            findings, file_diags = analyze_solidity_source(source, path, config)
        else:
            diagnostics.append(Diagnostic(
                "unsupported file type; expected .sol or .teal", 1, file=path))
            yield [], sorted(diagnostics, key=DIAGNOSTIC_ORDER), False
            continue
        diagnostics.extend(Diagnostic(d.message, d.line, d.column, d.severity, path)
                           for d in file_diags)
        findings.sort(key=FINDING_ORDER)
        diagnostics.sort(key=DIAGNOSTIC_ORDER)
        yield findings, diagnostics, True


def scan_files(files: list[str], config: AnalyzerConfig) -> ScanReport:
    """Analyze already-discovered files into a report whose findings are a
    list. The stream is in report order already, so nothing is sorted."""
    report = stream_report(scan_stream(files, config), config, __version__)
    report.findings = list(report.findings)
    return report


def scan_paths(paths: list[str], config: AnalyzerConfig) -> ScanReport:
    """Discover files under the given paths and scan them."""
    return scan_files(discover_files(paths), config)


def stream_paths(paths: list[str], config: AnalyzerConfig) -> ScanReport:
    """The report of scan_paths, streamed (report.stream_report): the files
    are found now, and each is analyzed when a renderer reads its findings."""
    return stream_report(scan_stream(discover_files(paths), config), config, __version__)
