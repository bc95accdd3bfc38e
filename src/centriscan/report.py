"""Risk engine: grade the subjects each back end finds into
severity-graded findings and render reports.

Severity is a pure function of finding kind; a CENTRALIZATION_RISK finding
always carries both a guard and a fund-modification evidence entry.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .config import AnalyzerConfig, UsageError
from .diagnostics import Diagnostic
from .record import Record

CENTRALIZATION_RISK = "CENTRALIZATION_RISK"
PRIVILEGED_FUNCTION = "PRIVILEGED_FUNCTION"
UNPROTECTED_FUND_MODIFICATION = "UNPROTECTED_FUND_MODIFICATION"

SEVERITY_BY_KIND = {
    CENTRALIZATION_RISK: "MAJOR",
    UNPROTECTED_FUND_MODIFICATION: "WARNING",
    PRIVILEGED_FUNCTION: "INFO",
}

SEVERITY_RANK = {"MAJOR": 3, "WARNING": 2, "INFO": 1}


class Evidence(NamedTuple):
    role: str  # "guard" | "fund_modification"; the file is its finding's
    line: int
    column: int
    text: str


class Finding(NamedTuple):
    kind: str
    severity: str
    language: str  # "solidity" | "teal"
    file: str
    line: int
    column: int
    message: str
    evidence: tuple[Evidence, ...]


class ScanReport(Record):
    __slots__ = ("version", "config_fingerprint", "files_scanned", "findings",
                 "diagnostics", "counts")


class Subject(NamedTuple):
    """A place a back end grades: a Solidity function or a TEAL write or
    guard. It holds at least one guard or fund evidence entry."""
    line: int
    column: int
    name: str  # what the message names, e.g. "function 'f'"
    guards: tuple[Evidence, ...]
    funds: tuple[Evidence, ...]
    detail: str  # appended to the message


# A subject's kind by whether it has guards and whether it has funds.
_KIND = {(True, True): CENTRALIZATION_RISK, (True, False): PRIVILEGED_FUNCTION,
         (False, True): UNPROTECTED_FUND_MODIFICATION}
# Per language, each kind's predicate: a finding's message is the subject's
# name, this predicate and the subject's detail.
_PREDICATES = {
    "solidity": {
        CENTRALIZATION_RISK: " combines a sender guard with fund-modifying logic",
        PRIVILEGED_FUNCTION: " is restricted to a privileged sender",
        UNPROTECTED_FUND_MODIFICATION: " modifies funds without a sender guard",
    },
    "teal": {
        CENTRALIZATION_RISK: " is gated by a sender guard",
        PRIVILEGED_FUNCTION: " with no fund-modifying state write in program",
        UNPROTECTED_FUND_MODIFICATION: " is reachable without a sender guard",
    },
}


def classify(language: str, file: str, subjects: Iterable[Subject]) -> list[Finding]:
    """Grade each subject of one file: guards and funds are a
    CENTRALIZATION_RISK, guards alone a PRIVILEGED_FUNCTION, funds alone an
    UNPROTECTED_FUND_MODIFICATION."""
    predicates = _PREDICATES[language]
    findings = []
    for s in subjects:
        kind = _KIND[bool(s.guards), bool(s.funds)]
        findings.append(Finding(kind, SEVERITY_BY_KIND[kind], language, file, s.line,
                                s.column, f"{s.name}{predicates[kind]}{s.detail}",
                                s.guards + s.funds))
    return findings


def build_report(
    findings: list[Finding],
    diagnostics: list[Diagnostic],
    files_scanned: int,
    config: AnalyzerConfig,
    version: str,
) -> ScanReport:
    """Deterministically merge findings into a report, order-independent."""
    ordered = sorted(findings, key=attrgetter("file", "line", "column", "kind"))
    counts = {"major": 0, "warning": 0, "info": 0}
    for finding in ordered:
        counts[finding.severity.lower()] += 1
    return ScanReport(
        version=version,
        config_fingerprint=config.fingerprint(),
        files_scanned=files_scanned,
        findings=ordered,
        diagnostics=sorted(diagnostics, key=attrgetter("file", "line", "message")),
        counts=counts,
    )


def render_report(report: ScanReport, format: str) -> str:
    """Render a report as line-oriented text or byte-stable JSON."""
    return "".join(render_chunks(report, format))


def render_chunks(report: ScanReport, format: str) -> Iterator[str]:
    """The report of render_report in non-empty pieces, one per finding and
    one per diagnostic, so that a writer never holds the whole document."""
    if format == "json":
        return _json_chunks(report)
    if format == "text":
        return _text_chunks(report)
    raise UsageError(f"unknown report format {format!r}")


def _json_chunks(report: ScanReport) -> Iterator[str]:
    # Writes exactly what json.dumps(payload, separators=(",", ":")) gives
    # for the schema's nested dicts, without building them.
    s = encode_basestring_ascii
    yield (f'{{"version":{s(report.version)},'
           f'"config_fingerprint":{s(report.config_fingerprint)},'
           f'"files_scanned":{report.files_scanned:d},"findings":[')
    separator = ""
    for f in report.findings:
        file = s(f.file)
        evidence = ",".join([
            f'{{"role":{s(e.role)},"file":{file},"line":{e.line:d},'
            f'"column":{e.column:d},"text":{s(e.text)}}}' for e in f.evidence])
        yield (f'{separator}{{"kind":{s(f.kind)},"severity":{s(f.severity)},'
               f'"language":{s(f.language)},"file":{file},"line":{f.line:d},'
               f'"column":{f.column:d},"message":{s(f.message)},'
               f'"evidence":[{evidence}]}}')
        separator = ","
    yield (f'],"counts":{json.dumps(report.counts, separators=(",", ":"))},'
           f'"diagnostics":[')
    separator = ""
    for d in report.diagnostics:
        yield (f'{separator}{{"file":{s(d.file)},"line":{d.line:d},'
               f'"message":{s(d.message)}}}')
        separator = ","
    yield "]}"


def _printable(line: str) -> str:
    """line with each character str.isprintable rejects written as repr
    writes it, unquoted, so scanned text cannot split lines or drive a terminal."""
    if line.isprintable():
        return line
    return "".join([c if c.isprintable() else repr(c)[1:-1] for c in line])


def _text_chunks(report: ScanReport) -> Iterator[str]:
    separator = ""
    for f in report.findings:
        lines = [_printable(f"{f.severity} {f.kind} {f.file}:{f.line}:{f.column} {f.message}")]
        lines.extend(_printable(f"    {e.role} {f.file}:{e.line}:{e.column} {e.text}")
                     for e in f.evidence)
        yield separator + "\n".join(lines)
        separator = "\n"


def diagnostic_lines(report: ScanReport) -> Iterator[str]:
    """Text mode's stderr: `FILE:LINE:COLUMN: SEVERITY: MESSAGE` per diagnostic."""
    for d in report.diagnostics:
        yield _printable(f"{d.file}:{d.line}:{d.column}: {d.severity}: {d.message}") + "\n"


def meets_threshold(report: ScanReport, fail_threshold: str) -> bool:
    """True when any finding sits at or above the failure threshold."""
    if fail_threshold == "none":
        return False
    minimum = SEVERITY_RANK[fail_threshold.upper()]
    return any(SEVERITY_RANK[f.severity] >= minimum for f in report.findings)
