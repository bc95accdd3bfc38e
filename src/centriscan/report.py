"""Risk engine: classify raw detections into severity-graded findings and
render reports.

Severity is a pure function of finding kind; a CENTRALIZATION_RISK finding
always carries both a guard and a fund-modification evidence entry.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, NamedTuple, Union

from .config import AnalyzerConfig, UsageError
from .diagnostics import Diagnostic
from .solidity.detectors import GuardSite, RawDetection
from .teal.detectors import FundModPoint, GuardPoint, GuardednessResult

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
    role: str  # "guard" | "fund_modification"
    file: str
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


@dataclass
class ScanReport:
    version: str
    config_fingerprint: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: {"major": 0, "warning": 0, "info": 0})


@dataclass
class SolidityDetections:
    """Per-file raw detections from the Solidity pipeline."""
    file: str
    detections: list[RawDetection]


@dataclass
class TealDetections:
    """Per-file guard/fund points and guardedness from the TEAL pipeline."""
    file: str
    guard_points: list[GuardPoint]
    fund_points: list[FundModPoint]
    guardedness: GuardednessResult


_WS_RUN = re.compile(r"\s+")


def _snippet(text: str, limit: int = 120) -> str:
    flat = _WS_RUN.sub(" ", text).strip()
    return flat if len(flat) <= limit else flat[: limit - 3] + "..."


def _make_finding(kind, language, file, line, column, message, evidence) -> Finding:
    return Finding(kind, SEVERITY_BY_KIND[kind], language, file, line, column,
                   message, tuple(evidence))


def classify(
    detections: Iterable[Union[SolidityDetections, TealDetections]],
) -> list[Finding]:
    """Turn raw detections from both pipelines into graded findings."""
    findings: list[Finding] = []
    for bundle in detections:
        if isinstance(bundle, SolidityDetections):
            findings.extend(_classify_solidity(bundle))
        else:
            findings.extend(_classify_teal(bundle))
    return findings


def _function_label(name: str) -> str:
    return f"function '{name}'" if name else "unnamed function"


def _classify_solidity(bundle: SolidityDetections) -> list[Finding]:
    findings = []
    file = bundle.file
    # A modifier's guard site recurs in every function that invokes the
    # modifier; its evidence is built once and shared.
    evidence_of: dict[GuardSite, Evidence] = {}
    for det in bundle.detections:
        guard_evidence = []
        for g in det.guard_sites:
            evidence = evidence_of.get(g)
            if evidence is None:
                evidence = Evidence("guard", file, g.line, g.column, _snippet(g.text))
                evidence_of[g] = evidence
            guard_evidence.append(evidence)
        fund_evidence = [
            Evidence("fund_modification", file, s.line, s.column, _snippet(s.text))
            for s in det.fund_sites
        ]
        label = _function_label(det.function)
        if det.guard_sites and det.fund_sites:
            findings.append(_make_finding(
                CENTRALIZATION_RISK, "solidity", file, det.line, det.column,
                f"{label} combines a sender guard with fund-modifying logic",
                guard_evidence + fund_evidence))
        elif det.guard_sites:
            findings.append(_make_finding(
                PRIVILEGED_FUNCTION, "solidity", file, det.line, det.column,
                f"{label} is restricted to a privileged sender",
                guard_evidence))
        elif det.fund_sites:
            findings.append(_make_finding(
                UNPROTECTED_FUND_MODIFICATION, "solidity", file, det.line, det.column,
                f"{label} modifies funds without a sender guard",
                fund_evidence))
    return findings


def _classify_teal(bundle: TealDetections) -> list[Finding]:
    findings = []
    file = bundle.file
    guard_evidence = [
        Evidence("guard", file, g.line, 1, g.description)
        for g in bundle.guard_points
    ]
    for point in bundle.fund_points:
        verdict = bundle.guardedness.verdicts.get(point)
        evidence = Evidence(
            "fund_modification", file, point.line, 1,
            f'{point.opcode} key "{point.key}"')
        if verdict is True:
            findings.append(_make_finding(
                CENTRALIZATION_RISK, "teal", file, point.line, 1,
                f'state write to balance key "{point.key}" is gated by a sender guard',
                guard_evidence + [evidence]))
        elif verdict is False:
            path = bundle.guardedness.witnesses.get(point, ())
            via = "->".join(str(b) for b in path)
            findings.append(_make_finding(
                UNPROTECTED_FUND_MODIFICATION, "teal", file, point.line, 1,
                f'state write to balance key "{point.key}" is reachable without '
                f"a sender guard (blocks {via})",
                [evidence]))
        # verdict None: the write is dead code; reported as a diagnostic only.
    if not bundle.fund_points:
        for g in bundle.guard_points:
            findings.append(_make_finding(
                PRIVILEGED_FUNCTION, "teal", file, g.line, 1,
                f"sender guard on {g.privileged_source} with no fund-modifying "
                f"state write in program",
                [Evidence("guard", file, g.line, 1, g.description)]))
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
    if format == "json":
        return _render_json(report)
    if format == "text":
        return _render_text(report)
    raise UsageError(f"unknown report format {format!r}")


def _render_json(report: ScanReport) -> str:
    # Writes exactly what json.dumps(payload, separators=(",", ":")) gives
    # for the schema's nested dicts, without building them: every TEAL
    # finding repeats every guard of its program, so each distinct Evidence
    # is encoded once per call.
    s = encode_basestring_ascii
    encoded: dict[Evidence, str] = {}
    findings = []
    for f in report.findings:
        evidence = []
        for e in f.evidence:
            text = encoded.get(e)
            if text is None:
                text = encoded[e] = (
                    f'{{"role":{s(e.role)},"file":{s(e.file)},"line":{e.line:d},'
                    f'"column":{e.column:d},"text":{s(e.text)}}}')
            evidence.append(text)
        findings.append(
            f'{{"kind":{s(f.kind)},"severity":{s(f.severity)},'
            f'"language":{s(f.language)},"file":{s(f.file)},"line":{f.line:d},'
            f'"column":{f.column:d},"message":{s(f.message)},'
            f'"evidence":[{",".join(evidence)}]}}')
    diagnostics = [{"file": d.file, "line": d.line, "message": d.message}
                   for d in report.diagnostics]
    return (
        f'{{"version":{s(report.version)},'
        f'"config_fingerprint":{s(report.config_fingerprint)},'
        f'"files_scanned":{report.files_scanned:d},'
        f'"findings":[{",".join(findings)}],'
        f'"counts":{json.dumps(report.counts, separators=(",", ":"))},'
        f'"diagnostics":{json.dumps(diagnostics, separators=(",", ":"))}}}')


def _render_text(report: ScanReport) -> str:
    line_of: dict[Evidence, str] = {}
    lines = []
    for f in report.findings:
        lines.append(f"{f.severity} {f.kind} {f.file}:{f.line}:{f.column} {f.message}")
        for e in f.evidence:
            line = line_of.get(e)
            if line is None:
                line = line_of[e] = f"    {e.role} {e.file}:{e.line}:{e.column} {e.text}"
            lines.append(line)
    return "\n".join(lines)


def meets_threshold(report: ScanReport, fail_threshold: str) -> bool:
    """True when any finding sits at or above the failure threshold."""
    if fail_threshold == "none":
        return False
    minimum = SEVERITY_RANK[fail_threshold.upper()]
    return any(SEVERITY_RANK[f.severity] >= minimum for f in report.findings)
