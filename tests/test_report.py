"""Finding classification, severity grading, and report rendering."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan import __version__
from centriscan.config import AnalyzerConfig, UsageError
from centriscan.diagnostics import Diagnostic
from centriscan.engine import analyze_solidity_source, analyze_teal_source
from centriscan.report import (
    SEVERITY_BY_KIND,
    Evidence,
    Finding,
    ScanReport,
    Subject,
    build_report,
    classify,
    meets_threshold,
    render_report,
)

from helpers import corpus_text, readme_python_block

CONFIG = AnalyzerConfig()


def _sol_findings(name: str):
    findings, _ = analyze_solidity_source(
        corpus_text("solidity", name), name, CONFIG)
    return findings


def _teal_findings(name: str):
    findings, _ = analyze_teal_source(corpus_text("teal", name), name, CONFIG)
    return findings


def test_guarded_write_is_major_centralization_risk():
    findings = _sol_findings("owner_drain.sol")
    assert [(f.kind, f.severity) for f in findings] == [
        ("CENTRALIZATION_RISK", "MAJOR")]
    roles = [e.role for e in findings[0].evidence]
    assert "guard" in roles and "fund_modification" in roles


def test_empty_contract_yields_no_findings():
    assert _sol_findings("clean.sol") == []


def test_unguarded_put_is_warning():
    findings = _teal_findings("row3_put.teal")
    assert [(f.kind, f.severity) for f in findings] == [
        ("UNPROTECTED_FUND_MODIFICATION", "WARNING")]


def test_guard_only_teal_program_is_info():
    findings = _teal_findings("row1_assert.teal")
    assert [(f.kind, f.severity) for f in findings] == [
        ("PRIVILEGED_FUNCTION", "INFO")]


def test_functions_invoking_one_modifier_share_its_guard_evidence():
    source = """contract V {
        address owner;
        mapping(address => uint) bals;
        modifier onlyOwner() { require(msg.sender == owner); _; }
        function a(address to) public onlyOwner { bals[to] = 0; }
        function b() public onlyOwner {}
    }"""
    first, second = analyze_solidity_source(source, "v.sol", CONFIG)[0]
    assert (first.kind, second.kind) == ("CENTRALIZATION_RISK", "PRIVILEGED_FUNCTION")
    assert first.evidence[0] is second.evidence[0]


def test_kind_severity_bijection():
    all_findings = []
    for name in ("owner_drain.sol", "row2_require.sol", "row4_balance.sol"):
        all_findings += _sol_findings(name)
    for name in ("guarded_put.teal", "row1_assert.teal", "row3_put.teal"):
        all_findings += _teal_findings(name)
    kinds_seen = {f.kind for f in all_findings}
    assert kinds_seen == set(SEVERITY_BY_KIND)
    for f in all_findings:
        assert f.severity == SEVERITY_BY_KIND[f.kind]


def test_centralization_risk_evidence_completeness():
    for findings in (_sol_findings("owner_drain.sol"), _teal_findings("guarded_put.teal"),
                     _teal_findings("router_handlers.teal")):
        for f in findings:
            if f.kind == "CENTRALIZATION_RISK":
                roles = {e.role for e in f.evidence}
                assert roles == {"guard", "fund_modification"}


def test_teal_guarded_write_lists_only_the_guard_of_its_handler():
    # Each handler of the router has its own owner check; a put's evidence
    # names that check, not the other handler's.
    findings = _teal_findings("router_handlers.teal")
    evidence = {f.line: [(e.role, e.line) for e in f.evidence]
                for f in findings if f.kind == "CENTRALIZATION_RISK"}
    assert evidence == {
        26: [("guard", 22), ("fund_modification", 26)],
        36: [("guard", 33), ("fund_modification", 36)],
    }


def _report(findings, files_scanned=1):
    return build_report(findings, [], files_scanned, CONFIG, __version__)


def test_empty_report_json_schema():
    rendered = render_report(_report([], files_scanned=0), "json")
    payload = json.loads(rendered)
    assert payload["version"] == __version__
    assert payload["files_scanned"] == 0
    assert payload["findings"] == []
    assert payload["counts"] == {"major": 0, "warning": 0, "info": 0}
    assert payload["diagnostics"] == []
    # files_scanned follows the findings: a streamed report knows it only
    # once every file has been read.
    assert list(payload) == ["version", "config_fingerprint", "findings",
                             "files_scanned", "counts", "diagnostics"]


def test_single_finding_text_golden():
    report = _report(_sol_findings("owner_drain.sol"))
    golden = (
        "MAJOR CENTRALIZATION_RISK owner_drain.sol:10:5 function 'fun' combines "
        "a sender guard with fund-modifying logic\n"
        "    guard owner_drain.sol:6:9 msg.sender == owner\n"
        "    fund_modification owner_drain.sol:11:9 bals[to] = bals[to].add(1);"
    )
    assert render_report(report, "text") == golden


def test_findings_render_in_sorted_order():
    low = Finding("PRIVILEGED_FUNCTION", "INFO", "solidity", "b.sol", 2, 1, "m", ())
    high = Finding("PRIVILEGED_FUNCTION", "INFO", "solidity", "a.sol", 9, 1, "m", ())
    report = _report([low, high])
    lines = render_report(report, "text").splitlines()
    assert "a.sol:9:1" in lines[0] and "b.sol:2:1" in lines[1]


def test_counts_conserve_findings():
    findings = (_sol_findings("owner_drain.sol") + _sol_findings("row2_require.sol")
                + _teal_findings("row3_put.teal"))
    report = _report(findings)
    assert sum(report.counts.values()) == len(report.findings) == 3
    assert report.counts == {"major": 1, "warning": 1, "info": 1}


def test_json_is_deterministic_and_config_sensitive():
    findings = _sol_findings("owner_drain.sol")
    a = render_report(_report(findings), "json")
    b = render_report(_report(findings), "json")
    assert a == b
    other_config = AnalyzerConfig(owner_keys=("gov",))
    c = render_report(build_report(findings, [], 1, other_config, __version__), "json")
    assert json.loads(a)["config_fingerprint"] != json.loads(c)["config_fingerprint"]


def test_json_schema_field_names():
    report = _report(_sol_findings("owner_drain.sol"))
    payload = json.loads(render_report(report, "json"))
    finding = payload["findings"][0]
    assert list(finding) == ["kind", "severity", "language", "file", "line",
                             "column", "message", "evidence"]
    assert list(finding["evidence"][0]) == ["role", "file", "line", "column", "text"]
    assert {e["file"] for e in finding["evidence"]} == {finding["file"]}


def test_unknown_format_is_usage_error():
    with pytest.raises(UsageError):
        render_report(_report([]), "sarif")


def test_meets_threshold_ordering():
    report = _report(_sol_findings("row2_require.sol"))  # one INFO finding
    assert meets_threshold(report, "info")
    assert not meets_threshold(report, "warning")
    assert not meets_threshold(report, "major")
    assert not meets_threshold(report, "none")
    major = _report(_sol_findings("owner_drain.sol"))
    assert meets_threshold(major, "major")
    assert not meets_threshold(major, "none")


_GUARD = Evidence("guard", 3, 5, "msg.sender == owner")
_FUND = Evidence("fund_modification", 4, 5, "bals[to] = 0;")


@pytest.mark.parametrize("language, name, guards, funds, detail, kind, message", [
    ("solidity", "function 'f'", (_GUARD,), (_FUND,), "", "CENTRALIZATION_RISK",
     "function 'f' combines a sender guard with fund-modifying logic"),
    ("solidity", "function 'f'", (_GUARD,), (), "", "PRIVILEGED_FUNCTION",
     "function 'f' is restricted to a privileged sender"),
    ("solidity", "unnamed function", (), (_FUND,), "", "UNPROTECTED_FUND_MODIFICATION",
     "unnamed function modifies funds without a sender guard"),
    ("teal", 'state write to balance key "b"', (_GUARD, _GUARD), (_FUND,), "",
     "CENTRALIZATION_RISK", 'state write to balance key "b" is gated by a sender guard'),
    ("teal", "sender guard on global CreatorAddress", (_GUARD,), (), "",
     "PRIVILEGED_FUNCTION", "sender guard on global CreatorAddress with no "
     "fund-modifying state write in program"),
    ("teal", 'state write to balance key "b"', (), (_FUND,), " (blocks 0->2)",
     "UNPROTECTED_FUND_MODIFICATION",
     'state write to balance key "b" is reachable without a sender guard (blocks 0->2)'),
])
def test_classify_grades_each_subject_by_its_evidence(language, name, guards, funds,
                                                      detail, kind, message):
    subject = Subject(2, 1, name, guards, funds, detail)
    assert classify(language, "x", iter([subject])) == [Finding(
        kind, SEVERITY_BY_KIND[kind], language, "x", 2, 1, message, guards + funds)]


def test_readme_classify_example_runs():
    exec(readme_python_block("classify("), {})


def test_text_report_escapes_a_newline_in_a_teal_key():
    source = "#pragma version 8\nbyte 0x0a62616c616e6365\nint 5\napp_global_put\nint 1\nreturn\n"
    findings, _ = analyze_teal_source(source, "k.teal", CONFIG)
    text = render_report(_report(findings), "text")
    assert text.splitlines() == [
        'WARNING UNPROTECTED_FUND_MODIFICATION k.teal:4:1 state write to balance key '
        '"\\nbalance" is reachable without a sender guard (blocks 0)',
        '    fund_modification k.teal:4:1 app_global_put key "\\nbalance"']


def test_text_report_escapes_a_control_character_in_a_solidity_comment():
    findings, _ = analyze_solidity_source(
        "contract C { mapping(address => uint) bals;\n"
        "function f(address to) public { bals[to /* \x1b[2J */] = 0; } }", "e.sol", CONFIG)
    assert findings[0].evidence[0].text == "bals[to /* \x1b[2J */] = 0;"
    text = render_report(_report(findings), "text")
    assert "\x1b" not in text
    assert text.splitlines()[1] == (
        "    fund_modification e.sol:2:33 bals[to /* \\x1b[2J */] = 0;")


def test_teal_dead_code_put_yields_no_finding():
    source = (
        "int 1\nreturn\n"
        "dead:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    findings, diagnostics = analyze_teal_source(source, "x.teal", CONFIG)
    assert findings == []
    assert any("unreachable" in d.message for d in diagnostics)


def _reference_json(report):
    """The report as json.dumps writes the schema's nested dicts."""
    payload = {
        "version": report.version,
        "config_fingerprint": report.config_fingerprint,
        "findings": [
            {
                "kind": f.kind,
                "severity": f.severity,
                "language": f.language,
                "file": f.file,
                "line": f.line,
                "column": f.column,
                "message": f.message,
                "evidence": [
                    {"role": e.role, "file": f.file, "line": e.line,
                     "column": e.column, "text": e.text}
                    for e in f.evidence
                ],
            }
            for f in report.findings
        ],
        "files_scanned": report.files_scanned,
        "counts": report.counts,
        "diagnostics": [
            {"file": d.file, "line": d.line, "message": d.message}
            for d in report.diagnostics
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def _escaped(field):
    """field with each character str.isprintable rejects as repr writes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in field)


def _reference_text(report):
    lines = []
    for f in report.findings:
        severity, kind, file, message = map(_escaped, (f.severity, f.kind, f.file, f.message))
        lines.append(f"{severity} {kind} {file}:{f.line}:{f.column} {message}")
        for e in f.evidence:
            lines.append(f"    {_escaped(e.role)} {file}:{e.line}:{e.column} {_escaped(e.text)}")
    return "\n".join(lines)


# Quote, backslash, control characters, non-ASCII, an astral-plane
# character, U+2028 and a lone surrogate: each is escaped differently, and
# the non-ASCII ones only because the report escapes to ASCII.
_AWKWARD = '"\\\x00\n\x1f\x7f\u00e9\u2028\U0001f600\ud800'
_TEXT = st.text(st.sampled_from(_AWKWARD) | st.characters(), max_size=6)
_INT = st.integers(min_value=-1, max_value=2**40)
# Few roles and lines, so records at the same place with another role or
# text are common.
_EVIDENCE = st.builds(
    Evidence, st.sampled_from(("guard", "fund_modification")) | _TEXT,
    st.integers(1, 2), st.integers(1, 2), _TEXT)


@st.composite
def _reports(draw):
    pool = draw(st.lists(_EVIDENCE, max_size=5))

    def evidence():
        # Each reference is the pooled record itself, shared with other
        # findings, or a distinct object equal to it in value.
        picks = draw(st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
            max_size=4)) if pool else []
        return tuple(Evidence(*pool[i]) if copy else pool[i] for i, copy in picks)

    findings = [
        Finding(draw(_TEXT), draw(_TEXT), draw(_TEXT), draw(_TEXT), draw(_INT),
                draw(_INT), draw(_TEXT), evidence())
        for _ in range(draw(st.integers(0, 4)))
    ]
    diagnostics = draw(st.lists(
        st.builds(Diagnostic, _TEXT, _INT, _INT, _TEXT, _TEXT), max_size=3))
    counts = {"major": draw(_INT), "warning": draw(_INT), "info": draw(_INT)}
    return ScanReport(draw(_TEXT), draw(_TEXT), draw(_INT), findings, diagnostics, counts)


_SHARED = Evidence("guard", 4, 1, 'txn Sender == "owner" \u00e9\u2028')
_SAME_PLACE = Evidence("fund_modification", 4, 1, "app_global_put \U0001f600")


@given(_reports())
@example(ScanReport("", "", 0, [], [], {"major": 0, "warning": 0, "info": 0}))
@example(ScanReport("0.1.0", "f\u00e9", 2, [
    Finding("CENTRALIZATION_RISK", "MAJOR", "teal", "r.teal", 9, 1, "m\\", (
        _SHARED, _SAME_PLACE)),
    Finding("CENTRALIZATION_RISK", "MAJOR", "teal", "r.teal", 12, 1, "m\x00", (
        Evidence(*_SHARED), _SHARED._replace(text="other"))),
    Finding("PRIVILEGED_FUNCTION", "INFO", "teal", "\ud800", 3, 1, "", ()),
], [Diagnostic("unreachable \u2028", 7, 3, "note", "r.teal")], {"major": 2, "warning": 0, "info": 1}))
@settings(max_examples=200, deadline=None)
def test_renderers_match_reference_rendering(report):
    assert render_report(report, "json") == _reference_json(report)
    assert render_report(report, "text") == _reference_text(report)
