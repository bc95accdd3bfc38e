"""The JSON and text reports for the test corpus are pinned byte for byte.

Refactors and performance work must not change what the analyzer reports.
The golden files hold the reports of `scan_paths(["corpus"])` run from this
directory with the default config; regenerate them only for a deliberate
change of findings, diagnostics or report format.
"""

import os

from centriscan.config import AnalyzerConfig
from centriscan.engine import scan_paths
from centriscan.report import render_report

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS_DIR, "golden", "corpus_report.json")
GOLDEN_TEXT = os.path.join(TESTS_DIR, "golden", "corpus_report.txt")


def _check(monkeypatch, format: str, golden: str) -> None:
    monkeypatch.chdir(TESTS_DIR)
    rendered = render_report(scan_paths(["corpus"], AnalyzerConfig()), format)
    with open(golden, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert rendered == expected


def test_corpus_report_matches_golden_bytes(monkeypatch):
    _check(monkeypatch, "json", GOLDEN)


def test_corpus_text_report_matches_golden_bytes(monkeypatch):
    _check(monkeypatch, "text", GOLDEN_TEXT)
