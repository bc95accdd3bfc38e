"""The stage-name contract of `centriscan.engine`: each pipeline stage is a
module global that the engine calls through, so outside code (a tracer) can
read it before any scan and rebind it. Also how the engine reads a file."""

import codecs

import pytest

from centriscan.config import AnalyzerConfig
from centriscan.engine import scan_files

from helpers import corpus_path, run_fresh_python

# Runs in a fresh process, where no back end has loaded yet; argv holds one
# .sol and one .teal file.
_STAGE_CONTRACT = '''
import sys
from centriscan import engine
from centriscan.config import AnalyzerConfig

STAGES = {
    "centriscan.solidity.tokens": ("tokenize",),
    "centriscan.solidity.parser": ("parse_source",),
    "centriscan.solidity.symbols": ("collect_state_vars",),
    "centriscan.solidity.detectors": ("find_sender_guards", "find_fund_modifications",
                                      "pair_detections"),
    "centriscan.teal.parser": ("parse_teal",),
    "centriscan.teal.cfg": ("build_cfg",),
    "centriscan.teal.absint": ("abstract_exec_block",),
    "centriscan.teal.detectors": ("find_guard_points", "find_fund_mod_points",
                                  "find_subjects"),
    "centriscan.flow": ("compute_guardedness",),
}
assert not [m for m in STAGES if m in sys.modules]
read = {name: getattr(engine, name) for names in STAGES.values() for name in names}
assert len(read) == 13
for module, names in STAGES.items():
    for name in names:
        assert read[name] is getattr(sys.modules[module], name), name
try:
    engine.no_such_stage
except AttributeError:
    pass
else:
    raise AssertionError("an unknown engine name was read")

calls = []

def counting(name):
    def wrapper(*args):
        calls.append(name)
        return read[name](*args)
    return wrapper

engine.parse_teal, engine.tokenize = counting("parse_teal"), counting("tokenize")
wrapped = engine.scan_files(sys.argv[1:], AnalyzerConfig())
assert sorted(calls) == ["parse_teal", "tokenize"], calls
engine.parse_teal, engine.tokenize = read["parse_teal"], read["tokenize"]
restored = engine.scan_files(sys.argv[1:], AnalyzerConfig())
assert len(calls) == 2, calls
assert wrapped.findings == restored.findings
assert {f.language for f in restored.findings} == {"solidity", "teal"}
'''


def test_stage_names_can_be_read_and_rebound_before_any_scan():
    run_fresh_python(_STAGE_CONTRACT, corpus_path("solidity", "owner_drain.sol"),
                     corpus_path("teal", "row1_assert.teal"))


_UNGUARDED = {
    "v.sol": b"contract V { mapping(address => uint) bals; "
             b"function drain(address to) public { bals[to] = 0; } }",
    "p.teal": b'#pragma version 8\nbyte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn',
}


@pytest.mark.parametrize("tail", [b"", b"\n// \xff"], ids=["utf8", "invalid-utf8"])
@pytest.mark.parametrize("name", sorted(_UNGUARDED))
def test_utf8_bom_changes_no_finding_or_diagnostic(tmp_path, name, tail):
    def scan(prefix: bytes):
        path = tmp_path / name
        path.write_bytes(prefix + _UNGUARDED[name] + tail)
        report = scan_files([str(path)], AnalyzerConfig())
        return report.findings, report.diagnostics

    plain = scan(b"")
    assert [f.kind for f in plain[0]] == ["UNPROTECTED_FUND_MODIFICATION"]
    assert scan(codecs.BOM_UTF8) == plain
