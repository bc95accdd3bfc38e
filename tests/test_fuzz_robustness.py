"""Structured robustness fuzzing of both frontends.

Volume fuzzing (10k inputs per frontend) runs in the acceptance suite;
these hypothesis cases aim for shapes volume fuzz rarely hits.
"""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source, analyze_teal_source
from centriscan.solidity.tokens import tokenize

from helpers import CORPUS_DIR, corpus_text

CONFIG = AnalyzerConfig()


@given(st.binary(max_size=400))
@settings(max_examples=250, deadline=None)
def test_solidity_pipeline_total_on_bytes(data):
    text = data.decode("utf-8", errors="replace")
    findings, diagnostics = analyze_solidity_source(text, "fuzz.sol", CONFIG)
    assert isinstance(findings, list) and isinstance(diagnostics, list)


@given(st.binary(max_size=400))
@settings(max_examples=250, deadline=None)
def test_teal_pipeline_total_on_bytes(data):
    text = data.decode("utf-8", errors="replace")
    findings, diagnostics = analyze_teal_source(text, "fuzz.teal", CONFIG)
    assert isinstance(findings, list) and isinstance(diagnostics, list)


# An unguarded vault whose write gives a WARNING at its function, on its
# second line.
_VAULT = ("contract V { mapping(address => uint) bals;\n"
          "function f(address to) public { bals[to] = 0; } }")
_SOLIDITY_CORPUS = sorted(os.listdir(os.path.join(CORPUS_DIR, "solidity")))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_truncated_corpus_solidity(seed):
    # Whatever is left open before it, a contract is still analyzed. The
    # cut falls on a token boundary, so it never opens a comment or a
    # string, which would rightly swallow the vault.
    rng = random.Random(seed)
    source = corpus_text("solidity", rng.choice(_SOLIDITY_CORPUS))
    cut = rng.choice([*tokenize(source).starts, len(source)])
    mangled = source[:cut] + rng.choice(["", "}", "{{{", "(((", "[[", "=>", ";;;", "."]) + "\n"
    findings, _ = analyze_solidity_source(mangled + _VAULT, "trunc.sol", CONFIG)
    vault_line = mangled.count("\n") + 2
    assert ("WARNING", vault_line) in [(f.severity, f.line) for f in findings], mangled


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_truncated_corpus_teal(seed):
    rng = random.Random(seed)
    source = corpus_text("teal", rng.choice(
        ["guarded_put.teal", "row2_branch.teal", "row3_put.teal"]))
    cut = rng.randrange(len(source) + 1)
    mangled = source[:cut] + rng.choice(["", "\nbz nowhere", '\nbyte "', "\n:"])
    findings, _ = analyze_teal_source(mangled, "trunc.teal", CONFIG)
    assert isinstance(findings, list)


def test_deeply_nested_expressions_do_not_blow_the_stack():
    source = "contract C { function f() public { x = " + "(" * 3000 + "1" \
        + ")" * 3000 + "; } }"
    findings, _ = analyze_solidity_source(source, "deep.sol", CONFIG)
    assert isinstance(findings, list)


def _graded(body: str) -> list:
    source = ("contract C { address owner; mapping(address => uint) bals; bool x;\n"
              f"function f(address payable to) public {{ {body} }} }}")
    findings, _ = analyze_solidity_source(source, "deep.sol", CONFIG)
    return [(f.kind, f.severity) for f in findings]


def test_long_prefix_operator_chain_does_not_blow_the_stack():
    # A prefix chain is collected and folded in loops, one Unary per
    # operator, and the walks keep their own stacks: the write under 5,000
    # mixed operators and the comparison under 5,000 bangs are both found.
    assert _graded("x = " + "! - ~ + " * 1250 + "bals[to]++;") == [
        ("UNPROTECTED_FUND_MODIFICATION", "WARNING")]
    assert _graded("require(" + "!" * 5000 + "(msg.sender == owner)); bals[to] = 0;") == [
        ("CENTRALIZATION_RISK", "MAJOR")]
    assert _graded("x = " + "!" * 5000 + "y;") == []


def test_long_ternary_chain_does_not_blow_the_stack():
    # `c ? a : c ? a : ...` nests right to left, and a loop collects its
    # links: the send in the last branch of 3,000 is found.
    assert _graded("x = " + "c ? a : " * 3000 + "to.send(1);") == [
        ("UNPROTECTED_FUND_MODIFICATION", "WARNING")]


def test_deeply_parenthesized_assignments_do_not_blow_the_stack():
    # Past the expression depth bound the rest is one opaque span.
    assert _graded("x = " + "(y = " * 3000 + "1" + ")" * 3000 + ";") == []


def test_deeply_nested_blocks_do_not_blow_the_stack():
    source = ("contract C { function f() public { " + "if (a == b) { " * 2000
              + "}" * 2000 + " } }")
    findings, _ = analyze_solidity_source(source, "deep.sol", CONFIG)
    assert isinstance(findings, list)


def test_long_logical_chains_in_a_guard_do_not_blow_the_stack():
    # The parser builds `&&`/`||` chains left-deep; the guard predicate walks
    # them without recursion and still finds the comparison at the far end.
    def graded(guard):
        source = ("contract C { address owner; mapping(address => uint) bals; bool x;\n"
                  f"function f(address to) public {{ {guard} bals[to] = 0; }} }}")
        findings, _ = analyze_solidity_source(source, "deep.sol", CONFIG)
        return [(f.kind, f.severity) for f in findings]

    chain = " && ".join(["x"] * 4999 + ["msg.sender == owner"])
    assert graded(f"require({chain});") == [("CENTRALIZATION_RISK", "MAJOR")]
    chain = " || ".join(["x"] * 4999 + ["msg.sender == owner"])
    # A stranger takes the else edge, which reverts.
    assert graded(f"if ({chain}) {{ }} else {{ revert(); }}") == [
        ("CENTRALIZATION_RISK", "MAJOR")]


def test_deeply_nested_mappings_do_not_blow_the_stack():
    # A mapping nested past the expression depth bound (50) is no state
    # variable: the member is skipped with a note, and the rest still scans.
    def scan(levels):
        source = ("contract C { address owner; " + "mapping(address => " * levels + "uint"
                  + ")" * levels + " deep;\n"
                  "function f() public { require(msg.sender == owner); } }")
        findings, diagnostics = analyze_solidity_source(source, "deep.sol", CONFIG)
        return [(f.kind, f.severity) for f in findings], [d.message for d in diagnostics]

    privileged = [("PRIVILEGED_FUNCTION", "INFO")]
    assert scan(50) == (privileged, [])
    assert scan(51) == (privileged, ["skipped unrecognized contract member"])
    assert scan(5000) == (privileged, ["skipped unrecognized contract member"])


def test_pathological_token_stream():
    source = "contract C { function f() public { " + "=" * 500 + " } }"
    findings, _ = analyze_solidity_source(source, "odd.sol", CONFIG)
    assert findings == []
