"""Guard/fund-site detection and per-function pairing on the Solidity AST."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source
from centriscan.report import Evidence
from centriscan.solidity import ast
from centriscan.solidity.detectors import find_fund_modifications, pair_detections

from helpers import corpus_text, opcodes_executed, parse_single_unit, solidity_sites

CONFIG = AnalyzerConfig()


def _sites(contract, tokens):
    """The guard and fund sites, each the `at` of its declaration and its Evidence."""
    return solidity_sites(contract, tokens)[1:]


def _analyze(source: str):
    contract, tokens = parse_single_unit(source)
    return (contract, *_sites(contract, tokens))


def _position(source: str, fragment: str) -> tuple[int, int]:
    """Line and column of fragment's first occurrence in source."""
    before = source[:source.index(fragment)]
    return before.count("\n") + 1, len(before) - before.rfind("\n")


def _guard(source: str, keyword: str, condition: str) -> Evidence:
    """The guard evidence of a condition whose statement starts at keyword."""
    return Evidence("guard", *_position(source, keyword), condition)


def _fund(source: str, at: str, statement: str) -> Evidence:
    """The fund evidence of a statement whose fund move starts at `at`."""
    return Evidence("fund_modification", *_position(source, at), statement)


def _pair(source: str, diagnostics: list):
    """The subjects pair_detections makes of source's one contract."""
    return _pair_contract(*parse_single_unit(source), diagnostics)


def _pair_contract(contract, tokens, diagnostics: list):
    lowering = solidity_sites(contract, tokens, diagnostics)[0]
    return pair_detections(lowering, tokens, find_fund_modifications(lowering), diagnostics)


# Each site is the `at` of the declaration it sits in and its evidence.
def test_row1_modifier_guard():
    source = corpus_text("solidity", "row1_only_owner.sol")
    contract, guards, funds = _analyze(source)
    assert guards == [(contract.modifiers[0].at,
                       _guard(source, "require", "msg.sender == owner"))]
    assert funds == []


def test_row2_require_guard():
    source = corpus_text("solidity", "row2_require.sol")
    contract, guards, funds = _analyze(source)
    assert guards == [(contract.functions[0].at,
                       _guard(source, "require", "address(owner) == msg.sender"))]
    assert funds == []


def test_row3_if_guard():
    source = corpus_text("solidity", "row3_if.sol")
    contract, guards, funds = _analyze(source)
    assert guards == [(contract.functions[0].at,
                       _guard(source, "if", "msg.sender == address(owner)"))]
    assert funds == []


def test_row4_balance_write():
    source = corpus_text("solidity", "row4_balance.sol")
    contract, guards, funds = _analyze(source)
    assert guards == []
    statement = "bals[msg.sender] = bals[msg.sender].add(1);"
    assert funds == [(contract.functions[0].at, _fund(source, statement, statement))]


def test_guard_text_is_the_condition_source_with_its_comments():
    contract, guards, _ = _analyze(
        "contract C { address owner; function f() public {\n"
        "    require(msg.sender /* c */ == owner); } }")
    assert guards == [(contract.functions[0].at,
                       Evidence("guard", 2, 5, "msg.sender /* c */ == owner"))]


def test_non_sender_require_is_not_a_guard():
    _, guards, _ = _analyze(
        "contract C { uint a; uint b; function f() public { require(a == b); } }")
    assert guards == []


def test_self_comparison_is_not_a_guard():
    _, guards, _ = _analyze(
        "contract C { function f() public { require(msg.sender == msg.sender); } }")
    assert guards == []


def test_guard_found_under_boolean_connectives():
    source = ("contract C { address owner; uint a; function f() public {"
              " require(a > 1 && (owner == msg.sender)); } }")
    _, guards, _ = _analyze(source)
    assert [evidence for _, evidence in guards] == [
        _guard(source, "require", "a > 1 && (owner == msg.sender)")]


def test_assert_guard_is_graded_as_require():
    source = ("contract C { address owner; mapping(address => uint) bals;\n"
              "function f(address to) public { assert(msg.sender == owner); bals[to] = 0; } }")
    _, guards, _ = _analyze(source)
    assert [evidence for _, evidence in guards] == [
        _guard(source, "assert", "msg.sender == owner")]
    findings, diagnostics = analyze_solidity_source(source, "a.sol", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]
    assert [e.text for e in findings[0].evidence] == ["msg.sender == owner", "bals[to] = 0;"]
    assert diagnostics == []


def test_malformed_assert_notes_name_assert():
    _, diagnostics = analyze_solidity_source(
        "contract C { function f() public { assert x; assert(a) } }", "a.sol", CONFIG)
    assert [d.message for d in diagnostics] == ["malformed assert", "missing ';' after assert"]


def test_negation_flips_a_sender_comparison():
    # As TEAL's `!` does: `!(a != b)` guards as `a == b`, `!(a == b)` as `a != b`.
    def graded(guard):
        source = ("contract C { address owner; mapping(address => uint) bals;\n"
                  f"function f(address to) public {{ {guard} bals[to] = 0; }} }}")
        findings, _ = analyze_solidity_source(source, "a.sol", CONFIG)
        return [(f.kind, f.severity) for f in findings]

    major = [("CENTRALIZATION_RISK", "MAJOR")]
    warning = [("UNPROTECTED_FUND_MODIFICATION", "WARNING")]
    assert graded("require(!(msg.sender != owner));") == major
    assert graded("if (!(msg.sender == owner)) revert();") == major
    assert graded("require(!(msg.sender == owner));") == warning
    assert graded("if (!(msg.sender == owner)) { x = 1; }") == warning


def test_native_transfer_under_negation_is_a_fund_site():
    source = "contract C { function f(address to) public { if (!payable(to).send(1)) revert(); } }"
    _, _, funds = _analyze(source)
    assert [evidence for _, evidence in funds] == [
        _fund(source, "payable(to).send", "if (!payable(to).send(1)) revert();")]


_CONDITIONS = ("msg.sender == owner", "owner == msg.sender", "msg.sender != owner",
               "(msg.sender == owner)", "msg.sender == owner || paused", "x == y")
# Each condition with every `a == b` written `!(a != b)`, every `a != b` `!(a == b)`.
_NEGATED_DUALS = dict(zip(_CONDITIONS, (
    "!(msg.sender != owner)", "!(owner != msg.sender)", "!(msg.sender == owner)",
    "(!(msg.sender != owner))", "!(msg.sender != owner) || paused", "!(x != y)")))
_STATEMENTS = ("bals[to] = 0;", "payable(to).transfer(1);", "selfdestruct(payable(to));",
               "x = 1;")
_FUNCTIONS = st.lists(st.tuples(st.sampled_from(_CONDITIONS), st.booleans(),
                                st.sampled_from(_STATEMENTS)), min_size=1, max_size=4)


def _guarded_findings(functions, guard):
    """Findings on a contract with one function per (condition, guard_first,
    statement); guard(condition) is the function's guard statement."""
    lines = ["contract C { address owner; bool paused; uint x; uint y;",
             "mapping(address => uint) bals;"]
    for i, (condition, guard_first, statement) in enumerate(functions):
        body = f"{guard(condition)} {statement}" if guard_first else \
            f"{statement} {guard(condition)}"
        lines.append(f"function f{i}(address to) public {{ {body} }}")
    found, _ = analyze_solidity_source("\n".join(lines) + "\n}", "c.sol", CONFIG)
    return found


@given(_FUNCTIONS)
@settings(max_examples=100, deadline=None)
def test_require_and_assert_give_the_same_findings(functions):
    # Metamorphic pair: `assert(c);` guards what follows it as `require(c);` does.
    def findings(keyword):
        # Evidence columns move with the keyword's length; nothing else may.
        return [(f.kind, f.severity, f.line, f.column, f.message,
                 [(e.role, e.line, e.text) for e in f.evidence])
                for f in _guarded_findings(functions, lambda c: f"{keyword}({c});")]

    assert findings("assert") == findings("require")


@given(_FUNCTIONS, st.sampled_from(("require({});", "if (!({})) revert();")))
@settings(max_examples=100, deadline=None)
def test_comparison_and_its_negated_dual_give_the_same_findings(functions, guard):
    # Metamorphic pair: `a == b` guards as `!(a != b)` does, `a != b` as `!(a == b)`.
    def findings(rewrite):
        # Guard texts, and the columns after them, change; nothing else may.
        return [(f.kind, f.severity, f.line, f.column, f.message,
                 [(e.role, e.line) for e in f.evidence])
                for f in _guarded_findings(functions, lambda c: guard.format(rewrite(c)))]

    assert findings(_NEGATED_DUALS.get) == findings(str)


# Each condition with the operands of its sender comparison (or of `x == y`) swapped.
_SWAPPED = dict(zip(_CONDITIONS, (
    "owner == msg.sender", "msg.sender == owner", "owner != msg.sender",
    "(owner == msg.sender)", "owner == msg.sender || paused", "y == x")))
# Rewrites of a guard statement, made from its form and condition, that
# change no finding.
_GUARD_REWRITES = {
    "swapped operands": lambda guard, c: guard.format(_SWAPPED[c]),
    "extra parentheses": lambda guard, c: guard.format(f"(({c}))"),
    "block": lambda guard, c: "{ " + guard.format(c) + " }",
    "unchecked block": lambda guard, c: "unchecked { " + guard.format(c) + " }",
    "double negation": lambda guard, c: guard.format(f"!!({c})"),
    "sender cast": lambda guard, c: guard.format(c.replace("msg.sender", "address(msg.sender)")),
}


@given(_FUNCTIONS, st.sampled_from(("require({});", "if (!({})) revert();")),
       st.sampled_from(sorted(_GUARD_REWRITES)))
@settings(max_examples=200, deadline=None)
def test_guard_rewrites_give_the_same_findings(functions, guard, rewrite):
    # Metamorphic pairs: `a == b` as `b == a`, `c` as `((c))` and as `!!(c)`,
    # `msg.sender` as `address(msg.sender)`, and a guard as the same guard in
    # `{ }` or `unchecked { }`.
    def findings(make):
        # Guard texts, and the columns after them, change; nothing else may.
        return [(f.kind, f.severity, f.line, f.column, f.message,
                 [(e.role, e.line) for e in f.evidence])
                for f in _guarded_findings(functions, make)]

    rewritten = _GUARD_REWRITES[rewrite]
    assert findings(lambda c: rewritten(guard, c)) == findings(guard.format)


# Statements that write the same place alike, each group's first in the
# form the parser has always read.
_WRITE_REWRITES = (
    ("bals[to] = 0;", "delete bals[to];"),
    ("bals[to] += 1;", "bals[to]++;", "++bals[to];"),
    ("bals[to] -= 1;", "bals[to]--;", "--bals[to];"),
    ("x = 0;", "delete x;"),
    ("x += 1;", "x++;", "++x;"),
)


@given(st.lists(st.tuples(st.sampled_from(_CONDITIONS), st.booleans(),
                          st.sampled_from(_WRITE_REWRITES)), min_size=1, max_size=4),
       st.sampled_from(("require({});", "if (!({})) revert();", "")), st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_write_rewrites_give_the_same_findings(functions, guard, pick):
    # Metamorphic pairs: `x = 0` as `delete x`, `x += 1` as `x++` and `++x`,
    # `x -= 1` as `x--` and `--x`, under each guard form and without one.
    def findings(write):
        rewritten = [(c, first, write(group)) for c, first, group in functions]
        # Fund texts, and the columns after them, change; nothing else may.
        return [(f.kind, f.severity, f.line, f.column, f.message,
                 [(e.role, e.line) for e in f.evidence])
                for f in _guarded_findings(rewritten, guard.format)]

    assert findings(lambda group: group[pick % len(group)]) == findings(lambda group: group[0])


def test_delete_and_steps_are_balance_writes():
    for write in ("delete bals[to];", "bals[to]++;", "--bals[to];"):
        for guard, graded in (("require(msg.sender == owner); ", "MAJOR"), ("", "WARNING")):
            source = ("contract C { address owner; mapping(address => uint) bals;\n"
                      f"function f(address to) public {{ {guard}{write} }} }}")
            (finding,), diagnostics = analyze_solidity_source(source, "a.sol", CONFIG)
            assert (finding.severity, finding.evidence[-1].text) == (graded, write)
            assert diagnostics == []


def test_each_write_in_a_statement_is_its_own_fund_site():
    # A step on the right-hand side, and each link of a chain, writes a
    # balance of its own, at its own line and column.
    for statement, writes in (("bals[to] = bals[a]--;", ("bals[to] =", "bals[a]--")),
                              ("bals[a] = bals[to] = 0;", ("bals[a] =", "bals[to] ="))):
        source = ("contract C { mapping(address => uint) bals;\n"
                  f"function f(address to, address a) public {{\n  {statement} }} }}")
        _, _, funds = _analyze(source)
        assert [evidence for _, evidence in funds] == [
            _fund(source, write, statement) for write in writes], statement


# The fund moves an expression may hide, and expressions that hold one:
# every operator, in each of its operand positions. A prefix operator is
# followed by a space, so `-` before `--bals[to]` stays two tokens.
_MOVES = ("bals[to]++", "--bals[to]", "to.send(1)", "payable(to).transfer(1)")
_BINARY_OPS = ("||", "&&", "==", "!=", "<", ">", "<=", ">=",
               "+", "-", "*", "/", "%", "**", "<<", ">>", "&", "|", "^")
_PREFIX_OPS = ("!", "-", "~", "+", "++", "--", "delete", "new")
_OPERANDS = ("a", "1", "x", "m[a]", "g(a)", "msg.sender")


def _around(template: str):
    """Put an expression, (text, offset of its fund move), in template's `{}`."""
    prefix = template[:template.index("{}")]
    return lambda e: (template.format(e[0]), len(prefix) + e[1])


def _binary(e, op, operand, left):
    return (f"{e[0]} {op} {operand}", e[1]) if left else \
        (f"{operand} {op} {e[0]}", len(operand) + len(op) + 2 + e[1])


def _holding(inner):
    return st.one_of(
        st.builds(_binary, inner, st.sampled_from(_BINARY_OPS), st.sampled_from(_OPERANDS),
                  st.booleans()),
        inner.map(_around("({})")),
        st.builds(lambda e, op: _around(op + " {}")(e), inner, st.sampled_from(_PREFIX_OPS)),
        inner.map(_around("{} ? a : 1")), inner.map(_around("c ? {} : 1")),
        inner.map(_around("c ? a : {}")),
        inner.map(_around("g({})")), inner.map(_around("g(a, {}, 1)")),
        inner.map(_around("m[{}]")), inner.map(_around("({}).length")),
        inner.map(_around("({})[a]")))


_HOLDING_MOVES = st.recursive(st.sampled_from(_MOVES).map(lambda m: (m, 0)), _holding,
                              max_leaves=10)
_PLACES = ("x = {};", "require({});", "if ({}) {{}}", "return {};", "f({});", "f(y = {});")


@given(_HOLDING_MOVES, st.sampled_from(_PLACES))
@settings(max_examples=300, deadline=None)
def test_a_fund_move_anywhere_in_an_expression_is_found(expr, place):
    head = ("contract C { mapping(address => uint) bals; uint x;\n"
            "function f(address payable to) public { ")
    statement, offset = _around(place)(expr)
    contract, _, funds = _analyze(head + statement + " } }")
    column = len(head) - head.rindex("\n") + offset
    assert (contract.functions[0].at, 2, column, statement) in [
        (at, evidence.line, evidence.column, evidence.text) for at, evidence in funds]


# The fields of an expression node that hold no expression to walk: its
# span and a name, member, operator or list of option names.
_NOT_CHILDREN = frozenset({"at", "end", "name", "member", "op", "names"})
# The fields that hold a list of expressions.
_LISTS = frozenset({"args", "values"})


def test_a_fund_move_in_any_child_of_any_expression_node_is_found():
    # A send put in each child field of each expression node class, the
    # other fields holding a plain name, is one fund site: a node class
    # added later cannot hide a fund move from the walk.
    source = "contract C { function f(address payable to) public { to.send(1); } }"
    contract, tokens = parse_single_unit(source)
    (stmt,) = contract.functions[0].body
    send = stmt.expr
    name = ast.Identifier(send.at, send.at + 1, "to")
    checked = []
    for cls in ast.Expr.__subclasses__():
        for child in (field for field in cls._fields if field not in _NOT_CHILDREN):
            values = {"at": send.at, "end": send.end, "name": "x", "member": "x", "op": "!",
                      "names": ["gas"], "options": None}
            values.update((field, [] if field in _LISTS else name)
                          for field in cls._fields if field not in values)
            values[child] = [send] if child in _LISTS else ast.Pairs(
                send.at, send.end, ["gas"], [send]) if child == "options" else send
            stmt.expr = cls(*(values[field] for field in cls._fields))
            assert [evidence for _, evidence in _sites(contract, tokens)[1]] == [
                _fund(source, "to.send", "to.send(1);")], (cls, child)
            checked.append((cls.__name__, child))
    assert {("Unary", "operand"), ("Conditional", "condition"), ("Conditional", "if_true"),
            ("Conditional", "if_false"), ("CallExpr", "args"), ("CallExpr", "options"),
            ("Pairs", "values")} <= set(checked)


def test_detector_cost_grows_linearly_with_if_nesting():
    # The lowering, the fund scan and the flow query read each statement and
    # block a bounded number of times, so twice the nesting, or twice the
    # functions, costs about twice the opcodes: a level that re-read the
    # ones inside it, or a dispatcher that gathered every function's guards,
    # would not. Each function's write comes before its guard, so the flow
    # query also looks for the guards after it.
    def cost(depth, functions):
        function = ("function f(address to) public { " + "if (a == b) { x = 1; " * depth
                    + "bals[to] = 0; " + "} " * depth + "require(msg.sender == owner); }\n")
        contract, tokens = parse_single_unit(
            "contract C { address owner; mapping(address => uint) bals;\n"
            + function * functions + "}")
        return opcodes_executed(lambda: _pair_contract(contract, tokens, []))

    assert cost(48, 1) / cost(24, 1) <= 2.2
    assert cost(4, 64) / cost(4, 32) <= 2.2


def test_no_prefix_operator_but_bang_passes_a_sender_comparison_on():
    # Whether it kept or flipped the polarity, one of the two would guard.
    for op in ("-", "~", "+", "delete", "new", "++", "--"):
        for comparison in ("==", "!="):
            _, guards, _ = _analyze("contract C { address owner; function f() public {"
                                    f" require({op} (msg.sender {comparison} owner)); }} }}")
            assert guards == [], (op, comparison)


def test_double_negation_reads_as_its_parity():
    source = ("contract C { address owner; mapping(address => uint) bals;\n"
              "function f(address to) public { require(!!(msg.sender == owner)); "
              "bals[to] = 0; } }")
    (finding,), _ = analyze_solidity_source(source, "a.sol", CONFIG)
    assert (finding.kind, finding.severity) == ("CENTRALIZATION_RISK", "MAJOR")
    assert finding.evidence[0].text == "!!(msg.sender == owner)"


def test_revert_guard_counts_as_require_form():
    source = ("contract C { address owner; function f() public {"
              " if (msg.sender != owner) { revert; } } }")
    contract, guards, _ = _analyze(source)
    assert guards == [(contract.functions[0].at, _guard(source, "if", "msg.sender != owner"))]


def test_neq_if_is_a_guard_whose_else_edge_is_authorized():
    # A stranger takes the then edge of `if (msg.sender != owner)`: a write
    # there, or after the `if` when its then branch goes on, is unguarded;
    # a write in its else branch is the owner's alone.
    source = ("contract C { address owner; mapping(address => uint) bals;\n"
              "function f(address to) public { if (msg.sender != owner) { x = 1; } {} } }")
    contract, guards, _ = _analyze(source)
    assert guards == [(contract.functions[0].at, _guard(source, "if", "msg.sender != owner"))]
    for where, graded in (("{ x = 1; } bals[to] = 0;", "WARNING"),
                          ("{ bals[to] = 0; }", "WARNING"),
                          ("{ x = 1; } else { bals[to] = 0; }", "MAJOR")):
        findings, _ = analyze_solidity_source(
            source.replace("{ x = 1; } {}", where), "c.sol", CONFIG)
        assert [f.severity for f in findings] == [graded], where


def test_tx_origin_is_not_the_sender():
    _, guards, _ = _analyze(
        "contract C { address owner; function f() public {"
        " require(tx.origin == owner); } }")
    assert guards == []


def test_non_mapping_write_is_not_a_fund_site():
    _, _, funds = _analyze(
        "contract C { uint x; function f() public { x = 1; } }")
    assert funds == []


def test_selfdestruct_site():
    source = ("contract C { address owner; function f() public {"
              " selfdestruct(payable(owner)); } }")
    contract, _, funds = _analyze(source)
    statement = "selfdestruct(payable(owner));"
    assert funds == [(contract.functions[0].at, _fund(source, statement, statement))]


def test_native_transfer_sites():
    source = ("contract C { function f(address payable to, uint amt) public {"
              " to.transfer(amt);"
              ' to.call{value: amt}("");'
              " } }")
    _, _, funds = _analyze(source)
    assert [evidence for _, evidence in funds] == [
        _fund(source, "to.transfer", "to.transfer(amt);"),
        _fund(source, "to.call", 'to.call{value: amt}("");')]


def test_legacy_value_call_is_a_native_transfer():
    # Before Solidity 0.7 a call carried its value as `to.call.value(x)(data)`;
    # `value` on another member, or `gas` on `call`, moves no funds.
    source = "contract C {{ function f(address payable to) public {{ {} }} }}"
    legacy = 'to.call.value(1)("");'
    _, _, funds = _analyze(source.format(legacy))
    assert [evidence for _, evidence in funds] == [_fund(source.format(legacy), legacy, legacy)]
    findings, _ = analyze_solidity_source(source.format(legacy), "c.sol", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [
        ("UNPROTECTED_FUND_MODIFICATION", "WARNING")]
    for other in ('to.foo.value(1)("");', 'to.call.gas(1)("");'):
        _, _, funds = _analyze(source.format(other))
        assert funds == [], other


def test_send_in_require_condition_is_found():
    source = ("contract C { function f(address payable to) public {"
              " require(to.send(1)); } }")
    _, _, funds = _analyze(source)
    assert [evidence for _, evidence in funds] == [
        _fund(source, "to.send", "require(to.send(1));")]


def test_fund_call_through_nested_casts_is_found():
    source = ("contract C { function f(uint a) public {"
              " payable(address(uint160(a))).transfer(1); } }")
    _, _, funds = _analyze(source)
    statement = "payable(address(uint160(a))).transfer(1);"
    assert [evidence for _, evidence in funds] == [_fund(source, statement, statement)]


def test_this_balance_on_a_right_hand_side_is_not_a_fund_site():
    _, _, funds = _analyze(
        "contract C { uint total; function f() public { total = address(this).balance; } }")
    assert funds == []


def test_address_payable_key_balance_write_is_major():
    findings, _ = analyze_solidity_source(
        "contract V { address owner; mapping(address payable => uint) bals;"
        " function f(address payable to) public {"
        " require(msg.sender == owner); bals[to] = 0; } }", "v.sol", CONFIG)
    assert [f.kind for f in findings] == ["CENTRALIZATION_RISK"]


def test_unit_suffixed_amount_is_the_whole_fund_site():
    source = ("contract C { mapping(address => uint) bals;"
              " function f(address to) public { bals[to] = 1 ether; } }")
    _, _, funds = _analyze(source)
    statement = "bals[to] = 1 ether;"
    assert [evidence for _, evidence in funds] == [_fund(source, statement, statement)]
    findings, diagnostics = analyze_solidity_source(
        "contract C { address owner; mapping(address => uint) bals;"
        " function f(address to) public { require(msg.sender == owner);"
        " require(block.timestamp > 1 days); bals[to] = 1 ether; } }", "c.sol", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]
    assert diagnostics == []


def test_array_valued_mapping_write_is_no_fund_modification():
    def grades(value_type):
        findings, _ = analyze_solidity_source(
            f"contract C {{ mapping(address => {value_type}) lots;"
            f" function f(address to) public {{ lots[to] = new {value_type}(0); }} }}",
            "c.sol", CONFIG)
        return [(f.kind, f.severity) for f in findings]

    assert grades("uint[]") == []
    assert grades("uint256[]") == []
    assert grades("uint256") == [("UNPROTECTED_FUND_MODIFICATION", "WARNING")]


def test_nested_mapping_write_is_no_fund_site():
    _, _, funds = _analyze(
        "contract C { mapping(address => mapping(address => uint)) allow;"
        " function f(address a, address b) public { allow[a][b] = 1; } }")
    assert funds == []


def test_if_scope_covers_then_branch_only():
    source = ("contract C { mapping(address => uint) bals; address owner;"
              " function f() public {"
              " if (msg.sender == owner) { bals[owner] = 1; }"
              " bals[owner] = 2; } }")
    contract, guards, funds = _analyze(source)
    # The detectors find the guard and both writes; a stranger skips the
    # then branch and reaches the write after it, so the function's finding
    # lists that write alone.
    at = contract.functions[0].at
    assert guards == [(at, _guard(source, "if", "msg.sender == owner"))]
    assert funds == [(at, _fund(source, "bals[owner] = 1;", "bals[owner] = 1;")),
                     (at, _fund(source, "bals[owner] = 2;", "bals[owner] = 2;"))]
    (finding,), _ = analyze_solidity_source(source, "c.sol", CONFIG)
    assert (finding.severity, [e.text for e in finding.evidence]) == (
        "WARNING", ["bals[owner] = 2;"])


def test_eq_comparison_preferred_over_earlier_neq():
    source = ("contract C { address a; address b; function f() public {"
              " if (msg.sender != a && msg.sender == b) { } } }")
    _, guards, _ = _analyze(source)
    assert [evidence for _, evidence in guards] == [
        _guard(source, "if", "msg.sender != a && msg.sender == b")]


def test_else_branch_is_not_guarded_by_condition():
    _, _, funds = _analyze(
        "contract C { mapping(address => uint) bals; address owner;"
        " function f() public {"
        " if (msg.sender == owner) { } else { bals[owner] = 1; } } }")
    assert [evidence.text for _, evidence in funds] == ["bals[owner] = 1;"]


def test_pairing_row1_plus_row4():
    (subject,) = _pair(corpus_text("solidity", "owner_drain.sol"), [])
    assert (subject.line, subject.column, subject.name, subject.detail) == (
        10, 5, "function 'fun'", "")
    assert subject.guards == (Evidence("guard", 6, 9, "msg.sender == owner"),)
    assert subject.funds == (
        Evidence("fund_modification", 11, 9, "bals[to] = bals[to].add(1);"),)


def test_pairing_guard_only_function():
    (subject,) = _pair(corpus_text("solidity", "row2_require.sol"), [])
    assert [e.role for e in subject.guards] == ["guard"] and subject.funds == ()


def test_pairing_unguarded_write():
    # Hand-evaluated pairing rule: no guards anywhere, one fund site in `fun`.
    (subject,) = _pair(corpus_text("solidity", "row4_balance.sol"), [])
    assert subject.name == "function 'fun'"
    assert subject.guards == ()
    assert [e.role for e in subject.funds] == ["fund_modification"]


def test_pairing_keeps_overloads_on_one_line_apart():
    source = ("contract C { mapping(address => uint) b; address owner; "
              "function f() public { require(msg.sender == owner); } "
              "function f(uint x) public { b[msg.sender] = x; } }")
    findings, _ = analyze_solidity_source(source, "c.sol", CONFIG)
    assert [(f.kind, f.line, f.column) for f in findings] == [
        ("PRIVILEGED_FUNCTION", 1, 57),
        ("UNPROTECTED_FUND_MODIFICATION", 1, 111),
    ]
    assert [[e.role for e in f.evidence] for f in findings] == [
        ["guard"], ["fund_modification"]]


def test_pairing_micro_corpus_privilege_matrix():
    # Four functions: guarded+write, guarded only, write only, neither.
    subjects = {s.name: s for s in _pair("""
        contract M {
            address owner;
            mapping(address => uint) bals;
            modifier only_owner { require(msg.sender == owner); _; }
            function gw(address t) public only_owner { bals[t] = 1; }
            function g() public only_owner { }
            function w(address t) public { bals[t] = 2; }
            function n() public { }
        }
    """, [])}
    assert {name: (len(s.guards), len(s.funds)) for name, s in subjects.items()} == {
        "function 'gw'": (1, 1), "function 'g'": (1, 0), "function 'w'": (0, 1)}
    assert subjects["function 'gw'"].guards[0] is subjects["function 'g'"].guards[0]


def test_unknown_modifier_invocation_diagnosed():
    diagnostics = []
    subjects = _pair(
        "contract C { mapping(address => uint) bals;"
        " function f(address t) public ghost { bals[t] = 1; } }", diagnostics)
    assert len(diagnostics) == 1 and "ghost" in diagnostics[0].message
    assert subjects[0].guards == ()


def test_base_constructor_call_is_not_an_unknown_modifier():
    for source in (
        "contract V is Base { constructor(address o) Base(o) {} }",
        # OpenZeppelin 5's Ownable takes its owner as a constructor argument.
        "contract V is ERC20(\"V\", \"V\"), Ownable {"
        " constructor(address initialOwner) Ownable(initialOwner) {} }",
        "contract V is L.Base { constructor(address o) L.Base(o) {} }",
    ):
        diagnostics = []
        _pair(source, diagnostics)
        assert diagnostics == [], source


def test_malformed_modifier_headers():
    # A modifier header is read as a function header is: a stray word is an
    # invocation and the body is still parsed. Only a missing name gets a
    # note of its own.
    def scan(modifier):
        source = ("contract C { address owner; mapping(address => uint) bals;\n"
                  f"{modifier}\nfunction f(address to) public bad {{ bals[to] = 1; }} }}")
        assert type(parse_single_unit(source)[0].modifiers[0]) is ast.FunctionDecl
        findings, diagnostics = analyze_solidity_source(source, "a.sol", CONFIG)
        return [f.severity for f in findings], [(d.message, d.line) for d in diagnostics]

    assert scan("modifier { require(msg.sender == owner); _; }") == (
        ["WARNING"], [("missing modifier name", 2),
                      ("function 'f' invokes unknown modifier 'bad'", 3)])
    assert scan("modifier bad junk { require(msg.sender == owner); _; }") == (["MAJOR"], [])
    assert scan("modifier bad() virtual;") == (["WARNING"], [])


def test_detection_order_is_sorted_and_deterministic():
    source = corpus_text("solidity", "owner_drain.sol")
    runs = []
    for _ in range(2):
        contract, guards, funds = _analyze(source)
        runs.append((guards, funds))
        assert runs[0] == runs[-1]
        for sites in runs[0]:
            positions = [(evidence.line, evidence.column) for _, evidence in sites]
            assert positions == sorted(positions)


def _random_contract(rng: random.Random, guarded_functions: set[int], n: int) -> str:
    lines = ["contract R {", "    address owner;", "    mapping(address => uint) bals;"]
    for i in range(n):
        lines.append(f"    function f{i}(address t) public {{")
        if i in guarded_functions:
            lines.append("        require(msg.sender == owner);")
        if rng.random() < 0.7:
            lines.append("        bals[t] = bals[t].add(1);")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def test_privilege_monotonicity_random_contracts():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        guarded = {i for i in range(n) if rng.random() < 0.5}
        extra = rng.randrange(n)

        def privileged_set(guard_ids):
            subjects = _pair(_random_contract(random.Random(1), guard_ids, n), [])
            return {s.name for s in subjects if s.guards}

        base = privileged_set(guarded)
        assert privileged_set(guarded | {extra}) >= base  # adding never shrinks
        assert privileged_set(set()) == set()  # deleting all guards clears privilege


# Guards are paired by the position of their declaration. Each source maps
# the position of every detected function to the positions of its guards.
PAIRING_SHAPES = [
    # A modifier declared after the function that invokes it.
    ("contract C { address owner;\n"
     "function f() public late { }\n"
     "modifier late { require(msg.sender == owner); _; } }",
     {(2, 1): [(3, 17)]}),
    # Two modifiers with one name: the guards of both attach.
    ("contract C { address a; address b;\n"
     "modifier m { require(msg.sender == a); _; }\n"
     "modifier m { require(msg.sender == b); _; }\n"
     "function f() public m { } }",
     {(4, 1): [(2, 14), (3, 14)]}),
    # Two overloads on one line, each with its own guard.
    ("contract C { address a; address b;\n"
     "function f() public { require(msg.sender == a); } "
     "function f(uint x) public { require(msg.sender == b); } }",
     {(2, 1): [(2, 23)], (2, 51): [(2, 79)]}),
]


def test_pairing_keys_guards_by_declaration():
    for source, expected in PAIRING_SHAPES:
        paired = {(s.line, s.column): [(g.line, g.column) for g in s.guards]
                  for s in _pair(source, [])}
        assert paired == expected, source


def test_base_constructor_with_named_arguments_keeps_the_contract():
    findings, diagnostics = analyze_solidity_source(
        "contract A is B({owner: msg.sender}) { mapping(address=>uint) bals; "
        "function f(address to) public { require(msg.sender == owner); bals[to] = 0; } }",
        "a.sol", CONFIG)
    assert [f.kind for f in findings] == ["CENTRALIZATION_RISK"]
    assert diagnostics == []


def test_unnamed_functions_are_labelled_in_both_kinds():
    findings, _ = analyze_solidity_source(
        "contract C { address owner; mapping(address => uint) bals;\n"
        "receive() external payable { bals[msg.sender] = 1; }\n"
        "fallback() external { require(msg.sender == owner); } }", "c.sol", CONFIG)
    assert [(f.kind, f.line, f.message) for f in findings] == [
        ("UNPROTECTED_FUND_MODIFICATION", 2,
         "unnamed function modifies funds without a sender guard"),
        ("PRIVILEGED_FUNCTION", 3, "unnamed function is restricted to a privileged sender"),
    ]


def test_unnamed_function_invoking_an_unknown_modifier_is_noted_as_unnamed():
    # The note names the function as its finding would.
    _, diagnostics = analyze_solidity_source(
        "contract C { mapping(address => uint) bals;\n"
        "constructor() initializer { }\n"
        "receive() external payable onlyOwner { }\n"
        "fallback() external whenLive { }\n"
        "function f() public initializer { } }", "c.sol", CONFIG)
    assert [(d.message, d.line) for d in diagnostics] == [
        ("unnamed function invokes unknown modifier 'initializer'", 2),
        ("unnamed function invokes unknown modifier 'onlyOwner'", 3),
        ("unnamed function invokes unknown modifier 'whenLive'", 4),
        ("function 'f' invokes unknown modifier 'initializer'", 5),
    ]


def test_evidence_text_is_single_line():
    findings, _ = analyze_solidity_source(
        "contract C { mapping(address => uint) bals;\n"
        "function f(address t) public {\n"
        "bals[t] =\n    bals[t].add(1); } }", "x.sol", CONFIG)
    assert findings[0].evidence[0].text == "bals[t] = bals[t].add(1);"


def test_evidence_text_is_cut_to_120_characters():
    def fund_text(statement):
        (subject,) = _pair("contract C { mapping(address => uint) bals;"
                           f" function f(address t) public {{ {statement} }} }}", [])
        return subject.funds[0].text

    long, limit = f"bals[t] = {'7' * 119};", f"bals[t] = {'7' * 109};"
    assert (len(long), len(limit)) == (130, 120)
    assert fund_text(long) == long[:117] + "..."
    assert fund_text(limit) == limit
