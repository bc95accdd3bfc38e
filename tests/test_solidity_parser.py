"""Parser structure, recovery, totality, and the recognized subset's trees."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.solidity import ast
from centriscan.solidity.parser import parse_solidity
from centriscan.solidity.tokens import tokenize

from helpers import (
    SOLIDITY_FRAGMENTS,
    ast_equal,
    corpus_text,
    parse_function_body,
    parse_single_contract,
)


def test_minimal_contract():
    unit = parse_solidity("contract C {}", "c.sol")
    assert len(unit.contracts) == 1
    assert unit.contracts[0].name == "C"
    assert unit.contracts[0].functions == []
    assert unit.diagnostics == []


def test_row1_structure():
    contract = parse_single_contract(corpus_text("solidity", "row1_only_owner.sol"))
    assert [m.name for m in contract.modifiers] == ["only_owner"]
    body = contract.modifiers[0].body
    assert len(body) == 2
    require, placeholder = body
    assert isinstance(require, ast.Require)
    assert isinstance(require.condition, ast.Binary) and require.condition.op == "=="
    assert isinstance(require.condition.lhs, ast.MsgSender)
    assert isinstance(require.condition.rhs, ast.Identifier)
    assert require.condition.rhs.name == "owner"
    assert isinstance(placeholder, ast.Placeholder)
    assert [f.name for f in contract.functions] == ["fun"]
    assert contract.functions[0].modifier_invocations == ["only_owner"]


def test_row2_condition_shape():
    contract = parse_single_contract(corpus_text("solidity", "row2_require.sol"))
    stmt = contract.functions[0].body[0]
    assert isinstance(stmt, ast.Require)
    assert isinstance(stmt.condition, ast.Binary) and stmt.condition.op == "=="
    assert isinstance(stmt.condition.lhs, ast.AddressCast)
    assert isinstance(stmt.condition.rhs, ast.MsgSender)


def test_assembly_recovery_at_member_level():
    unit = parse_solidity("contract C { assembly {??? } }", "c.sol")
    assert len(unit.contracts) == 1
    assert len(unit.diagnostics) >= 1
    assert unit.contracts[0].functions == []


def test_assembly_recovery_in_function_body():
    body = parse_function_body("assembly {??? }\nx = 1;")
    assert any(isinstance(s, ast.Opaque) for s in body)


def test_recovery_isolation():
    before = parse_function_body("require(msg.sender == owner);\nowner = to;")
    after = parse_function_body(
        "require(msg.sender == owner);\nassembly {??? }\nowner = to;")
    recognized = [s for s in after if not isinstance(s, ast.Opaque)]
    assert ast_equal(before, recognized)


def test_visibility_keywords_filtered_from_invocations():
    contract = parse_single_contract(
        "contract C { modifier m { _; } "
        "function f() public payable m virtual override(Base) external {} }")
    assert contract.functions[0].modifier_invocations == ["m"]


def test_modifier_invocation_with_arguments():
    contract = parse_single_contract(
        "contract C { modifier m(uint x) { _; } function f() public m(1) {} }")
    assert contract.functions[0].modifier_invocations == ["m"]


def test_constructor_and_fallback_have_empty_names():
    contract = parse_single_contract(
        "contract C { constructor() { } fallback() external { } receive() external payable { } }")
    assert [f.name for f in contract.functions] == ["", "", ""]


def test_state_variable_shapes():
    contract = parse_single_contract("""
        contract C {
            uint public x = 5;
            mapping(address => uint) bals;
            mapping(address => mapping(address => uint)) allow;
            uint[] arr;
            IERC20 token;
        }
    """)
    descs = {v.name: v.type_desc for v in contract.state_vars}
    assert descs["x"].kind == "elementary"
    assert descs["bals"].kind == "mapping"
    assert descs["bals"].key.name == "address"
    assert descs["bals"].value.name == "uint"
    assert descs["allow"].value.kind == "mapping"
    assert descs["arr"].kind == "other"
    assert descs["token"].kind == "other"


def test_unchecked_block_is_transparent():
    body = parse_function_body("unchecked { x = 1; }")
    assert len(body) == 1 and isinstance(body[0], ast.Assign)


def test_if_else_structure():
    body = parse_function_body(
        "if (msg.sender == owner) { x = 1; } else { x = 2; }")
    assert len(body) == 1
    stmt = body[0]
    assert isinstance(stmt, ast.If)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1


def test_compound_assignment_and_rvalue_call():
    body = parse_function_body("bals[to] += bals[to].add(1);")
    stmt = body[0]
    assert isinstance(stmt, ast.Assign)
    assert stmt.op == "+="
    assert isinstance(stmt.lvalue, ast.Index)
    assert isinstance(stmt.rvalue, ast.CallExpr)


def test_call_options_block():
    body = parse_function_body('to.call{value: amount}("");')
    stmt = body[0]
    assert isinstance(stmt, ast.Call)
    assert isinstance(stmt.expr, ast.CallExpr)
    assert stmt.expr.options is not None and "value" in stmt.expr.options


def test_loops_become_opaque():
    body = parse_function_body("for (uint i = 0; i < n; i++) { bals[i] = 0; }")
    assert len(body) == 1 and isinstance(body[0], ast.Opaque)


def _notes(unit):
    return [(d.message, d.line, d.column) for d in unit.diagnostics]


def test_recovery_steps_over_a_stray_closer():
    unit = parse_solidity(
        "contract C { function f() public { emit Log(a)); bals[to] = 1; } }", "c.sol")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Opaque, ast.Assign]
    assert body[0].text == "emit Log(a));"
    assert _notes(unit) == [("statement outside recognized subset", 1, 36)]


def test_state_variable_initializer_stops_at_contract_close():
    unit = parse_solidity("contract C { uint x = f(a) } uint y;", "c.sol")
    assert [c.name for c in unit.contracts] == ["C"]
    assert unit.contracts[0].state_vars == []
    assert _notes(unit) == [
        ("skipped unrecognized contract member", 1, 14),
        ("skipped unrecognized top-level construct", 1, 30),
    ]


def test_require_message_is_skipped_to_its_closing_paren():
    unit = parse_solidity(
        'contract C { function f() public { require(c, g(";"), x); '
        "require(c, a; b); y = 1; } }", "c.sol")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Require, ast.Require, ast.Assign]
    assert body[0].text == 'require(c, g(";"), x);'
    assert body[1].text == "require(c, a; b);"
    assert unit.diagnostics == []


def test_depth_limit_scan_steps_over_braces():
    # Past the depth limit the rest of the expression is scanned as opaque
    # text; call options `{...}` inside it must not end the scan.
    nested = "o.g{value: 1}(" * 60 + "a" + ")" * 60
    unit = parse_solidity(
        "contract C { function f() public { x = " + nested + "; } }", "c.sol")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Assign]
    assert body[0].text == "x = " + nested + ";"
    assert unit.diagnostics == []


def test_msg_sender_requires_exact_token_sequence():
    body = parse_function_body("require(other.sender == owner);")
    cond = body[0].condition
    assert isinstance(cond.lhs, ast.Member)
    assert not isinstance(cond.lhs, ast.MsgSender)


def test_locations_inside_source_bounds():
    src = corpus_text("solidity", "owner_drain.sol")
    unit = parse_solidity(src, "x.sol")
    lines = src.splitlines() or [""]

    def check(line, column):
        assert 1 <= line <= len(lines)
        assert 1 <= column <= len(lines[line - 1]) + 1

    def walk(node):
        if isinstance(node, list):
            for item in node:
                walk(item)
            return
        if isinstance(node, (ast.Stmt, ast.Expr)):
            check(node.line, node.column)
        for attr in ("condition", "then_body", "else_body", "lvalue", "rvalue",
                     "expr", "callee", "args", "base", "index", "inner",
                     "lhs", "rhs", "body"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child)

    for contract in unit.contracts:
        check(contract.line, contract.column)
        for var in contract.state_vars:
            check(var.line, var.column)
        for modifier in contract.modifiers:
            check(modifier.line, modifier.column)
            walk(modifier.body)
        for function in contract.functions:
            check(function.line, function.column)
            walk(function.body)


# The token fragments plus the brackets, operators and keywords that open
# every statement and expression form, so parsed nodes and recovery meet
# comments, `\r\n` and unterminated strings between their tokens.
_PARSER_FRAGMENTS = SOLIDITY_FRAGMENTS + (
    "{", "}", ")", "[", "]", ";", ",", "=", "+=", "==", "!=", "&&", "+", "!", "?", ":",
    "function f() public ", "modifier m() ", "if", "else", "return", "revert", "_;",
    "address", "payable", "transfer", "{value: 1}", "x",
)
_PARSER_SOURCES = st.lists(st.sampled_from(_PARSER_FRAGMENTS), max_size=60).map("".join)


def _offset(src: str, line: int, column: int) -> int:
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    return line_starts[line - 1] + column - 1


def _stmt_and_expr_nodes(nodes):
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, (ast.Stmt, ast.Expr)):
            yield node
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))


@given(st.one_of(
    _PARSER_SOURCES,
    _PARSER_SOURCES.map(lambda body: "contract C { function f() public {\r\n" + body),
))
# A node that starts with a parenthesized operand sits on the `(`.
@example("contract C { function f() public { x = (a) == b; (to).transfer(1); (c ? d : e); } }")
@example("/* only */ // comments\r\n")
@settings(max_examples=400, deadline=None)
def test_node_positions_locate_their_text(src):
    unit = parse_solidity(src, "p.sol")
    bodies = [decl.body for c in unit.contracts for decl in (*c.modifiers, *c.functions)]
    for node in _stmt_and_expr_nodes(bodies):
        if node.text:
            assert src.startswith(node.text, _offset(src, node.line, node.column)), node
    # A diagnostic sits on a token; one made at the end of input sits on the
    # last token, and with no token at all on (1, 1).
    positions = [(src.count("\n", 0, t.start) + 1, t.start - src.rfind("\n", 0, t.start))
                 for t in tokenize(src) if t.kind != "comment"] or [(1, 1)]
    for diag in unit.diagnostics:
        assert (diag.line, diag.column) in positions, diag
        if diag.message.endswith("at end of input"):
            assert (diag.line, diag.column) == positions[-1], diag


def _id(name: str) -> ast.Identifier:
    return ast.Identifier(0, 0, "", name)


def _eq(lhs: ast.Expr, rhs: ast.Expr) -> ast.Binary:
    return ast.Binary(0, 0, "", "==", lhs, rhs)


def _index(base: ast.Expr, index: ast.Expr) -> ast.Index:
    return ast.Index(0, 0, "", base, index)


def _call(callee: ast.Expr, *args: ast.Expr) -> ast.CallExpr:
    return ast.CallExpr(0, 0, "", callee, list(args))


# Each recognized statement form and the tree it must parse to; ast_equal
# ignores positions and the echoed source text of structured nodes.
_SENDER = ast.MsgSender(0, 0, "")
SUBSET_TREES = {
    "require(msg.sender == owner);":
        ast.Require(0, 0, "", _eq(_SENDER, _id("owner"))),
    "require((owner == msg.sender) && (a == b));":
        ast.Require(0, 0, "", ast.Binary(
            0, 0, "", "&&", _eq(_id("owner"), _SENDER), _eq(_id("a"), _id("b")))),
    "require(address(owner) == msg.sender);":
        ast.Require(0, 0, "", _eq(ast.AddressCast(0, 0, "", _id("owner")), _SENDER)),
    "if (msg.sender == owner) { bals[to] = 1; }":
        ast.If(0, 0, "", _eq(_SENDER, _id("owner")),
               [ast.Assign(0, 0, "", _index(_id("bals"), _id("to")),
                           ast.Literal(0, 0, "1"), "=")],
               []),
    "if (msg.sender != owner) { revert; } else { x = 1; }":
        ast.If(0, 0, "", ast.Binary(0, 0, "", "!=", _SENDER, _id("owner")),
               [ast.Revert(0, 0, "")],
               [ast.Assign(0, 0, "", _id("x"), ast.Literal(0, 0, "1"), "=")]),
    "bals[to] = bals[to].add(amount);":
        ast.Assign(0, 0, "", _index(_id("bals"), _id("to")),
                   _call(ast.Member(0, 0, "", _index(_id("bals"), _id("to")), "add"),
                         _id("amount")),
                   "="),
    "bals[msg.sender] += 1;":
        ast.Assign(0, 0, "", _index(_id("bals"), _SENDER), ast.Literal(0, 0, "1"), "+="),
    "to.transfer(amount);":
        ast.Call(0, 0, "", _call(ast.Member(0, 0, "", _id("to"), "transfer"), _id("amount"))),
    "selfdestruct(beneficiary);":
        ast.Call(0, 0, "", _call(_id("selfdestruct"), _id("beneficiary"))),
    "return;": ast.Return(0, 0, ""),
    "revert;": ast.Revert(0, 0, ""),
    "_;": ast.Placeholder(0, 0, ""),
}


def test_subset_statement_trees():
    for stmt_src, expected in SUBSET_TREES.items():
        parsed = parse_function_body(stmt_src)
        assert ast_equal(parsed, [expected]), (stmt_src, parsed)


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_parse_totality(src):
    unit = parse_solidity(src, "fuzz.sol")
    assert isinstance(unit, ast.SourceUnit)


@given(st.text(
    alphabet=st.sampled_from(list("contract{}();=mapingfunction modifierqrsuv_ \n.[]&|!")),
    max_size=200,
))
@settings(max_examples=300, deadline=None)
def test_parse_totality_structured_alphabet(src):
    unit = parse_solidity(src, "fuzz.sol")
    assert isinstance(unit, ast.SourceUnit)
