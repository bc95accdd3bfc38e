"""Parser structure, recovery, totality, and the recognized subset's trees."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source
from centriscan.solidity import ast
from centriscan.solidity.parser import parse_solidity
from centriscan.solidity.tokens import tokenize

from helpers import (
    SOLIDITY_FRAGMENTS,
    ast_equal,
    corpus_text,
    parse_function,
    parse_function_body,
    parse_single_contract,
    readme_python_block,
)


def test_minimal_contract():
    unit = parse_solidity("contract C {}")
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
    cast = stmt.condition.lhs
    assert isinstance(cast, ast.CallExpr) and isinstance(cast.callee, ast.Identifier)
    assert cast.callee.name == "address"
    assert isinstance(stmt.condition.rhs, ast.MsgSender)


def test_casts_are_calls_on_keyword_identifiers():
    for cast in ("address", "payable"):
        body, tokens = parse_function(f"y = {cast}(x);")
        call = body[0].rvalue
        assert isinstance(call, ast.CallExpr), cast
        assert isinstance(call.callee, ast.Identifier) and call.callee.name == cast
        assert tokens.kinds[call.callee.at] == "keyword"
        assert [type(a) for a in call.args] == [ast.Identifier] and call.args[0].name == "x"


def test_inheritance_list_records_base_names_in_order():
    assert parse_single_contract("contract C is A, B(1) { }").bases == ["A", "B"]
    assert parse_single_contract(
        "contract C is L.A, B({x: 1}) { function f() public {} }").bases == ["L.A", "B"]
    assert parse_single_contract("contract C { }").bases == []


def test_assembly_recovery_at_member_level():
    unit = parse_solidity("contract C { assembly {??? } }")
    assert len(unit.contracts) == 1
    assert len(unit.diagnostics) >= 1
    assert unit.contracts[0].functions == []


def test_assembly_recovery_in_function_body():
    body = parse_function_body("assembly {??? }\nx = 1;")
    assert any(isinstance(s, ast.Opaque) for s in body)


def test_recovery_isolation():
    before, before_tokens = parse_function("require(msg.sender == owner);\nowner = to;")
    after, after_tokens = parse_function(
        "require(msg.sender == owner);\nassembly {??? }\nowner = to;")
    recognized = [s for s in after if not isinstance(s, ast.Opaque)]
    assert ast_equal(before, recognized, before_tokens, after_tokens)


def test_visibility_keywords_filtered_from_invocations():
    contract = parse_single_contract(
        "contract C { modifier m { _; } "
        "function f() public payable m virtual override(Base) external {} }")
    assert contract.functions[0].modifier_invocations == ["m"]


def test_modifier_invocation_with_arguments():
    contract = parse_single_contract(
        "contract C { modifier m(uint x) { _; } function f() public m(1) {} }")
    assert contract.functions[0].modifier_invocations == ["m"]


def test_qualified_invocation_is_one_name():
    unit = parse_solidity("contract C is L.B { constructor() L.B(1) m {} }")
    assert unit.contracts[0].functions[0].modifier_invocations == ["L.B", "m"]
    assert unit.diagnostics == []


def test_constructor_and_fallback_have_empty_names():
    contract = parse_single_contract(
        "contract C { constructor() { } fallback() external { } receive() external payable { } }")
    assert [f.name for f in contract.functions] == ["", "", ""]


def test_state_variable_shapes():
    unit = parse_solidity("""
        contract C {
            uint public x = 5;
            mapping(address => uint) bals;
            mapping(address => mapping(address => uint)) allow;
            uint[] arr;
            IERC20 token;
            address payable immutable wallet;
        }
    """)
    tokens = unit.tokens
    # Each state variable's at is its name token; its type is a token span.
    assert [(tokens.texts[v.at], v.name, tokens.text(v.type_at, v.type_end))
            for v in unit.contracts[0].state_vars] == [
        ("x", "x", "uint"),
        ("bals", "bals", "mapping(address => uint)"),
        ("allow", "allow", "mapping(address => mapping(address => uint))"),
        ("arr", "arr", "uint[]"),
        ("token", "token", "IERC20"),
        ("wallet", "wallet", "address payable"),
    ]


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
    body, tokens = parse_function("bals[to] += bals[to].add(1);")
    stmt = body[0]
    assert isinstance(stmt, ast.Assign)
    assert tokens.texts[stmt.lvalue.end] == "+="  # the operator follows the lvalue
    assert isinstance(stmt.lvalue, ast.Index)
    assert isinstance(stmt.rvalue, ast.CallExpr)


def test_number_unit_is_part_of_its_literal():
    for stmt_src, literal in [("bals[to] = 1 ether;", "1 ether"),
                              ("x = 2 days;", "2 days"),
                              ("x = 1e18 wei;", "1e18 wei")]:
        unit = parse_solidity(
            "contract W { function w() public {\n" + stmt_src + "\n} }")
        assert unit.diagnostics == [], stmt_src
        (stmt,) = unit.contracts[0].functions[0].body
        assert isinstance(stmt, ast.Assign), stmt_src
        assert isinstance(stmt.rvalue, ast.OpaqueExpr), stmt_src
        assert unit.tokens.text(stmt.rvalue.at, stmt.rvalue.end) == literal
    unit = parse_solidity(
        "contract W { function w() public { require(block.timestamp > 1 days); } }")
    assert unit.diagnostics == []
    assert isinstance(unit.contracts[0].functions[0].body[0], ast.Require)


def test_call_options_block():
    body, tokens = parse_function('to.call{value: amount}(""); to.call("");')
    options, plain = (stmt.expr for stmt in body)
    assert isinstance(options, ast.CallExpr) and isinstance(plain, ast.CallExpr)
    # The options block is a span, as every other region of source.
    assert isinstance(options.options, ast.OpaqueExpr)
    assert tokens.text(options.options.at, options.options.end) == "{value: amount}"
    assert plain.options is None


def test_loops_become_opaque():
    body = parse_function_body("for (uint i = 0; i < n; i++) { bals[i] = 0; }")
    assert len(body) == 1 and isinstance(body[0], ast.Opaque)


def _notes(unit):
    return [(d.message, d.line, d.column) for d in unit.diagnostics]


def test_recovery_steps_over_a_stray_closer():
    unit = parse_solidity(
        "contract C { function f() public { emit Log(a)); bals[to] = 1; } }")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Opaque, ast.Assign]
    assert unit.tokens.text(body[0].at, body[0].end) == "emit Log(a));"
    assert _notes(unit) == [("statement outside recognized subset", 1, 36)]


def test_bodiless_function_header_stops_at_the_contract_close():
    # The header gives up at `}` (or at the next contract keyword) and
    # leaves it, so the contract ends there and the next one parses whole.
    source = ("contract A { function f() }\n"
              "contract B { mapping(address => uint) bals; "
              "function g(address t) public { bals[t] = 0; } }\n")
    unit = parse_solidity(source)
    assert [(c.name, [f.name for f in c.functions]) for c in unit.contracts] == [
        ("A", ["f"]), ("B", ["g"])]
    assert unit.contracts[0].functions[0].body == []
    assert _notes(unit) == [("function header ended by '}' before a body", 1, 27)]
    findings, _ = analyze_solidity_source(source, "ab.sol", AnalyzerConfig())
    assert [(f.severity, f.line, f.column) for f in findings] == [("WARNING", 2, 45)]
    unit = parse_solidity("contract A { function f() public\ncontract B {}")
    assert _notes(unit)[0] == ("function header ended by 'contract' before a body", 2, 1)


def test_unterminated_contract_ends_before_the_next_contract_keyword():
    # The member loop leaves a depth-0 unit keyword to the top level, so a
    # contract cut off after a bodiless header does not swallow the next one.
    source = ("contract A { function f() public\n"
              "contract B { mapping(address => uint) bals; "
              "function g(address t) public { bals[t] = 0; } }\n")
    unit = parse_solidity(source)
    assert [(c.name, [f.name for f in c.functions]) for c in unit.contracts] == [
        ("A", ["f"]), ("B", ["g"])]
    assert _notes(unit) == [("function header ended by 'contract' before a body", 2, 1),
                            ("unterminated contract 'A' before 'contract'", 2, 1)]
    findings, _ = analyze_solidity_source(source, "ab.sol", AnalyzerConfig())
    assert [(f.severity, f.line, f.column) for f in findings] == [("WARNING", 2, 45)]


def test_state_variable_initializer_stops_at_contract_close():
    unit = parse_solidity("contract C { uint x = f(a) } uint y;")
    assert [c.name for c in unit.contracts] == ["C"]
    assert unit.contracts[0].state_vars == []
    assert _notes(unit) == [
        ("skipped unrecognized contract member", 1, 14),
        ("skipped unrecognized top-level construct", 1, 30),
    ]


def test_members_that_hold_no_code_are_skipped_without_a_note():
    unit = parse_solidity(
        "contract C { event Moved(address indexed to, uint amount);\n"
        "struct Lot { address who; uint amount; }\n"
        "error Denied(address who);\n"
        "enum State { Open, Closed }\n"
        "using SafeMath for uint;\n"
        "mapping(address => uint) bals;\n"
        "function f(address to) public { bals[to] = 0; } }")
    (contract,) = unit.contracts
    assert [v.name for v in contract.state_vars] == ["bals"]
    assert [f.name for f in contract.functions] == ["f"]
    assert _notes(unit) == []


def test_file_level_definitions_that_hold_no_code_are_skipped_without_a_note():
    unit = parse_solidity(
        "pragma solidity ^0.8.20;\n"
        "error Denied(address who);\n"
        "struct Lot { address who; uint amount; }\n"
        "enum State { Open, Closed }\n"
        "event Moved(address indexed to, uint amount);\n"
        "using {add} for P global;\n"
        "type P is uint128;\n"
        "uint constant LIMIT = 1;\n"
        "function add(P a, P b) pure returns (P) { return a; }\n"
        "contract C { type Q is uint; using {add} for P;\n"
        "mapping(address => uint) bals; }\n"
        "error Late()\n"  # without its `;`, a definition ends where a contract starts
        "contract D {}")
    assert [c.name for c in unit.contracts] == ["C", "D"]
    assert [v.name for v in unit.contracts[0].state_vars] == ["bals"]
    # A file-level constant and a free function hold code, and keep their note.
    assert _notes(unit) == [("skipped unrecognized top-level construct", 8, 1),
                            ("skipped unrecognized top-level construct", 9, 1)]


_VAULT = ("contract V { mapping(address => uint) bals;\n"
          "function f(address to) public { bals[to] = 0; } }")


def test_a_construct_left_open_ends_where_a_contract_starts():
    # No unit start sits inside a bracket, so file-level recovery stops at
    # one at any depth: the contract after the open construct is analyzed,
    # and its unguarded write gives its WARNING. A definition cut short so
    # gets one note; a free function keeps its own.
    for opening, notes in [
        ("error E(\n", [("unterminated 'error' before 'contract'", 2, 1)]),
        ("function g() pure { uint x = (1; }\n",
         [("skipped unrecognized top-level construct", 1, 1)]),
        ('import {A from "a.sol";\n', [("unterminated 'import' before 'contract'", 2, 1)]),
    ]:
        findings, diagnostics = analyze_solidity_source(opening + _VAULT, "v.sol",
                                                        AnalyzerConfig())
        assert [(f.severity, f.line) for f in findings] == [("WARNING", 3)], opening
        assert [(d.message, d.line, d.column) for d in diagnostics] == notes, opening


def test_import_with_braces_is_skipped_to_its_semicolon():
    unit = parse_solidity('pragma solidity ^0.8.0;\nimport {Ownable} from "./Ownable.sol";\n'
                          "contract V is Ownable {}")
    assert [(c.name, c.bases) for c in unit.contracts] == [("V", ["Ownable"])]
    assert _notes(unit) == []
    # Without its `;`, a directive still ends where a contract starts.
    assert [c.name for c in parse_solidity("pragma solidity ^0.8.0\ncontract V {}").contracts] \
        == ["V"]


def test_top_level_recovery_stops_before_a_contract():
    unit = parse_solidity("@ contract V { mapping(address => uint) bals; "
                          "function drain(address to) public { bals[to] = 0; } }")
    assert [c.name for c in unit.contracts] == ["V"]
    assert [f.name for f in unit.contracts[0].functions] == ["drain"]
    assert _notes(unit) == [("skipped unrecognized top-level construct", 1, 1)]


def test_file_level_function_is_skipped_whole():
    unit = parse_solidity("function f() pure returns (uint) { contract_ = 1; return 1; }\n"
                          "contract V {}")
    assert [c.name for c in unit.contracts] == ["V"]
    assert _notes(unit) == [("skipped unrecognized top-level construct", 1, 1)]


def test_require_message_is_skipped_to_its_closing_paren():
    unit = parse_solidity(
        'contract C { function f() public { require(c, g(";"), x); '
        "require(c, a; b); y = 1; } }")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Require, ast.Require, ast.Assign]
    assert unit.tokens.text(body[0].at, body[0].end) == 'require(c, g(";"), x);'
    assert unit.tokens.text(body[1].at, body[1].end) == "require(c, a; b);"
    assert unit.diagnostics == []


def test_depth_limit_scan_steps_over_braces():
    # Past the depth limit the rest of the expression is scanned as opaque
    # text; call options `{...}` inside it must not end the scan.
    nested = "o.g{value: 1}(" * 60 + "a" + ")" * 60
    unit = parse_solidity(
        "contract C { function f() public { x = " + nested + "; } }")
    body = unit.contracts[0].functions[0].body
    assert [type(s) for s in body] == [ast.Assign]
    assert unit.tokens.text(body[0].at, body[0].end) == "x = " + nested + ";"
    assert unit.diagnostics == []


def test_msg_sender_requires_exact_token_sequence():
    body = parse_function_body("require(other.sender == owner);")
    cond = body[0].condition
    assert isinstance(cond.lhs, ast.Member)
    assert not isinstance(cond.lhs, ast.MsgSender)


def test_locations_inside_source_bounds():
    src = corpus_text("solidity", "owner_drain.sol")
    unit = parse_solidity(src)
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
            check(*unit.tokens.position(node.at))
        for attr in ("condition", "then_body", "else_body", "lvalue", "rvalue",
                     "expr", "callee", "args", "base", "index",
                     "lhs", "rhs", "body"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child)

    for contract in unit.contracts:
        check(*unit.tokens.position(contract.at))
        for var in contract.state_vars:
            check(*unit.tokens.position(var.at))
        for modifier in contract.modifiers:
            check(*unit.tokens.position(modifier.at))
            walk(modifier.body)
        for function in contract.functions:
            check(*unit.tokens.position(function.at))
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
            stack.extend(getattr(node, name) for name in node._fields)


@given(st.one_of(
    _PARSER_SOURCES,
    _PARSER_SOURCES.map(lambda body: "contract C { function f() public {\r\n" + body),
))
# A node that starts with a parenthesized operand sits on the `(`.
@example("contract C { function f() public { x = (a) == b; (to).transfer(1); (c ? d : e); } }")
@example("/* only */ // comments\r\n")
# Node text is a slice of the source, so a comment between tokens stays in it.
@example("contract C { function f() public { require(msg.sender /* c */ == owner); } }")
@settings(max_examples=400, deadline=None)
def test_node_positions_locate_their_text(src):
    unit = parse_solidity(src)
    tokens = unit.tokens
    bodies = [decl.body for c in unit.contracts for decl in (*c.modifiers, *c.functions)]
    for node in _stmt_and_expr_nodes(bodies):
        assert 0 <= node.at <= node.end <= len(tokens), node
        text = tokens.text(node.at, node.end)
        if text:
            assert src.startswith(text, _offset(src, *tokens.position(node.at))), node
    # A diagnostic sits on a token; one made at the end of input sits on the
    # last token, and with no token at all on (1, 1).
    positions = [(src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start))
                 for start in tokenize(src).starts] or [(1, 1)]
    for diag in unit.diagnostics:
        assert (diag.line, diag.column) in positions, diag
        if diag.message.endswith("at end of input"):
            assert (diag.line, diag.column) == positions[-1], diag


def _id(name: str) -> ast.Identifier:
    return ast.Identifier(0, 0, name)


def _eq(lhs: ast.Expr, rhs: ast.Expr) -> ast.Binary:
    return ast.Binary(0, 0, "==", lhs, rhs)


def _index(base: ast.Expr, index: ast.Expr) -> ast.Index:
    return ast.Index(0, 0, base, index)


def _call(callee: ast.Expr, *args: ast.Expr) -> ast.CallExpr:
    return ast.CallExpr(0, 0, callee, list(args), None)


# Each recognized statement form and the tree it must parse to; ast_equal
# ignores spans, and compares the source text only of content nodes. The
# expected trees' one content node, the literal `1`, is token 0 of _ONE_TOKENS.
_ONE_TOKENS = tokenize("1")
_ONE = ast.OpaqueExpr(0, 1)
_SENDER = ast.MsgSender(0, 0)
SUBSET_TREES = {
    "require(msg.sender == owner);":
        ast.Require(0, 0, _eq(_SENDER, _id("owner"))),
    "require(!(msg.sender != owner));":
        ast.Require(0, 0, ast.Not(0, 0, ast.Binary(0, 0, "!=", _SENDER, _id("owner")))),
    "require((owner == msg.sender) && (a == b));":
        ast.Require(0, 0, ast.Binary(
            0, 0, "&&", _eq(_id("owner"), _SENDER), _eq(_id("a"), _id("b")))),
    "require(address(owner) == msg.sender);":
        ast.Require(0, 0, _eq(_call(_id("address"), _id("owner")), _SENDER)),
    "if (msg.sender == owner) { bals[to] = 1; }":
        ast.If(0, 0, _eq(_SENDER, _id("owner")),
               [ast.Assign(0, 0, _index(_id("bals"), _id("to")), _ONE)],
               []),
    "if (msg.sender != owner) { revert; } else { x = 1; }":
        ast.If(0, 0, ast.Binary(0, 0, "!=", _SENDER, _id("owner")),
               [ast.Revert(0, 0)],
               [ast.Assign(0, 0, _id("x"), _ONE)]),
    "bals[to] = bals[to].add(amount);":
        ast.Assign(0, 0, _index(_id("bals"), _id("to")),
                   _call(ast.Member(0, 0, _index(_id("bals"), _id("to")), "add"),
                         _id("amount"))),
    "bals[msg.sender] += 1;":
        ast.Assign(0, 0, _index(_id("bals"), _SENDER), _ONE),
    "to.transfer(amount);":
        ast.Call(0, 0, _call(ast.Member(0, 0, _id("to"), "transfer"), _id("amount"))),
    "selfdestruct(beneficiary);":
        ast.Call(0, 0, _call(_id("selfdestruct"), _id("beneficiary"))),
    "return;": ast.Return(0, 0),
    "revert;": ast.Revert(0, 0),
    "_;": ast.Placeholder(0, 0),
}


def test_subset_statement_trees():
    for stmt_src, expected in SUBSET_TREES.items():
        parsed, tokens = parse_function(stmt_src)
        assert ast_equal(parsed, [expected], tokens, _ONE_TOKENS), (stmt_src, parsed)


def test_a_run_of_bangs_parses_to_negations_by_parity():
    # An odd run of `!` is one Not, an even run two nested ones; each spans
    # the whole run and its operand. Any other prefix chain stays opaque.
    flag = ast.Member(0, 0, _id("paused"), "flag")
    for bangs, expected in (("!", ast.Not(0, 0, flag)),
                            ("!!", ast.Not(0, 0, ast.Not(0, 0, flag))),
                            ("!!!", ast.Not(0, 0, flag)),
                            ("!!!!", ast.Not(0, 0, ast.Not(0, 0, flag)))):
        (stmt,), tokens = parse_function(f"x = {bangs}paused.flag;")
        assert ast_equal(stmt.rvalue, expected, tokens, _ONE_TOKENS), bangs
        node = stmt.rvalue
        while isinstance(node, ast.Not):
            assert tokens.text(node.at, node.end) == f"{bangs}paused.flag"
            node = node.operand
    for src in ("x = -y;", "x = !-y;", "x = !!-y;"):
        (stmt,), tokens = parse_function(src)
        assert isinstance(stmt.rvalue, ast.OpaqueExpr), src
        assert tokens.text(stmt.rvalue.at, stmt.rvalue.end) == src[4:-1]


def test_delete_and_steps_parse_to_assignments():
    # `delete x;` and `++`/`--` on either side of x write to x: an Assign
    # whose rvalue is the operator token. Other shapes with them stay opaque.
    bal = _index(_id("bals"), _id("to"))
    for src, lvalue, op in (("delete bals[to];", bal, "delete"), ("bals[to]++;", bal, "++"),
                            ("++bals[to];", bal, "++"), ("bals[to]--;", bal, "--"),
                            ("--bals[to];", bal, "--"), ("delete x;", _id("x"), "delete"),
                            ("(a.b)++;", ast.Member(0, 0, _id("a"), "b"), "++")):
        (stmt,), tokens = parse_function(src)
        assert isinstance(stmt, ast.Assign), src
        assert ast_equal(stmt.lvalue, lvalue, tokens, _ONE_TOKENS), src
        assert tokens.text(stmt.at, stmt.end) == src
        assert tokens.text(stmt.rvalue.at, stmt.rvalue.end) == op
    for src in ("a + b++;", "delete x + 1;", "++--x;", "x++ + 1;", "f()++;", "++;",
                "delete !x;", "x++", "for (;; i++) {}"):
        (stmt, *_), _ = parse_function(src)
        assert isinstance(stmt, ast.Opaque), src


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_parse_totality(src):
    unit = parse_solidity(src)
    assert isinstance(unit, ast.SourceUnit)


@given(st.text(
    alphabet=st.sampled_from(list("contract{}();=mapingfunction modifierqrsuv_ \n.[]&|!")),
    max_size=200,
))
@settings(max_examples=300, deadline=None)
def test_parse_totality_structured_alphabet(src):
    unit = parse_solidity(src)
    assert isinstance(unit, ast.SourceUnit)


def test_readme_solidity_front_end_snippet_runs():
    # README "Library use" shows the Solidity front end on a source text.
    source = corpus_text("solidity", "row2_require.sol")
    names = {"source": source}
    exec(readme_python_block("parse_solidity(source)"), names)
    assert names["unit"] == parse_solidity(source)
    assert (names["line"], names["column"]) == (5, 9)
    assert names["text"] == "require(address(owner) == msg.sender);"
