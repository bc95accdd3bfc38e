"""Pattern detectors over the Solidity AST.

Finds sender guards (modifier / require / if forms) and fund moves
(balance-mapping writes, native transfers, selfdestruct) anywhere in a
statement's expression, then pairs them per function into the subjects the
risk engine grades. AST nodes hold token spans; a detector reads a site's
line, column and text from the tokens only when it finds the site, into the
report Evidence it returns.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from ..diagnostics import Diagnostic
from ..report import Evidence, Subject
from . import ast
from .tokens import Tokens

_BY_POSITION = attrgetter("line", "column")
# Nodes that hold no other node: most of those an expression walk meets.
_LEAVES = frozenset({ast.Identifier, ast.OpaqueExpr, ast.MsgSender})
# The field holding each kind of statement's one expression; a `return;`
# holds None, which the walk passes over.
_STMT_EXPR = {ast.ExprStmt: "expr", ast.Require: "condition", ast.If: "condition",
              ast.Return: "value"}


def _site_position(site: tuple[int, Evidence]) -> tuple[int, int]:
    return site[1].line, site[1].column


def _evidence(role: str, tokens: Tokens, at: int, node: ast.Expr | ast.Stmt) -> Evidence:
    """Evidence at token `at` whose text is node's source with each
    whitespace run one space, cut to 120 characters."""
    text = " ".join(tokens.text(node.at, node.end).split())
    return Evidence(role, *tokens.position(at),
                    text if len(text) <= 120 else text[:117] + "...")


def _is_sender(expr: ast.Expr) -> bool:
    """`msg.sender`, bare or cast: `address(msg.sender)`, `payable(msg.sender)`."""
    while type(expr) is ast.CallExpr and len(expr.args) == 1 \
            and type(expr.callee) is ast.Identifier and expr.callee.name in ("address", "payable"):
        expr = expr.args[0]
    return type(expr) is ast.MsgSender


def _sender_comparison(expr: ast.Expr) -> str | None:
    """Polarity of the sender comparisons under &&/||/! alone: "eq" if any is
    `==` (or a negated `!=`), else "neq" if any is `!=` (or a negated `==`),
    else None. A comparison of the sender with itself never counts. The walk
    keeps its own stack: the parser builds long chains left-deep."""
    found = None
    stack = [(expr, False)]
    while stack:
        node, negated = stack.pop()
        cls = type(node)
        if cls is ast.Unary and node.op == "!":  # `!` flips the polarity of what it holds
            stack.append((node.operand, not negated))
        elif cls is not ast.Binary:
            continue
        elif node.op in ("&&", "||"):
            stack += ((node.lhs, negated), (node.rhs, negated))
        # Only `msg.sender` is the sender; `tx.origin` is not.
        elif node.op in ("==", "!=") and _is_sender(node.lhs) != _is_sender(node.rhs):
            if (node.op == "==") != negated:
                return "eq"
            found = "neq"
    return found


def _statements(body: list[ast.Stmt]) -> Iterator[ast.Stmt]:
    """Each statement of body in source order, an `if` followed by those of
    its then and else branches, from a stack of the bodies being read."""
    pending = [iter(body)]
    while pending:
        statements = pending.pop()
        for stmt in statements:
            yield stmt
            if type(stmt) is ast.If:  # read its branches, then come back
                pending += (statements, iter(stmt.else_body), iter(stmt.then_body))
                break


def find_sender_guards(
    contract: ast.ContractDecl, tokens: Tokens
) -> list[tuple[int, Evidence]]:
    """The `at` of the enclosing declaration and the guard Evidence of each
    sender guard, sorted by position; ``tokens`` are those the contract was
    parsed from."""
    sites: list[tuple[int, Evidence]] = []
    for declaration in (*contract.modifiers, *contract.functions):
        for stmt in _statements(declaration.body):
            cls = type(stmt)
            if cls is not ast.Require and cls is not ast.If:
                continue
            polarity = _sender_comparison(stmt.condition)
            # `if (msg.sender != owner) revert;` protects everything after
            # it, as a `require` does.
            if polarity == "eq" or polarity == "neq" and cls is ast.If and any(
                    type(then) is ast.Revert for then in stmt.then_body):
                sites.append((declaration.at,
                              _evidence("guard", tokens, stmt.at, stmt.condition)))
    sites.sort(key=_site_position)
    return sites


def find_fund_modifications(
    contract: ast.ContractDecl,
    tokens: Tokens,
    balances: frozenset[str],
) -> list[tuple[int, Evidence]]:
    """The `at` of the enclosing function and the fund Evidence of each
    fund-modifying write or call in any function body, sorted by position;
    ``tokens`` are those the contract was parsed from, and ``balances`` the
    names of its balance mappings."""
    sites: list[tuple[int, Evidence]] = []
    for function in contract.functions:
        for stmt in _statements(function.body):
            field = _STMT_EXPR.get(type(stmt))
            if field is not None:
                _scan_expr(getattr(stmt, field), stmt, function.at, tokens, balances, sites)
    sites.sort(key=_site_position)
    return sites


# The walk dispatches on the exact node type, which matches isinstance
# because no concrete AST class subclasses another.
def _scan_expr(
    expr: ast.Expr,
    stmt: ast.Stmt,
    enclosing_at: int,
    tokens: Tokens,
    balances: frozenset[str],
    sites: list[tuple[int, Evidence]],
) -> None:
    """Add a site for each fund move in expr, at its write or call, with
    stmt as its text. A write to a balance mapping is one when it is one
    level deep: `bals[to] = 0`, not `allowed[a][b] = 0`. The walk keeps its
    own stack: an assignment chain nests as deep as it is long."""
    stack = [expr]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls in _LEAVES:
            continue
        if cls is ast.CallExpr:
            if _moves_funds(node, tokens):
                sites.append((enclosing_at,
                              _evidence("fund_modification", tokens, node.at, stmt)))
            stack += (node.callee, *node.args)
        elif cls is ast.Assign:
            lvalue = node.lvalue
            if type(lvalue) is ast.Index and type(lvalue.base) is ast.Identifier \
                    and lvalue.base.name in balances:
                sites.append((enclosing_at,
                              _evidence("fund_modification", tokens, node.at, stmt)))
            stack += (lvalue, node.rvalue)
        elif cls is ast.Member:
            stack.append(node.base)
        elif cls is ast.Index:
            stack += (node.base, node.index)
        elif cls is ast.Binary:
            stack += (node.lhs, node.rhs)
        elif cls is ast.Unary:
            stack.append(node.operand)
        elif cls is ast.Conditional:
            stack += (node.condition, node.if_true, node.if_false)


def _moves_funds(call: ast.CallExpr, tokens: Tokens) -> bool:
    """`selfdestruct(...)`, `x.transfer(...)`, `x.send(...)`,
    `x.call{value: ...}(...)` or the legacy `x.call.value(...)(...)`."""
    callee = call.callee
    if isinstance(callee, ast.Identifier):
        return callee.name == "selfdestruct"
    if isinstance(callee, ast.Member):
        return callee.member in ("transfer", "send") or (
            callee.member == "call" and call.options is not None
            and "value" in tokens.text(call.options.at, call.options.end))
    return isinstance(callee, ast.CallExpr) and isinstance(callee.callee, ast.Member) \
        and callee.callee.member == "value" \
        and isinstance(callee.callee.base, ast.Member) and callee.callee.base.member == "call"


def pair_detections(
    contract: ast.ContractDecl,
    tokens: Tokens,
    guards: list[tuple[int, Evidence]],
    fund_sites: list[tuple[int, Evidence]],
    diagnostics: list[Diagnostic],
) -> list[Subject]:
    """One Subject per function carrying any guard or fund site;
    ``tokens`` are those the contract was parsed from.

    Every site is keyed by the `at` of its enclosing declaration, so
    overloads, which share a name and may share a line, stay apart. A
    function's guards are its own plus those of each modifier it invokes;
    an invoked name brings the guards of every modifier declared with it.
    An invoked base contract is a constructor call, not a modifier. Each
    site's Evidence is built once, by its detector, so every function
    invoking a modifier shares the modifier's guard evidence."""
    modifier_at: dict[str, list[int]] = {}
    for modifier in contract.modifiers:
        modifier_at.setdefault(modifier.name, []).append(modifier.at)
    guards_at: dict[int, list[Evidence]] = {}
    for at, evidence in guards:
        guards_at.setdefault(at, []).append(evidence)
    funds_at: dict[int, list[Evidence]] = {}
    for at, evidence in fund_sites:
        funds_at.setdefault(at, []).append(evidence)

    subjects: list[Subject] = []
    for function in contract.functions:
        name = f"function '{function.name}'" if function.name else "unnamed function"
        guard_list = list(guards_at.get(function.at, ()))
        for invocation in function.modifier_invocations:
            modifiers = modifier_at.get(invocation)
            if modifiers is None:
                if invocation not in contract.bases:
                    diagnostics.append(Diagnostic(
                        f"{name} invokes unknown modifier '{invocation}'",
                        *tokens.position(function.at),
                    ))
                continue
            for at in modifiers:
                guard_list.extend(guards_at.get(at, ()))
        funds = funds_at.get(function.at, ())
        if guard_list or funds:
            guard_list.sort(key=_BY_POSITION)
            subjects.append(Subject(*tokens.position(function.at), name,
                                    tuple(guard_list), tuple(funds), ""))
    return subjects
