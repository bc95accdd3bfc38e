"""Pattern detectors over the Solidity AST.

Finds sender guards (modifier / require / if forms) and fund-modifying
statements (balance-mapping writes, native transfers, selfdestruct), then
pairs them per function into the subjects the risk engine grades. AST nodes
hold token spans; a site reads its line, column and text from the tokens
only when it is created.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple

from ..diagnostics import Diagnostic
from ..report import Evidence, Subject
from . import ast
from .symbols import is_address_to_uint_mapping
from .tokens import Tokens

MODIFIER_GUARD = "ModifierGuard"
REQUIRE_GUARD = "RequireGuard"
IF_GUARD = "IfGuard"

BALANCE_MAPPING_WRITE = "BalanceMappingWrite"
NATIVE_TRANSFER = "NativeTransfer"
SELF_DESTRUCT = "SelfDestruct"

_BY_POSITION = attrgetter("line", "column")


class Site(NamedTuple):
    """A sender guard or a fund move."""
    form: str  # one of the three guard forms or the three fund forms above
    line: int
    column: int
    text: str  # a guard's condition; the statement holding a fund move
    enclosing_at: int  # `at` of the enclosing declaration


def _evidence(role: str, site: Site) -> Evidence:
    """The report's evidence for a site: its text with each whitespace run
    one space, cut to 120 characters."""
    text = " ".join(site.text.split())
    return Evidence(role, site.line, site.column,
                    text if len(text) <= 120 else text[:117] + "...")


def _is_sender(expr: ast.Expr) -> bool:
    """`msg.sender`, bare or cast: `address(msg.sender)`, `payable(msg.sender)`."""
    while type(expr) is ast.CallExpr and len(expr.args) == 1 \
            and type(expr.callee) is ast.Identifier and expr.callee.name in ("address", "payable"):
        expr = expr.args[0]
    return type(expr) is ast.MsgSender


def _collect_sender_comparisons(
    expr: ast.Expr, out: list[str], negated: bool = False
) -> None:
    if isinstance(expr, ast.Not):  # `!` flips the polarity of what it holds
        _collect_sender_comparisons(expr.operand, out, not negated)
    elif not isinstance(expr, ast.Binary):
        return
    elif expr.op in ("&&", "||"):
        _collect_sender_comparisons(expr.lhs, out, negated)
        _collect_sender_comparisons(expr.rhs, out, negated)
    # Only `msg.sender` is the sender; `tx.origin` is not.
    elif _is_sender(expr.lhs) != _is_sender(expr.rhs):
        out.append("eq" if (expr.op == "==") != negated else "neq")


def _sender_comparison(expr: ast.Expr) -> str | None:
    """Polarity of the sender comparisons under &&/||/! nesting: "eq" if
    any is `==` (or a negated `!=`), else "neq" if any is `!=` (or a negated
    `==`), else None. A comparison of the sender with itself never counts."""
    found: list[str] = []
    _collect_sender_comparisons(expr, found)
    if "eq" in found:
        return "eq"
    return "neq" if found else None


def _statements(body: list[ast.Stmt]) -> Iterator[ast.Stmt]:
    """Each statement of body in source order, an `if` followed by the
    statements of its then and else branches."""
    for stmt in body:
        yield stmt
        if type(stmt) is ast.If:
            yield from _statements(stmt.then_body)
            yield from _statements(stmt.else_body)


def find_sender_guards(contract: ast.ContractDecl, tokens: Tokens) -> list[Site]:
    """One Site per sender-guard occurrence, sorted by location;
    ``tokens`` are those the contract was parsed from. A require-like guard
    is a ModifierGuard in a modifier body, else a RequireGuard."""
    sites: list[Site] = []
    for declarations, require_form in ((contract.modifiers, MODIFIER_GUARD),
                                       (contract.functions, REQUIRE_GUARD)):
        for declaration in declarations:
            for stmt in _statements(declaration.body):
                cls = type(stmt)
                if cls is ast.Require:
                    if _sender_comparison(stmt.condition) == "eq":
                        sites.append(_guard_site(require_form, stmt, declaration.at, tokens))
                elif cls is ast.If:
                    polarity = _sender_comparison(stmt.condition)
                    if polarity == "eq":
                        sites.append(_guard_site(IF_GUARD, stmt, declaration.at, tokens))
                    elif polarity == "neq" and any(
                            type(then) is ast.Revert for then in stmt.then_body):
                        # `if (msg.sender != owner) revert;` protects everything
                        # after it, so it carries require-like scope.
                        sites.append(_guard_site(require_form, stmt, declaration.at, tokens))
    sites.sort(key=_BY_POSITION)
    return sites


def _guard_site(
    form: str, stmt: ast.Require | ast.If, enclosing_at: int, tokens: Tokens
) -> Site:
    condition = stmt.condition
    return Site(form, *tokens.position(stmt.at),
                tokens.text(condition.at, condition.end), enclosing_at)


def find_fund_modifications(
    contract: ast.ContractDecl,
    tokens: Tokens,
    symbols: dict[str, ast.StateVar],
) -> list[Site]:
    """One Site per fund-modifying statement in any function body;
    ``tokens`` are those the contract was parsed from."""
    sites: list[Site] = []
    for function in contract.functions:
        at = function.at
        for stmt in _statements(function.body):
            cls = type(stmt)
            if cls is ast.Assign:
                if _is_balance_mapping_write(stmt.lvalue, symbols):
                    sites.append(Site(
                        BALANCE_MAPPING_WRITE, *tokens.position(stmt.at),
                        tokens.text(stmt.at, stmt.end), at))
                _scan_call_sites(stmt.rvalue, stmt, at, tokens, sites)
                _scan_call_sites(stmt.lvalue, stmt, at, tokens, sites)
            elif cls is ast.Call:
                _scan_call_sites(stmt.expr, stmt, at, tokens, sites)
            elif cls is ast.Require or cls is ast.If:
                _scan_call_sites(stmt.condition, stmt, at, tokens, sites)
    sites.sort(key=_BY_POSITION)
    return sites


def _is_balance_mapping_write(lvalue: ast.Expr, symbols: dict[str, ast.StateVar]) -> bool:
    """A one-level write `name[key] = ...` to a mapping(address => uint...);
    a nested write such as `allowed[a][b]` is no balance write."""
    if not isinstance(lvalue, ast.Index):
        return False
    base = lvalue.base
    return isinstance(base, ast.Identifier) and is_address_to_uint_mapping(symbols, base.name)


# The walks dispatch on the exact node type, which matches isinstance
# because no AST class subclasses another.
def _scan_call_sites(
    expr: ast.Expr,
    stmt: ast.Stmt,
    enclosing_at: int,
    tokens: Tokens,
    sites: list[Site],
) -> None:
    stack = [expr]
    push = stack.append
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.CallExpr:
            form = _classify_call(node)
            if form is not None:
                sites.append(Site(form, *tokens.position(node.at),
                                  tokens.text(stmt.at, stmt.end), enclosing_at))
            push(node.callee)
            stack.extend(node.args)
        elif cls is ast.Member:
            push(node.base)
        elif cls is ast.Index:
            push(node.base)
            push(node.index)
        elif cls is ast.Binary:
            push(node.lhs)
            push(node.rhs)
        elif cls is ast.Not:
            push(node.operand)


def _classify_call(call: ast.CallExpr) -> str | None:
    callee = call.callee
    if isinstance(callee, ast.Identifier) and callee.name == "selfdestruct":
        return SELF_DESTRUCT
    if isinstance(callee, ast.Member):
        if callee.member in ("transfer", "send"):
            return NATIVE_TRANSFER
        if callee.member == "call" and call.options and "value" in call.options:
            return NATIVE_TRANSFER
    # Legacy value-bearing call: target.call.value(x)(...)
    if isinstance(callee, ast.CallExpr) and isinstance(callee.callee, ast.Member) \
            and callee.callee.member == "value":
        base = callee.callee.base
        if isinstance(base, ast.Member) and base.member == "call":
            return NATIVE_TRANSFER
    return None


def pair_detections(
    contract: ast.ContractDecl,
    tokens: Tokens,
    guards: list[Site],
    fund_sites: list[Site],
    diagnostics: list[Diagnostic],
) -> list[Subject]:
    """One Subject per function carrying any guard or fund site;
    ``tokens`` are those the contract was parsed from.

    Every site is keyed by the `at` of its enclosing declaration, so
    overloads, which share a name and may share a line, stay apart. A
    function's guards are its own plus those of each modifier it invokes;
    an invoked name brings the guards of every modifier declared with it.
    An invoked base contract is a constructor call, not a modifier. Each
    site's Evidence is built once, so every function invoking a modifier
    shares the modifier's guard evidence."""
    modifier_at: dict[str, list[int]] = {}
    for modifier in contract.modifiers:
        modifier_at.setdefault(modifier.name, []).append(modifier.at)
    guards_at: dict[int, list[Evidence]] = {}
    for site in guards:
        guards_at.setdefault(site.enclosing_at, []).append(_evidence("guard", site))
    funds_at: dict[int, list[Evidence]] = {}
    for site in fund_sites:
        funds_at.setdefault(site.enclosing_at, []).append(
            _evidence("fund_modification", site))

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
