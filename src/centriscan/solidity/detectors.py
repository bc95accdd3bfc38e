"""Pattern detectors over the Solidity AST.

Finds sender guards (modifier / require / if forms) and fund-modifying
statements (balance-mapping writes, native transfers, selfdestruct), then
pairs them per function into raw detections for the risk engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from ..config import AnalyzerConfig
from ..diagnostics import Diagnostic
from . import ast
from .symbols import is_address_to_uint_mapping

MODIFIER_GUARD = "ModifierGuard"
REQUIRE_GUARD = "RequireGuard"
IF_GUARD = "IfGuard"

BALANCE_MAPPING_WRITE = "BalanceMappingWrite"
NATIVE_TRANSFER = "NativeTransfer"
SELF_DESTRUCT = "SelfDestruct"

_BY_POSITION = attrgetter("line", "column")


class GuardSite(NamedTuple):
    form: str  # ModifierGuard | RequireGuard | IfGuard
    line: int
    column: int
    text: str  # condition source text
    enclosing_at: tuple[int, int]  # (line, column) of the enclosing declaration


class FundModSite(NamedTuple):
    kind: str  # BalanceMappingWrite | NativeTransfer | SelfDestruct
    line: int
    column: int
    text: str
    enclosing_at: tuple[int, int]  # (line, column) of the enclosing function


@dataclass(slots=True)
class RawDetection:
    function: str
    fund_sites: list[FundModSite] = field(default_factory=list)
    guard_sites: list[GuardSite] = field(default_factory=list)
    line: int = 1
    column: int = 1


def _is_sender_expr(expr: ast.Expr, config: AnalyzerConfig) -> bool:
    if isinstance(expr, ast.MsgSender):
        return True
    if config.tx_origin and isinstance(expr, ast.Member) and expr.member == "origin":
        base = expr.base
        return isinstance(base, ast.Identifier) and base.name == "tx"
    return False


def _collect_sender_comparisons(
    expr: ast.Expr, config: AnalyzerConfig, out: list[str]
) -> None:
    if not isinstance(expr, ast.Binary):
        return
    if expr.op in ("&&", "||"):
        _collect_sender_comparisons(expr.lhs, config, out)
        _collect_sender_comparisons(expr.rhs, config, out)
    elif _is_sender_expr(expr.lhs, config) != _is_sender_expr(expr.rhs, config):
        out.append("eq" if expr.op == "==" else "neq")


def _sender_comparison(expr: ast.Expr, config: AnalyzerConfig) -> str | None:
    """Polarity of the sender comparisons under &&/|| nesting: "eq" if any
    is `==`, else "neq" if any is `!=`, else None. A comparison of the
    sender with itself never counts."""
    found: list[str] = []
    _collect_sender_comparisons(expr, config, found)
    if "eq" in found:
        return "eq"
    return "neq" if found else None


def find_sender_guards(contract: ast.ContractDecl, config: AnalyzerConfig) -> list[GuardSite]:
    """One GuardSite per sender-guard occurrence, sorted by location."""
    sites: list[GuardSite] = []
    for modifier in contract.modifiers:
        _scan_guards(modifier.body, MODIFIER_GUARD, (modifier.line, modifier.column),
                     config, sites)
    for function in contract.functions:
        _scan_guards(function.body, REQUIRE_GUARD, (function.line, function.column),
                     config, sites)
    sites.sort(key=_BY_POSITION)
    return sites


def _scan_guards(
    body: list[ast.Stmt],
    require_form: str,  # ModifierGuard in a modifier body, else RequireGuard
    enclosing_at: tuple[int, int],
    config: AnalyzerConfig,
    sites: list[GuardSite],
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.Require):
            if _sender_comparison(stmt.condition, config) == "eq":
                sites.append(GuardSite(
                    require_form, stmt.line, stmt.column, stmt.condition.text, enclosing_at))
        elif isinstance(stmt, ast.If):
            polarity = _sender_comparison(stmt.condition, config)
            if polarity == "eq":
                sites.append(GuardSite(
                    IF_GUARD, stmt.line, stmt.column, stmt.condition.text, enclosing_at))
            elif polarity == "neq" and config.revert_guard and _branch_reverts(stmt.then_body):
                # `if (msg.sender != owner) revert;` protects everything after
                # it, so it carries require-like scope.
                sites.append(GuardSite(
                    require_form, stmt.line, stmt.column, stmt.condition.text, enclosing_at))
            _scan_guards(stmt.then_body, require_form, enclosing_at, config, sites)
            _scan_guards(stmt.else_body, require_form, enclosing_at, config, sites)


def _branch_reverts(body: list[ast.Stmt]) -> bool:
    return any(isinstance(stmt, ast.Revert) for stmt in body)


def find_fund_modifications(
    contract: ast.ContractDecl,
    symbols: dict[str, ast.StateVar],
    config: AnalyzerConfig,
) -> list[FundModSite]:
    """One FundModSite per fund-modifying statement in any function body."""
    sites: list[FundModSite] = []
    for function in contract.functions:
        _scan_funds(function.body, (function.line, function.column), symbols, config, sites)
    sites.sort(key=_BY_POSITION)
    return sites


def _scan_funds(
    body: list[ast.Stmt],
    enclosing_at: tuple[int, int],
    symbols: dict[str, ast.StateVar],
    config: AnalyzerConfig,
    sites: list[FundModSite],
) -> None:
    for stmt in body:
        cls = type(stmt)
        if cls is ast.Assign:
            if _is_balance_mapping_write(stmt.lvalue, symbols, config):
                sites.append(FundModSite(
                    BALANCE_MAPPING_WRITE, stmt.line, stmt.column, stmt.text, enclosing_at))
            _scan_call_sites(stmt.rvalue, stmt, enclosing_at, config, sites)
            _scan_call_sites(stmt.lvalue, stmt, enclosing_at, config, sites)
        elif cls is ast.Call:
            _scan_call_sites(stmt.expr, stmt, enclosing_at, config, sites)
        elif cls is ast.Require:
            _scan_call_sites(stmt.condition, stmt, enclosing_at, config, sites)
        elif cls is ast.If:
            _scan_call_sites(stmt.condition, stmt, enclosing_at, config, sites)
            _scan_funds(stmt.then_body, enclosing_at, symbols, config, sites)
            _scan_funds(stmt.else_body, enclosing_at, symbols, config, sites)


def _is_balance_mapping_write(
    lvalue: ast.Expr,
    symbols: dict[str, ast.StateVar],
    config: AnalyzerConfig,
) -> bool:
    depth = 0
    expr = lvalue
    while isinstance(expr, ast.Index):
        depth += 1
        expr = expr.base
    if depth == 0 or not isinstance(expr, ast.Identifier):
        return False
    return (depth == 1 or config.nested_mappings) and \
        is_address_to_uint_mapping(symbols, expr.name, depth)


# _scan_funds and _scan_call_sites dispatch on the exact node type, which
# matches isinstance because no AST class subclasses another.
def _scan_call_sites(
    expr: ast.Expr,
    stmt: ast.Stmt,
    enclosing_at: tuple[int, int],
    config: AnalyzerConfig,
    sites: list[FundModSite],
) -> None:
    stack = [expr]
    push = stack.append
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.CallExpr:
            kind = _classify_call(node, config)
            if kind is not None:
                sites.append(FundModSite(kind, node.line, node.column, stmt.text, enclosing_at))
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
        elif cls is ast.AddressCast:
            push(node.inner)


def _classify_call(call: ast.CallExpr, config: AnalyzerConfig) -> str | None:
    callee = call.callee
    if isinstance(callee, ast.Identifier) and callee.name == "selfdestruct":
        return SELF_DESTRUCT if config.selfdestruct else None
    if not config.native_transfer:
        return None
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
    guards: list[GuardSite],
    fund_sites: list[FundModSite],
    diagnostics: list[Diagnostic] | None = None,
) -> list[RawDetection]:
    """One RawDetection per function carrying any guard or fund site.

    Every site is keyed by the position of its enclosing declaration, so
    overloads, which share a name and may share a line, stay apart. A
    function's guards are its own plus those of each modifier it invokes;
    an invoked name brings the guards of every modifier declared with it."""
    modifier_at: dict[str, list[tuple[int, int]]] = {}
    for modifier in contract.modifiers:
        modifier_at.setdefault(modifier.name, []).append((modifier.line, modifier.column))
    guards_at: dict[tuple[int, int], list[GuardSite]] = {}
    for site in guards:
        guards_at.setdefault(site.enclosing_at, []).append(site)
    funds_at: dict[tuple[int, int], list[FundModSite]] = {}
    for site in fund_sites:
        funds_at.setdefault(site.enclosing_at, []).append(site)

    detections: list[RawDetection] = []
    for function in contract.functions:
        key = (function.line, function.column)
        guard_list = list(guards_at.get(key, ()))
        for invocation in function.modifier_invocations:
            positions = modifier_at.get(invocation)
            if positions is None:
                if diagnostics is not None:
                    diagnostics.append(Diagnostic(
                        f"function '{function.name}' invokes unknown modifier "
                        f"'{invocation}'",
                        function.line, function.column,
                    ))
                continue
            for at in positions:
                guard_list.extend(guards_at.get(at, ()))
        funds = funds_at.get(key, [])
        if guard_list or funds:
            guard_list.sort(key=_BY_POSITION)
            detections.append(RawDetection(
                function.name, funds, guard_list, function.line, function.column))
    return detections
