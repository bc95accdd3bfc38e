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
from .symbols import is_address_to_uint_mapping, is_nested_address_to_uint_mapping

MODIFIER_GUARD = "ModifierGuard"
REQUIRE_GUARD = "RequireGuard"
IF_GUARD = "IfGuard"

BALANCE_MAPPING_WRITE = "BalanceMappingWrite"
NATIVE_TRANSFER = "NativeTransfer"
SELF_DESTRUCT = "SelfDestruct"

_BY_POSITION = attrgetter("line", "column")


class GuardSite(NamedTuple):
    form: str  # ModifierGuard | RequireGuard | IfGuard
    owner_expr: str  # rendered non-sender side of the comparison
    line: int
    column: int
    enclosing: str  # function or modifier name
    text: str  # condition source text
    in_modifier: bool
    enclosing_at: tuple[int, int]  # (line, column) of the enclosing declaration


class FundModSite(NamedTuple):
    kind: str  # BalanceMappingWrite | NativeTransfer | SelfDestruct
    target: str  # rendered lvalue/callee text
    line: int
    column: int
    function: str
    text: str
    enclosing_at: tuple[int, int]  # (line, column) of the enclosing function


@dataclass(slots=True)
class RawDetection:
    function: str
    privileged: bool
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
    expr: ast.Expr, config: AnalyzerConfig, out: list[tuple[ast.Expr, str]]
) -> None:
    if not isinstance(expr, ast.Binary):
        return
    if expr.op in ("&&", "||"):
        _collect_sender_comparisons(expr.lhs, config, out)
        _collect_sender_comparisons(expr.rhs, config, out)
    else:
        polarity = "eq" if expr.op == "==" else "neq"
        lhs_sender = _is_sender_expr(expr.lhs, config)
        rhs_sender = _is_sender_expr(expr.rhs, config)
        if lhs_sender and not rhs_sender:
            out.append((expr.rhs, polarity))
        elif rhs_sender and not lhs_sender:
            out.append((expr.lhs, polarity))


def _sender_comparison(
    expr: ast.Expr, config: AnalyzerConfig
) -> tuple[ast.Expr, str] | None:
    """Find a sender comparison under &&/|| nesting, preferring `==` over
    `!=`; self-comparisons never match."""
    found: list[tuple[ast.Expr, str]] = []
    _collect_sender_comparisons(expr, config, found)
    for owner, polarity in found:
        if polarity == "eq":
            return owner, polarity
    return found[0] if found else None


def find_sender_guards(contract: ast.ContractDecl, config: AnalyzerConfig) -> list[GuardSite]:
    """One GuardSite per sender-guard occurrence, sorted by location."""
    sites: list[GuardSite] = []
    for modifier in contract.modifiers:
        _scan_guards(modifier.body, modifier.name, True,
                     (modifier.line, modifier.column), config, sites)
    for function in contract.functions:
        _scan_guards(function.body, function.name, False,
                     (function.line, function.column), config, sites)
    sites.sort(key=_BY_POSITION)
    return sites


def _scan_guards(
    body: list[ast.Stmt],
    enclosing: str,
    in_modifier: bool,
    enclosing_at: tuple[int, int],
    config: AnalyzerConfig,
    sites: list[GuardSite],
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.Require):
            found = _sender_comparison(stmt.condition, config)
            if found is not None and found[1] == "eq":
                form = MODIFIER_GUARD if in_modifier else REQUIRE_GUARD
                sites.append(GuardSite(
                    form, found[0].text, stmt.line, stmt.column,
                    enclosing, stmt.condition.text, in_modifier, enclosing_at,
                ))
        elif isinstance(stmt, ast.If):
            found = _sender_comparison(stmt.condition, config)
            if found is not None:
                owner, polarity = found
                if polarity == "eq":
                    sites.append(GuardSite(
                        IF_GUARD, owner.text, stmt.line, stmt.column,
                        enclosing, stmt.condition.text, in_modifier, enclosing_at,
                    ))
                elif config.revert_guard and _branch_reverts(stmt.then_body):
                    # `if (msg.sender != owner) revert;` protects everything after
                    # it, so it carries require-like scope.
                    form = MODIFIER_GUARD if in_modifier else REQUIRE_GUARD
                    sites.append(GuardSite(
                        form, owner.text, stmt.line, stmt.column,
                        enclosing, stmt.condition.text, in_modifier, enclosing_at,
                    ))
            _scan_guards(stmt.then_body, enclosing, in_modifier, enclosing_at, config, sites)
            _scan_guards(stmt.else_body, enclosing, in_modifier, enclosing_at, config, sites)


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
        _scan_funds(function.body, function, symbols, config, sites)
    sites.sort(key=_BY_POSITION)
    return sites


def _scan_funds(
    body: list[ast.Stmt],
    function: ast.FunctionDecl,
    symbols: dict[str, ast.StateVar],
    config: AnalyzerConfig,
    sites: list[FundModSite],
) -> None:
    for stmt in body:
        cls = type(stmt)
        if cls is ast.Assign:
            target = _balance_mapping_target(stmt.lvalue, symbols, config)
            if target is not None:
                sites.append(FundModSite(
                    BALANCE_MAPPING_WRITE, target, stmt.line, stmt.column,
                    function.name, stmt.text, (function.line, function.column),
                ))
            _scan_call_sites(stmt.rvalue, stmt, function, config, sites)
            _scan_call_sites(stmt.lvalue, stmt, function, config, sites)
        elif cls is ast.Call:
            _scan_call_sites(stmt.expr, stmt, function, config, sites)
        elif cls is ast.Require:
            _scan_call_sites(stmt.condition, stmt, function, config, sites)
        elif cls is ast.If:
            _scan_call_sites(stmt.condition, stmt, function, config, sites)
            _scan_funds(stmt.then_body, function, symbols, config, sites)
            _scan_funds(stmt.else_body, function, symbols, config, sites)


def _balance_mapping_target(
    lvalue: ast.Expr,
    symbols: dict[str, ast.StateVar],
    config: AnalyzerConfig,
) -> str | None:
    depth = 0
    expr = lvalue
    while isinstance(expr, ast.Index):
        depth += 1
        expr = expr.base
    if depth == 0 or not isinstance(expr, ast.Identifier):
        return None
    name = expr.name
    if depth == 1:
        return name if is_address_to_uint_mapping(symbols, name) else None
    if config.nested_mappings and is_nested_address_to_uint_mapping(symbols, name, depth):
        return name
    return None


# _scan_funds and _scan_call_sites dispatch on the exact node type, which
# matches isinstance because no AST class subclasses another.
def _scan_call_sites(
    expr: ast.Expr,
    stmt: ast.Stmt,
    function: ast.FunctionDecl,
    config: AnalyzerConfig,
    sites: list[FundModSite],
) -> None:
    stack = [expr]
    push = stack.append
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.CallExpr:
            classified = _classify_call(node, config)
            if classified is not None:
                kind, target = classified
                sites.append(FundModSite(
                    kind, target, node.line, node.column,
                    function.name, stmt.text, (function.line, function.column),
                ))
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


def _classify_call(call: ast.CallExpr, config: AnalyzerConfig) -> tuple[str, str] | None:
    callee = call.callee
    if isinstance(callee, ast.Identifier) and callee.name == "selfdestruct":
        if config.selfdestruct:
            return SELF_DESTRUCT, "selfdestruct"
        return None
    if not config.native_transfer:
        return None
    if isinstance(callee, ast.Member):
        if callee.member in ("transfer", "send"):
            return NATIVE_TRANSFER, callee.text
        if callee.member == "call" and call.options and "value" in call.options:
            return NATIVE_TRANSFER, callee.text
    # Legacy value-bearing call: target.call.value(x)(...)
    if isinstance(callee, ast.CallExpr) and isinstance(callee.callee, ast.Member) \
            and callee.callee.member == "value":
        base = callee.callee.base
        if isinstance(base, ast.Member) and base.member == "call":
            return NATIVE_TRANSFER, base.text
    return None


def pair_detections(
    contract: ast.ContractDecl,
    guards: list[GuardSite],
    fund_sites: list[FundModSite],
    diagnostics: list[Diagnostic] | None = None,
) -> list[RawDetection]:
    """One RawDetection per function carrying any guard or fund site."""
    modifier_names = {m.name for m in contract.modifiers}
    modifier_guards: dict[str, list[GuardSite]] = {}
    # Functions are keyed by declaration position: overloads share a name
    # and may share a line.
    function_guards: dict[tuple[int, int], list[GuardSite]] = {}
    for site in guards:
        if site.in_modifier:
            modifier_guards.setdefault(site.enclosing, []).append(site)
        else:
            function_guards.setdefault(site.enclosing_at, []).append(site)

    function_funds: dict[tuple[int, int], list[FundModSite]] = {}
    for site in fund_sites:
        function_funds.setdefault(site.enclosing_at, []).append(site)

    detections: list[RawDetection] = []
    for function in contract.functions:
        key = (function.line, function.column)
        guard_list = list(function_guards.get(key, ()))
        for invocation in function.modifier_invocations:
            if invocation not in modifier_names:
                if diagnostics is not None:
                    diagnostics.append(Diagnostic(
                        f"function '{function.name}' invokes unknown modifier "
                        f"'{invocation}'",
                        function.line, function.column,
                    ))
                continue
            guard_list.extend(modifier_guards.get(invocation, ()))
        funds = function_funds.get(key, [])
        if guard_list or funds:
            guard_list.sort(key=_BY_POSITION)
            detections.append(RawDetection(
                function.name, bool(guard_list),
                funds, guard_list, function.line, function.column,
            ))
    return detections
