"""Solidity on the flow core. find_sender_guards lowers a contract onto
one `centriscan.flow` graph in one walk that reads each statement once,
finding its sender guards (modifier / require / if forms) and the fund
moves in its expression (balance-mapping writes, native transfers,
selfdestruct); pair_detections grades each function from one flow query.
A site's position and text are read from the tokens only when found.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from ..diagnostics import Diagnostic
from ..flow import (ASSERT_GUARD, BRANCH_GUARD, BRANCH_NOT_TAKEN, BRANCH_TAKEN, FALLTHROUGH, Cfg,
                    compute_guardedness)
from ..record import Record
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


class Guard(NamedTuple):
    form: str  # ASSERT_GUARD | BRANCH_GUARD
    block: int
    instruction: int
    non_fail_edge: tuple[int, int, str] | None  # a branch guard's authorized edge


class FundPoint(Record):
    """A fund move: its block and instruction, the `at` of its function and
    its Evidence. Points hash by identity, as the flow query keys them."""
    __slots__ = ("block", "instruction", "at", "evidence")
    __eq__, __hash__ = object.__eq__, object.__hash__
    line = property(lambda point: point.evidence.line)


class Lowering:
    """A contract being lowered onto one flow graph, each block opened by
    the next instruction. `sites`, which `len()` counts, holds each sender
    guard's Evidence and the `at` of its declaration; `functions` each
    function and the `at` of each modifier it runs; `ends` the blocks where
    a function returns. A modifier is lowered into one of its own."""
    __slots__ = ("starts", "successors", "size", "guards", "funds", "sites", "tokens",
                 "balances", "ends", "functions")

    def __init__(self, sites: list, tokens: Tokens, balances: frozenset[str]):
        self.starts, self.successors, self.size, self.guards, self.funds = [], [], 0, [], []
        self.sites, self.tokens, self.balances, self.ends, self.functions = (
            sites, tokens, balances, [], [])

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def cfg(self) -> Cfg:
        starts = self.starts
        return Cfg([range(start, stop) for start, stop in zip(starts, [*starts[1:], self.size])],
                   self.successors)

    def block(self) -> int:
        self.starts.append(self.size)
        self.successors.append([])
        return len(self.starts) - 1

    def place(self, other: Lowering, exits: list[int], holes: list[int]) -> tuple:
        """Append a copy of other, a lowered modifier: its entry, exits and holes here."""
        b0, q0 = len(self.starts), self.size
        self.starts += [start + q0 for start in other.starts]
        self.successors += [[(to + b0, kind) for to, kind in out] for out in other.successors]
        self.size += other.size
        self.guards += [Guard(form, block + b0, instruction + q0, edge and (
            edge[0] + b0, edge[1] + b0, edge[2])) for form, block, instruction, edge in other.guards]
        return b0, [b + b0 for b in exits], [b + b0 for b in holes]

    def chain(self, levels: list) -> list[tuple[int, int | None]]:
        """Place the lowered modifiers of levels, block 0 entering the first
        and each running the next at its `_`s. Returns each hole of the last
        with the block it goes on in, or None where that block is empty and
        ends the function, so the functions sharing the chain need not all
        join in it."""
        placed = [self.place(*lowered) for lowered in levels]
        for (_, _, holes), (entry, exits, _) in zip(placed, placed[1:]):
            self.run_at([(hole, hole + 1) for hole in holes], entry, exits)
        self.successors[0].append((placed[0][0], FALLTHROUGH))
        self.ends += placed[0][1]
        return [(hole, None if hole + 1 in placed[0][1] and not self.successors[hole + 1]
                 and self.starts[hole + 1] == self.size else hole + 1)
                for hole in placed[-1][2]]

    def run_at(self, holes: list[tuple[int, int | None]], entry: int, exits: list[int]) -> None:
        """Run what enters at entry and leaves from exits at each hole, going
        on in its block after it, or ending where that is None."""
        for hole, after in holes:
            self.successors[hole].append((entry, FALLTHROUGH))
            if after is None:
                self.ends += exits
            else:
                for exit in exits:
                    self.successors[exit].append((after, FALLTHROUGH))

    def lower(self, body: list[ast.Stmt], current: int, exits: list[int], holes, at: int) -> int:
        """Append body from block current, the newest, on; return the block
        open at its end. A `return` adds its block to exits, a modifier's
        `_` to holes; holes is None in a function, whose fund moves are
        points. Recursion goes as deep as `if`s nest, which the parser bounds."""
        successors = self.successors
        for stmt in body:
            cls = type(stmt)
            instruction = self.size
            self.size += 1
            field = holes is None and _STMT_EXPR.get(cls)
            if field:
                found = _scan_expr(getattr(stmt, field), stmt, self.tokens, self.balances)
                if found:
                    self.funds += [FundPoint(current, instruction, at, e) for e in found]
            if cls is ast.If:
                then = self.block()
                then_end = self.lower(stmt.then_body, then, exits, holes, at)
                join = other = self.block()
                successors[current].append((then, BRANCH_TAKEN))
                successors[current].append((other, BRANCH_NOT_TAKEN))
                if stmt.else_body:
                    else_end = self.lower(stmt.else_body, other, exits, holes, at)
                    join = self.block()
                    successors[else_end].append((join, FALLTHROUGH))
                successors[then_end].append((join, FALLTHROUGH))
                polarity = _sender_comparison(stmt.condition)
                if polarity:
                    self._guard(stmt, at, Guard(BRANCH_GUARD, current, instruction, (
                        current, then, BRANCH_TAKEN) if polarity == "eq" else (
                        current, other, BRANCH_NOT_TAKEN)))
                current = join
            elif cls is ast.Require:
                if _sender_comparison(stmt.condition) == "eq":
                    self._guard(stmt, at, Guard(ASSERT_GUARD, current, instruction, None))
            elif cls is ast.Return or cls is ast.Revert or cls is ast.Placeholder and holes is not None:
                if cls is not ast.Revert:
                    (exits if cls is ast.Return else holes).append(current)
                current = self.block()
        return current

    def _guard(self, stmt: ast.Stmt, at: int, guard: Guard) -> None:
        self.guards.append(guard)
        self.sites.append((_evidence("guard", self.tokens, stmt.at, stmt.condition), at))


def _label(function: ast.FunctionDecl) -> str:
    return f"function '{function.name}'" if function.name else "unnamed function"


def find_sender_guards(
    contract: ast.ContractDecl, tokens: Tokens, balances: frozenset[str],
    diagnostics: list[Diagnostic],
) -> Lowering:
    """Lower the contract onto one flow graph; ``tokens`` are those it was
    parsed from, ``balances`` the names of its balance mappings.

    Block 0 enters each function that moves funds, through the modifiers
    it runs; every statement is one instruction. An `if` ends its block
    with a then and an else edge, and a `revert`, a `return` or a
    modifier's `_` ends its. A `require` or `assert` on a sender `==` is an
    assert guard, an `if` on a sender comparison a branch guard authorized
    on its then edge (`==`) or else edge (`!=`). A modifier is lowered
    once; each chain of modifiers is copied once and shared by the
    functions that run it. The rest of the chain runs at each `_` and goes
    on after it, or after the body if there is no `_`. An invoked name runs
    every modifier declared with it."""
    sites: list[tuple[Evidence, int]] = []
    modifiers: dict[str, list] = {}
    for modifier in contract.modifiers:
        lowered, exits, holes = Lowering(sites, tokens, balances), [], []
        exits.append(lowered.lower(modifier.body, lowered.block(), exits, holes, modifier.at))
        if not holes:
            holes.append(lowered.block())
            for exit in exits:
                lowered.successors[exit].append((holes[0], FALLTHROUGH))
            exits = [lowered.block()]
        modifiers.setdefault(modifier.name, []).append((modifier.at, lowered, exits, holes))

    graph = Lowering(sites, tokens, balances)
    graph.block()  # the dispatcher
    chains: dict[tuple, list] = {}  # modifier ats -> the innermost one's holes
    for function in contract.functions:
        chain = []
        for invocation in function.modifier_invocations:
            if invocation not in modifiers and invocation not in contract.bases:
                diagnostics.append(Diagnostic(
                    f"{_label(function)} invokes unknown modifier '{invocation}'",
                    *tokens.position(function.at)))
            chain += modifiers.get(invocation, ())
        key = tuple([lowered[0] for lowered in chain]) if chain else ()
        graph.functions.append((function, key))
        moves = len(graph.funds)
        entry, exits = graph.block(), []
        exits.append(graph.lower(function.body, entry, exits, None, function.at))
        if len(graph.funds) == moves:
            continue  # no verdict reads a function without a fund move: nothing enters it
        if key and key not in chains:
            chains[key] = graph.chain([lowered[1:] for lowered in chain])
        if key:
            graph.run_at(chains[key], entry, exits)
        else:
            graph.successors[0].append((entry, FALLTHROUGH))
            graph.ends += exits
    sites.sort()
    return graph


def find_fund_modifications(lowering: Lowering) -> list[FundPoint]:
    """The lowering's fund points, sorted by position."""
    return sorted(lowering.funds, key=attrgetter("evidence"))


# The walk dispatches on the exact node type, which matches isinstance
# because no concrete AST class subclasses another.
def _scan_expr(
    expr: ast.Expr, stmt: ast.Stmt, tokens: Tokens, balances: frozenset[str]
) -> tuple[Evidence, ...]:
    """The fund Evidence of each fund move in expr, at its write or call,
    with stmt as its text. A write to a balance mapping is one when it is
    one level deep: `bals[to] = 0`, not `allowed[a][b] = 0`. The walk keeps
    its own stack: an assignment chain nests as deep as it is long."""
    found = ()
    stack = [expr]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls in _LEAVES:
            continue
        if cls is ast.CallExpr:
            if _moves_funds(node):
                found += (_evidence("fund_modification", tokens, node.at, stmt),)
            stack += (node.callee, node.options, *node.args)  # None options: no node
        elif cls is ast.Assign:
            lvalue = node.lvalue
            if type(lvalue) is ast.Index and type(lvalue.base) is ast.Identifier \
                    and lvalue.base.name in balances:
                found += (_evidence("fund_modification", tokens, node.at, stmt),)
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
        elif cls is ast.Pairs:
            stack += node.values
    return found


def _moves_funds(call: ast.CallExpr) -> bool:
    """A call whose options name `value` (`x.call{value: v}(...)`,
    `new T{value: v}(...)`), `selfdestruct(...)`, `x.transfer(...)`,
    `x.send(...)` or the legacy `x.call.value(...)(...)`."""
    if call.options is not None and "value" in call.options.names:
        return True
    callee = call.callee
    if isinstance(callee, ast.Identifier):
        return callee.name == "selfdestruct"
    if isinstance(callee, ast.Member):
        return callee.member in ("transfer", "send")
    return isinstance(callee, ast.CallExpr) and isinstance(callee.callee, ast.Member) \
        and callee.callee.member == "value" \
        and isinstance(callee.callee.base, ast.Member) and callee.callee.base.member == "call"


def pair_detections(
    lowering: Lowering, tokens: Tokens, funds: list[FundPoint], diagnostics: list[Diagnostic]
) -> list[Subject]:
    """One Subject per function with a guard or a live write, graded by its
    worst write in one flow query; ``tokens`` are those the contract was
    parsed from. An unguarded write lists the unguarded writes alone; else
    the function's and its modifiers' guards, by position, and its guarded
    writes. Keys are declaration `at`s, so overloads stay apart."""
    verdicts = compute_guardedness(lowering.cfg, lowering.guards, funds, lowering.ends,
                                   diagnostics).verdicts
    guards_at: dict[int, list[Evidence]] = {}
    for evidence, at in lowering.sites:
        guards_at.setdefault(at, []).append(evidence)
    funds_at: dict[int, list[FundPoint]] = {}
    for point in funds:
        funds_at.setdefault(point.at, []).append(point)
    subjects: list[Subject] = []
    for function, chain in lowering.functions:
        guards = [*guards_at.get(function.at, ())]
        for at in chain:
            guards += guards_at.get(at, ())
        points = funds_at.get(function.at, ())
        writes = tuple([p.evidence for p in points if verdicts[p] is False])
        if writes:
            guards = []
        elif points:
            writes = tuple([p.evidence for p in points if verdicts[p]])
        if guards or writes:
            guards.sort(key=_BY_POSITION)
            subjects.append(Subject(*tokens.position(function.at), _label(function),
                                    tuple(guards), writes, ""))
    return subjects
