"""Guard points, fund-modification points, and all-paths guardedness.

A fund modification is guarded iff every path from program entry reaches it
only after passing an assert-style guard or crossing the authorized edge of
a branch-style guard. Computed as reachability at instruction granularity
in a pruned graph: traversal stops at assert guards and the authorized
(non-fail) edge of each branch guard is removed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from ..diagnostics import Diagnostic
from .absint import BlockFacts, IntConst, SenderCmp, render_value
from .cfg import BRANCH_NOT_TAKEN, BRANCH_TAKEN, Cfg
from .parser import TealProgram

ASSERT_GUARD = "AssertGuard"
BRANCH_GUARD = "BranchGuard"


class GuardPoint(NamedTuple):
    form: str  # AssertGuard | BranchGuard
    block: int
    instruction: int
    line: int
    privileged_source: str  # rendered, e.g. app_global_get["manager"]
    description: str
    non_fail_edge: tuple[int, int, str] | None = None  # BranchGuard only


class FundModPoint(NamedTuple):
    block: int
    instruction: int
    line: int
    opcode: str  # app_local_put | app_global_put
    key: str


@dataclass
class GuardednessResult:
    verdicts: dict[FundModPoint, bool | None] = field(default_factory=dict)
    witnesses: dict[FundModPoint, tuple[int, ...]] = field(default_factory=dict)
    witness_instructions: dict[FundModPoint, tuple[int, ...]] = field(default_factory=dict)


def find_guard_points(
    cfg: Cfg,
    facts: list[BlockFacts],
    program: TealProgram,
    diagnostics: list[Diagnostic] | None = None,
) -> list[GuardPoint]:
    """Collect assert guards and failure-gating branch guards."""
    points: list[GuardPoint] = []
    instructions = program.instructions
    for block_facts in facts:
        for index in sorted(block_facts.guard_points):
            cmp = block_facts.guard_points[index]
            line = instructions[index].line
            if cmp.polarity != "eq":
                _note(diagnostics, "assert on a negated sender comparison is "
                                   "not an access guard", line)
                continue
            _note_weakened(diagnostics, cmp, line)
            source = render_value(cmp.source)
            points.append(GuardPoint(
                ASSERT_GUARD, block_facts.block, index, line, source,
                f"assert: txn Sender == {source}",
            ))
        if block_facts.branch_guard is not None:
            point = _branch_guard(cfg, facts, block_facts, program, diagnostics)
            if point is not None:
                points.append(point)
    points.sort(key=attrgetter("instruction"))
    return points


def _note(diagnostics, message, line) -> None:
    if diagnostics is not None:
        diagnostics.append(Diagnostic(message, line))


def _note_weakened(diagnostics, cmp: SenderCmp, line: int) -> None:
    if cmp.weakened:
        _note(diagnostics,
              "weakened guard: sender comparison combined with '||'", line)


def _branch_guard(cfg, facts, block_facts, program, diagnostics) -> GuardPoint | None:
    index = block_facts.branch_index
    cmp = block_facts.branch_guard
    ins = program.instructions[index]
    authorized_on_true = cmp.polarity == "eq"
    # bz branches when the comparison is 0, bnz when it is nonzero; the fail
    # candidate is whichever edge the unauthorized sender takes.
    if ins.opcode == "bz":
        fail_kind = BRANCH_TAKEN if authorized_on_true else BRANCH_NOT_TAKEN
    else:
        fail_kind = BRANCH_NOT_TAKEN if authorized_on_true else BRANCH_TAKEN
    outgoing = {kind: to for to, kind in cfg.successors(block_facts.block)}
    fail_target = outgoing.get(fail_kind)
    if fail_target is None:
        _note(diagnostics, "sender comparison branch has no failure edge", ins.line)
        return None
    if not _is_failure_region(cfg, facts, program, fail_target):
        _note(diagnostics,
              "sender comparison branch does not gate a failure path", ins.line)
        return None
    _note_weakened(diagnostics, cmp, ins.line)
    other_kind = BRANCH_NOT_TAKEN if fail_kind == BRANCH_TAKEN else BRANCH_TAKEN
    non_fail_to = outgoing.get(other_kind)
    non_fail_edge = None
    if non_fail_to is not None:
        non_fail_edge = (block_facts.block, non_fail_to, other_kind)
    source = render_value(cmp.source)
    operator = "==" if cmp.polarity == "eq" else "!="
    return GuardPoint(
        BRANCH_GUARD, block_facts.block, index, ins.line, source,
        f"{ins.opcode}: txn Sender {operator} {source}",
        non_fail_edge=non_fail_edge,
    )


def _is_failure_region(cfg: Cfg, facts: list[BlockFacts], program: TealProgram,
                       start_block: int) -> bool:
    """True iff every terminator reachable from start_block is `err` or a
    `return` of a proven zero."""
    for block_index in _reachable_blocks(cfg, start_block):
        if cfg.successors(block_index):
            continue
        last_index = cfg.blocks[block_index].end - 1
        last = program.instructions[last_index]
        if last.opcode == "err":
            continue
        if last.opcode == "return":
            value = facts[block_index].return_values.get(last_index)
            if value == IntConst(0):
                continue
        return False
    return True


def find_fund_mod_points(facts: list[BlockFacts], program: TealProgram) -> list[FundModPoint]:
    """One point per state write whose constant key matches the balance rule."""
    points: list[FundModPoint] = []
    for block_facts in facts:
        for index in sorted(block_facts.fund_mods):
            opcode, key = block_facts.fund_mods[index]
            points.append(FundModPoint(
                block_facts.block, index, program.instructions[index].line,
                opcode, key,
            ))
    points.sort(key=attrgetter("instruction"))
    return points


def compute_guardedness(
    cfg: Cfg,
    guard_points: list[GuardPoint],
    fund_points: list[FundModPoint],
    diagnostics: list[Diagnostic] | None = None,
) -> GuardednessResult:
    """Decide, per fund point, whether all entry paths cross a guard."""
    result = GuardednessResult()
    if not cfg.blocks:
        return result

    assert_stops = {p.instruction for p in guard_points if p.form == ASSERT_GUARD}
    pruned_edges = {p.non_fail_edge for p in guard_points
                    if p.form == BRANCH_GUARD and p.non_fail_edge is not None}

    reachable_pruned, parents = _reach(cfg, assert_stops, pruned_edges)
    # Without stops or pruned edges a path enters blocks only at their start,
    # so an instruction is reachable exactly when its block is.
    reachable_blocks = _reachable_blocks(cfg, cfg.entry)

    for point in fund_points:
        if point.instruction in reachable_pruned:
            result.verdicts[point] = False
            path = _instruction_path(parents, point.instruction, cfg)
            result.witness_instructions[point] = path
            result.witnesses[point] = _block_path(path, cfg)
        elif cfg.block_of[point.instruction] in reachable_blocks:
            result.verdicts[point] = True
        else:
            result.verdicts[point] = None  # dead code
            if diagnostics is not None:
                diagnostics.append(Diagnostic(
                    f"fund modification at line {point.line} is unreachable "
                    f"from program entry", point.line))
    return result


def _reachable_blocks(cfg: Cfg, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for to, _kind in cfg.successors(stack.pop()):
            if to not in seen:
                seen.add(to)
                stack.append(to)
    return seen


def _reach(cfg: Cfg, stop_instructions: frozenset | set,
           pruned_edges: frozenset | set) -> tuple[set[int], dict[int, int]]:
    """Instruction-level BFS from entry; expansion halts at stop instructions
    and never crosses pruned block edges."""
    blocks = cfg.blocks
    entry = blocks[cfg.entry].start
    seen = {entry}
    parents: dict[int, int] = {}
    queue = deque([entry])
    while queue:
        q = queue.popleft()
        if q in stop_instructions:
            continue
        block = blocks[cfg.block_of[q]]
        if q + 1 < block.end:
            nxt = [q + 1]
        else:
            frm = block.index
            nxt = [blocks[to].start for to, kind in cfg.successors(frm)
                   if (frm, to, kind) not in pruned_edges]
        for s in nxt:
            if s not in seen:
                seen.add(s)
                parents[s] = q
                queue.append(s)
    return seen, parents


def _instruction_path(parents: dict[int, int], target: int, cfg: Cfg) -> tuple[int, ...]:
    path = [target]
    entry = cfg.blocks[cfg.entry].start
    while path[-1] != entry:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def _block_path(instruction_path: tuple[int, ...], cfg: Cfg) -> tuple[int, ...]:
    blocks = []
    for q in instruction_path:
        b = cfg.block_of[q]
        if not blocks or blocks[-1] != b:
            blocks.append(b)
    return tuple(blocks)
