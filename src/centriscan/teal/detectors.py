"""TEAL guard and fund-modification points, read from the opcodes and the
block facts: asserts on a sender `==` comparison, `bz`/`bnz` on a sender
comparison whose unauthorized edge leads only to failure, and balance
writes. `centriscan.flow` decides their guardedness, and the verdicts
become the subjects the risk engine grades.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ..diagnostics import Diagnostic
from ..flow import (ASSERT_GUARD, BRANCH_GUARD, BRANCH_NOT_TAKEN, BRANCH_TAKEN, Cfg,
                    GuardednessResult, reaching)
from ..report import Evidence, Subject
from .absint import EMPTY_FACTS, BlockFacts, IntConst, SenderCmp, render_value, string_literal
from .parser import BRANCH_OPCODES, TealProgram


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


def find_guard_points(
    cfg: Cfg,
    facts: list[BlockFacts],
    program: TealProgram,
    diagnostics: list[Diagnostic],
) -> list[GuardPoint]:
    """Collect assert guards and failure-gating branch guards, in
    instruction order: facts come block by block, and a branch guard ends
    its block."""
    points: list[GuardPoint] = []
    lines = program.lines
    succeeding: list[set[int]] = []  # see _is_failure_region
    for block, block_facts in enumerate(facts):
        if block_facts is EMPTY_FACTS:
            continue
        for index, cmp in block_facts.guard_points.items():
            line = lines[index]
            if cmp.polarity != "eq":
                diagnostics.append(Diagnostic(
                    "assert on a negated sender comparison is not an access guard", line))
                continue
            _note_weakened(diagnostics, cmp, line)
            source = render_value(cmp.source)
            points.append(GuardPoint(
                ASSERT_GUARD, block, index, line, source,
                f"assert: txn Sender == {source}",
            ))
        if block_facts.branch_guard is not None:
            point = _branch_guard(cfg, facts, block, program, diagnostics, succeeding)
            if point is not None:
                points.append(point)
    return points


def _note_weakened(diagnostics, cmp: SenderCmp, line: int) -> None:
    if cmp.weakened:
        diagnostics.append(Diagnostic(
            "weakened guard: sender comparison combined with '||'", line))


def _branch_guard(cfg, facts, block, program, diagnostics, succeeding
                  ) -> GuardPoint | None:
    index = cfg.blocks[block].stop - 1
    cmp = facts[block].branch_guard
    opcode = program.opcodes[index]
    line = program.lines[index]
    authorized_on_true = cmp.polarity == "eq"
    # bz branches when the comparison is 0, bnz when it is nonzero; the fail
    # candidate is whichever edge the unauthorized sender takes.
    if opcode == "bz":
        fail_kind = BRANCH_TAKEN if authorized_on_true else BRANCH_NOT_TAKEN
    else:
        fail_kind = BRANCH_NOT_TAKEN if authorized_on_true else BRANCH_TAKEN
    outgoing = {kind: to for to, kind in cfg.successors[block]}
    fail_target = outgoing.get(fail_kind)
    if fail_target is None:
        diagnostics.append(Diagnostic(
            "sender comparison branch has no failure edge", line))
        return None
    if not _is_failure_region(cfg, facts, program, fail_target, succeeding):
        diagnostics.append(Diagnostic(
            "sender comparison branch does not gate a failure path", line))
        return None
    _note_weakened(diagnostics, cmp, line)
    other_kind = BRANCH_NOT_TAKEN if fail_kind == BRANCH_TAKEN else BRANCH_TAKEN
    non_fail_to = outgoing.get(other_kind)
    non_fail_edge = None
    if non_fail_to is not None:
        non_fail_edge = (block, non_fail_to, other_kind)
    source = render_value(cmp.source)
    operator = "==" if cmp.polarity == "eq" else "!="
    return GuardPoint(
        BRANCH_GUARD, block, index, line, source,
        f"{opcode}: txn Sender {operator} {source}",
        non_fail_edge=non_fail_edge,
    )


def _is_failure_region(cfg: Cfg, facts: list[BlockFacts], program: TealProgram,
                       start_block: int, succeeding: list[set[int]]) -> bool:
    """True iff no path from start_block may end the program successfully.
    A block with no successors is decided alone. Any other is looked up in
    the blocks that lead to a success, found by one backward pass per
    program and kept in succeeding, empty until the first such lookup."""
    if not cfg.successors[start_block]:
        return not _may_succeed(cfg, facts, program, start_block)
    if not succeeding:
        succeeding.append(reaching(cfg, [b for b in range(len(cfg.blocks))
                                         if _may_succeed(cfg, facts, program, b)]))
    return start_block not in succeeding[0]


def _may_succeed(cfg: Cfg, facts: list[BlockFacts], program: TealProgram, block: int) -> bool:
    """True iff the program may end successfully at the end of block: every
    ending but `err` and a `return` of a proven zero. A branch to the label
    after the last instruction, or a conditional one that falls off the
    end, ends the program with what is on the stack."""
    end = cfg.blocks[block].stop
    last = program.opcodes[end - 1]
    if last in BRANCH_OPCODES:
        immediates = program.immediates[end - 1]
        n = len(program.opcodes)
        if immediates and program.labels.get(immediates[0]) == n or last != "b" and end == n:
            return True
    if cfg.successors[block] or last == "err":
        return False
    return last != "return" or facts[block].returned != IntConst(0)


def find_fund_mod_points(facts: list[BlockFacts], program: TealProgram) -> list[FundModPoint]:
    """One point per state write whose constant key matches the balance rule,
    in instruction order."""
    points: list[FundModPoint] = []
    for block, block_facts in enumerate(facts):
        if block_facts is EMPTY_FACTS:
            continue
        for index, (opcode, key) in block_facts.fund_mods.items():
            points.append(FundModPoint(
                block, index, program.lines[index],
                opcode, key,
            ))
    return points


def find_subjects(
    guard_points: list[GuardPoint],
    fund_points: list[FundModPoint],
    guardedness: GuardednessResult,
) -> Iterator[Subject]:
    """One subject per reachable write, with the guards that gate it; in a
    program with no write, one per guard."""
    for point in fund_points:
        verdict = guardedness.verdicts.get(point)
        if verdict is not None:  # an unreachable write is only a diagnostic
            key = string_literal(point.key)
            yield Subject(
                point.line, 1, f"state write to balance key {key}",
                tuple(Evidence("guard", g.line, 1, g.description)
                      for g in guardedness.gates.get(point, ())),
                (Evidence("fund_modification", point.line, 1, f"{point.opcode} key {key}"),),
                "" if verdict else f" (blocks {guardedness.tails[point]})")
    if not fund_points:
        for g in guard_points:
            yield Subject(g.line, 1, f"sender guard on {g.privileged_source}",
                          (Evidence("guard", g.line, 1, g.description),), (), "")
