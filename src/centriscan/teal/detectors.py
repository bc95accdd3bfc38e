"""TEAL guard and fund-modification points, read from the opcodes and the
block facts: asserts on a sender `==` comparison, `bz`/`bnz` on a sender
comparison whose unauthorized edge leads only to failure, and balance
writes. `centriscan.flow` decides their guardedness, and the verdicts
become the subjects the risk engine grades.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import attrgetter
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


def success_ends(cfg: Cfg, facts: list[BlockFacts], program: TealProgram) -> set[int]:
    """The blocks at whose end the program may finish successfully: every
    ending but `err` and a `return` of a proven zero. A branch to the label
    after the last instruction, or a conditional one that falls off the
    end, ends the program with what is on the stack. Blocks with successors
    are read only when such a label exists."""
    opcodes, blocks, ends = program.opcodes, cfg.blocks, set()
    for block in filterfalse(cfg.successors.__getitem__, range(len(blocks))):
        last, returned = opcodes[blocks[block].stop - 1], facts[block].returned
        if last != "err" and (last != "return" or type(returned) is not IntConst or returned.value):
            ends.add(block)
    if blocks and opcodes[-1] in ("bz", "bnz"):
        ends.add(len(blocks) - 1)
    if len(opcodes) in program.labels.values():
        at_end = {label for label, target in program.labels.items() if target == len(opcodes)}
        ends.update(b for b, block in enumerate(blocks) if opcodes[block[-1]] in BRANCH_OPCODES
                    and not at_end.isdisjoint(program.immediates[block[-1]][:1]))
    return ends


def find_guard_points(
    cfg: Cfg,
    facts: list[BlockFacts],
    program: TealProgram,
    ends: set[int],
    diagnostics: list[Diagnostic],
) -> list[GuardPoint]:
    """Collect assert guards and failure-gating branch guards, in
    instruction order: facts come block by block, and a branch guard ends
    its block. ends are the program's success_ends."""
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
            points.append(GuardPoint(ASSERT_GUARD, block, index, line, source,
                                     f"assert: txn Sender == {source}"))
        if block_facts.branch_guard is not None:
            point = _branch_guard(cfg, facts, block, program, ends, diagnostics, succeeding)
            if point is not None:
                points.append(point)
    return points


def _note_weakened(diagnostics, cmp: SenderCmp, line: int) -> None:
    if cmp.weakened:
        diagnostics.append(Diagnostic(
            "weakened guard: sender comparison combined with '||'", line))


def _branch_guard(cfg, facts, block, program, ends, diagnostics, succeeding
                  ) -> GuardPoint | None:
    index = cfg.blocks[block].stop - 1
    cmp = facts[block].branch_guard
    opcode = program.opcodes[index]
    line = program.lines[index]
    authorized_on_true = cmp.polarity == "eq"
    # bz branches when the comparison is 0, bnz when it is nonzero; the fail
    # candidate is whichever edge the unauthorized sender takes.
    fail_kind = BRANCH_TAKEN if (opcode == "bz") == authorized_on_true else BRANCH_NOT_TAKEN
    outgoing = {kind: to for to, kind in cfg.successors[block]}
    fail_target = outgoing.get(fail_kind)
    if fail_target is None:
        diagnostics.append(Diagnostic(
            "sender comparison branch has no failure edge", line))
        return None
    if not _is_failure_region(cfg, ends, fail_target, succeeding):
        diagnostics.append(Diagnostic(
            "sender comparison branch does not gate a failure path", line))
        return None
    _note_weakened(diagnostics, cmp, line)
    other_kind = BRANCH_NOT_TAKEN if fail_kind == BRANCH_TAKEN else BRANCH_TAKEN
    non_fail_edge = (block, outgoing[other_kind], other_kind) if other_kind in outgoing else None
    source = render_value(cmp.source)
    operator = "==" if cmp.polarity == "eq" else "!="
    return GuardPoint(
        BRANCH_GUARD, block, index, line, source,
        f"{opcode}: txn Sender {operator} {source}",
        non_fail_edge=non_fail_edge,
    )


def _is_failure_region(cfg: Cfg, ends: set[int], start_block: int,
                       succeeding: list[set[int]]) -> bool:
    """True iff no path from start_block reaches one of ends. A block with
    no successors is decided alone. Any other is looked up in the blocks
    that lead to an end, found by one backward pass per program and kept
    in succeeding, empty until the first such lookup."""
    if not cfg.successors[start_block]:
        return start_block not in ends
    if not succeeding:
        succeeding.append(reaching(cfg, ends))
    return start_block not in succeeding[0]


def find_fund_mod_points(facts: list[BlockFacts], program: TealProgram) -> list[FundModPoint]:
    """One point per state write whose constant key matches the balance rule,
    in instruction order."""
    return [FundModPoint(block, index, program.lines[index], opcode, key)
            for block, fund_mods in enumerate(map(attrgetter("fund_mods"), facts)) if fund_mods
            for index, (opcode, key) in fund_mods.items()]


def find_subjects(
    guard_points: list[GuardPoint],
    fund_points: list[FundModPoint],
    guardedness: GuardednessResult,
) -> Iterator[Subject]:
    """One subject per reachable write, with the guards that gate it; in a
    program with no write, one per guard. The gates are read, and so
    computed, when the first subject is asked for."""
    verdicts, gates = guardedness.verdicts, guardedness.gates
    for point in fund_points:
        verdict = verdicts.get(point)
        if verdict is not None:  # an unreachable write is only a diagnostic
            key = string_literal(point.key)
            yield Subject(
                point.line, 1, f"state write to balance key {key}",
                tuple(Evidence("guard", g.line, 1, g.description)
                      for g in gates.get(point, ())),
                (Evidence("fund_modification", point.line, 1, f"{point.opcode} key {key}"),),
                "" if verdict else f" (blocks {guardedness.tail(point)})")
    if not fund_points:
        for g in guard_points:
            yield Subject(g.line, 1, f"sender guard on {g.privileged_source}",
                          (Evidence("guard", g.line, 1, g.description),), (), "")
