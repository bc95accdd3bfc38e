"""Guard points, fund-modification points, and all-paths guardedness.

A fund modification is guarded iff every path from program entry reaches it
only after passing an assert-style guard or crossing the authorized edge of
a branch-style guard. Computed as reachability at instruction granularity
in a pruned graph: traversal stops at assert guards and the authorized
(non-fail) edge of each branch guard is removed. The traversal keeps, per
block entered, its parent and depth in the BFS parent tree. Per unguarded
write only the text a report prints of its witness path is stored, found by
walking fewer than WITNESS_MAX_BLOCKS parents; full block and instruction
paths are derived from the parent map on read. Each guarded write's gating
guards are the last guard on each of its entry paths, found by one forward
pass over blocks. The verdicts become the subjects the risk engine grades.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Iterator, NamedTuple

from ..diagnostics import Diagnostic
from ..record import Record
from ..report import Evidence, Subject
from .absint import BlockFacts, IntConst, SenderCmp, render_value
from .cfg import BRANCH_NOT_TAKEN, BRANCH_TAKEN, Cfg
from .parser import BRANCH_OPCODES, TealProgram

ASSERT_GUARD = "AssertGuard"
BRANCH_GUARD = "BranchGuard"

_instruction = attrgetter("instruction")

# A witness of at most this many blocks is printed whole; a longer one as
# its entry block, the count left out and its last WITNESS_TAIL_BLOCKS.
WITNESS_MAX_BLOCKS = 8
WITNESS_TAIL_BLOCKS = 3


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


class GuardednessResult(Record):
    """Verdicts; per unguarded write its printed witness path; per
    guarded write its gating guards, the last guard on each entry path,
    sorted by instruction. `parents` is the BFS parent tree the witnesses
    follow (block -> the block it was entered from; entry has none). Full
    block and instruction paths are derived from it on read: no scan reads
    them, the tests and the benchmark do."""
    __slots__ = ("cfg", "verdicts", "tails", "gates", "parents")

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.verdicts: dict[FundModPoint, bool | None] = {}
        self.tails: dict[FundModPoint, str] = {}
        self.gates: dict[FundModPoint, tuple[GuardPoint, ...]] = {}
        self.parents: dict[int, int] = {}

    @property
    def witnesses(self) -> dict[FundModPoint, tuple[int, ...]]:
        """Per unguarded write, its block path from entry."""
        parents = self.parents
        paths = {}
        for point in self.tails:
            path = [point.block]
            while path[-1] != 0:
                path.append(parents[path[-1]])
            paths[point] = tuple(reversed(path))
        return paths

    @property
    def witness_instructions(self) -> dict[FundModPoint, tuple[int, ...]]:
        """Per unguarded write, its instruction path from entry."""
        blocks = self.cfg.blocks
        return {point: tuple(q for b in path for q in range(
                    blocks[b].start, blocks[b].end if b != path[-1] else point.instruction + 1))
                for point, path in self.witnesses.items()}


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
    for block_facts in facts:
        for index, cmp in block_facts.guard_points.items():
            line = lines[index]
            if cmp.polarity != "eq":
                diagnostics.append(Diagnostic(
                    "assert on a negated sender comparison is not an access guard", line))
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
    return points


def _note_weakened(diagnostics, cmp: SenderCmp, line: int) -> None:
    if cmp.weakened:
        diagnostics.append(Diagnostic(
            "weakened guard: sender comparison combined with '||'", line))


def _branch_guard(cfg, facts, block_facts, program, diagnostics) -> GuardPoint | None:
    index = cfg.blocks[block_facts.block].end - 1
    cmp = block_facts.branch_guard
    opcode = program.opcodes[index]
    line = program.lines[index]
    authorized_on_true = cmp.polarity == "eq"
    # bz branches when the comparison is 0, bnz when it is nonzero; the fail
    # candidate is whichever edge the unauthorized sender takes.
    if opcode == "bz":
        fail_kind = BRANCH_TAKEN if authorized_on_true else BRANCH_NOT_TAKEN
    else:
        fail_kind = BRANCH_NOT_TAKEN if authorized_on_true else BRANCH_TAKEN
    outgoing = {kind: to for to, kind in cfg.successors[block_facts.block]}
    fail_target = outgoing.get(fail_kind)
    if fail_target is None:
        diagnostics.append(Diagnostic(
            "sender comparison branch has no failure edge", line))
        return None
    if not _is_failure_region(cfg, facts, program, fail_target):
        diagnostics.append(Diagnostic(
            "sender comparison branch does not gate a failure path", line))
        return None
    _note_weakened(diagnostics, cmp, line)
    other_kind = BRANCH_NOT_TAKEN if fail_kind == BRANCH_TAKEN else BRANCH_TAKEN
    non_fail_to = outgoing.get(other_kind)
    non_fail_edge = None
    if non_fail_to is not None:
        non_fail_edge = (block_facts.block, non_fail_to, other_kind)
    source = render_value(cmp.source)
    operator = "==" if cmp.polarity == "eq" else "!="
    return GuardPoint(
        BRANCH_GUARD, block_facts.block, index, line, source,
        f"{opcode}: txn Sender {operator} {source}",
        non_fail_edge=non_fail_edge,
    )


def _is_failure_region(cfg: Cfg, facts: list[BlockFacts], program: TealProgram,
                       start_block: int) -> bool:
    """True iff every terminator reachable from start_block is `err` or a
    `return` of a proven zero. A branch to the label after the last
    instruction, or a conditional one that falls off the end, ends the
    program with what is on the stack, so it may succeed."""
    n = len(program.opcodes)
    for block_index in _reachable_blocks(cfg, start_block):
        end = cfg.blocks[block_index].end
        last = program.opcodes[end - 1]
        if last in BRANCH_OPCODES:
            immediates = program.immediates[end - 1]
            if (immediates and program.labels.get(immediates[0]) == n
                    or last != "b" and end == n):
                return False
        if cfg.successors[block_index]:
            continue
        if last == "err":
            continue
        if last == "return" and facts[block_index].returned == IntConst(0):
            continue
        return False
    return True


def find_fund_mod_points(facts: list[BlockFacts], program: TealProgram) -> list[FundModPoint]:
    """One point per state write whose constant key matches the balance rule,
    in instruction order."""
    points: list[FundModPoint] = []
    for block_facts in facts:
        for index, (opcode, key) in block_facts.fund_mods.items():
            points.append(FundModPoint(
                block_facts.block, index, program.lines[index],
                opcode, key,
            ))
    return points


def compute_guardedness(
    cfg: Cfg,
    guard_points: list[GuardPoint],
    fund_points: list[FundModPoint],
    diagnostics: list[Diagnostic],
) -> GuardednessResult:
    """Decide, per fund point, whether all entry paths cross a guard."""
    result = GuardednessResult(cfg)
    if not cfg.blocks:
        return result

    assert_stops = {p.instruction for p in guard_points if p.form == ASSERT_GUARD}
    pruned_edges = {p.non_fail_edge for p in guard_points
                    if p.form == BRANCH_GUARD and p.non_fail_edge is not None}

    reachable_pruned, parents, depth = _reach(cfg, assert_stops, pruned_edges)
    result.parents = parents
    # Guards per block in instruction order; the last one is what a path
    # leaving the block has passed last.
    guards_in: dict[int, list[GuardPoint]] = {}
    for p in sorted(guard_points, key=_instruction):
        guards_in.setdefault(p.block, []).append(p)
    gates_into = _gates_into(cfg, {b: (held[-1],) for b, held in guards_in.items()})

    for point in fund_points:
        if point.instruction in reachable_pruned:
            result.verdicts[point] = False
            result.tails[point] = _tail(parents, depth, point.block)
        elif (block := cfg.block_of[point.instruction]) in gates_into:
            result.verdicts[point] = True
            gates = gates_into[block]
            for p in guards_in.get(block, ()):
                if p.instruction < point.instruction:
                    gates = (p,)  # the last guard before the write in its block
            if len(gates) > 1:
                gates = gates_into[block] = tuple(sorted(gates, key=_instruction))
            result.gates[point] = gates
        else:
            result.verdicts[point] = None  # dead code
            diagnostics.append(Diagnostic(
                f"fund modification at line {point.line} is unreachable "
                f"from program entry", point.line))
    return result


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
            yield Subject(
                point.line, 1, f'state write to balance key "{point.key}"',
                tuple(Evidence("guard", g.line, 1, g.description)
                      for g in guardedness.gates.get(point, ())),
                (Evidence("fund_modification", point.line, 1,
                          f'{point.opcode} key "{point.key}"'),),
                "" if verdict else f" (blocks {guardedness.tails[point]})")
    if not fund_points:
        for g in guard_points:
            yield Subject(g.line, 1, f"sender guard on {g.privileged_source}",
                          (Evidence("guard", g.line, 1, g.description),), (), "")


def _gates_into(cfg: Cfg, exits: dict[int, tuple[GuardPoint]]
                ) -> dict[int, tuple[GuardPoint, ...]]:
    """Forward pass from entry (block 0) over every edge: per reachable
    block, the guards (in no set order) that end a guard-free path into it;
    entry's guard-free path from itself adds none. A block that holds a
    guard passes on exits[block], its last guard. A block re-propagates
    only when its tuple grows, so loops terminate."""
    into: dict[int, tuple[GuardPoint, ...]] = {0: ()}
    stack = [0]
    successors = cfg.successors
    while stack:
        b = stack.pop()
        out = exits.get(b) or into[b]
        for to, _kind in successors[b]:
            have = into.get(to)
            if have is None:
                into[to] = out
                stack.append(to)
            elif have is not out:
                extra = tuple(p for p in out if p not in have)
                if extra:
                    into[to] = have + extra
                    stack.append(to)
    return into


def _reachable_blocks(cfg: Cfg, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for to, _kind in cfg.successors[stack.pop()]:
            if to not in seen:
                seen.add(to)
                stack.append(to)
    return seen


def _reach(cfg: Cfg, stop_instructions: frozenset | set, pruned_edges: frozenset | set
           ) -> tuple[set[int], dict[int, int], dict[int, int]]:
    """Instruction-level BFS from entry (instruction 0) that halts at stop
    instructions and never crosses pruned edges. Returns the reached
    instructions and, per block entered, its parent (the block it was
    entered from) and its depth in that parent tree (entry is 0). FIFO over
    instructions keeps those chains the paths with the fewest instructions."""
    blocks = cfg.blocks
    seen = {0}
    parents: dict[int, int] = {}
    depth = {0: 0}
    queue = deque([0])
    while queue:
        q = queue.popleft()
        if q in stop_instructions:
            continue
        frm = cfg.block_of[q]
        if q + 1 < blocks[frm].end:
            # Only q leads to q + 1 inside a block, so it is not yet seen.
            seen.add(q + 1)
            queue.append(q + 1)
            continue
        for to, kind in cfg.successors[frm]:
            s = blocks[to].start
            if s not in seen and (frm, to, kind) not in pruned_edges:
                seen.add(s)
                parents[to] = frm
                depth[to] = depth[frm] + 1
                queue.append(s)
    return seen, parents, depth


def _tail(parents: dict[int, int], depth: dict[int, int], block: int) -> str:
    """The printed witness path to block, "0->1->2->7" or, when longer than
    WITNESS_MAX_BLOCKS, "0->...(+197)->198->199->400"; walks at most
    WITNESS_MAX_BLOCKS - 1 parents."""
    length = depth[block] + 1
    kept = length if length <= WITNESS_MAX_BLOCKS else WITNESS_TAIL_BLOCKS
    tail = [block]
    for _ in range(kept - 1):
        tail.append(parents[tail[-1]])
    via = "->".join(map(str, reversed(tail)))
    return via if kept == length else f"0->...(+{length - 1 - kept})->{via}"
