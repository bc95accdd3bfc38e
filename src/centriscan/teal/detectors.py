"""Guard points, fund-modification points, and all-paths guardedness.

A fund modification is guarded iff every path from program entry reaches it
only after passing an assert-style guard or crossing the authorized edge of
a branch-style guard. Computed as reachability over blocks in a pruned
graph: a path halts at its block's first assert guard, and the authorized
(non-fail) edge of each branch guard is removed. Blocks are entered in
order of the fewest instructions from entry, so the traversal keeps, per
block entered, the parent and depth that an instruction-level BFS's parent
tree gives it. Per unguarded write only the text a report prints of its
witness path is stored, found by walking fewer than WITNESS_MAX_BLOCKS
parents; full block and instruction paths are derived from the parent map
on read. Each guarded write's gating guards are the last guard on each of
its entry paths, found by one forward pass over blocks. The verdicts become
the subjects the risk engine grades.
"""

from __future__ import annotations

from heapq import heappop, heappush
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
    succeeding: list[set[int]] = []  # see _is_failure_region
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
            point = _branch_guard(cfg, facts, block_facts, program, diagnostics, succeeding)
            if point is not None:
                points.append(point)
    return points


def _note_weakened(diagnostics, cmp: SenderCmp, line: int) -> None:
    if cmp.weakened:
        diagnostics.append(Diagnostic(
            "weakened guard: sender comparison combined with '||'", line))


def _branch_guard(cfg, facts, block_facts, program, diagnostics, succeeding
                  ) -> GuardPoint | None:
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
    if not _is_failure_region(cfg, facts, program, fail_target, succeeding):
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
                       start_block: int, succeeding: list[set[int]]) -> bool:
    """True iff no path from start_block may end the program successfully.
    A block with no successors is decided alone. Any other is looked up in
    the blocks that lead to a success, found by one backward pass per
    program and kept in succeeding, empty until the first such lookup."""
    if not cfg.successors[start_block]:
        return not _may_succeed(cfg, facts, program, start_block)
    if not succeeding:
        succeeding.append(_leading_to_success(cfg, facts, program))
    return start_block not in succeeding[0]


def _may_succeed(cfg: Cfg, facts: list[BlockFacts], program: TealProgram, block: int) -> bool:
    """True iff the program may end successfully at the end of block: every
    ending but `err` and a `return` of a proven zero. A branch to the label
    after the last instruction, or a conditional one that falls off the
    end, ends the program with what is on the stack."""
    end = cfg.blocks[block].end
    last = program.opcodes[end - 1]
    if last in BRANCH_OPCODES:
        immediates = program.immediates[end - 1]
        n = len(program.opcodes)
        if immediates and program.labels.get(immediates[0]) == n or last != "b" and end == n:
            return True
    if cfg.successors[block] or last == "err":
        return False
    return last != "return" or facts[block].returned != IntConst(0)


def _leading_to_success(cfg: Cfg, facts: list[BlockFacts], program: TealProgram) -> set[int]:
    """The blocks with a path to a block at whose end the program may
    succeed, found backward from those blocks in one pass."""
    predecessors: list[list[int]] = [[] for _ in cfg.blocks]
    for frm, out in enumerate(cfg.successors):
        for to, _kind in out:
            predecessors[to].append(frm)
    stack = [b for b in range(len(cfg.blocks)) if _may_succeed(cfg, facts, program, b)]
    seen = set(stack)
    while stack:
        for frm in predecessors[stack.pop()]:
            if frm not in seen:
                seen.add(frm)
                stack.append(frm)
    return seen


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
    """Decide, per fund point, whether all entry paths cross a guard.

    Work is per block and edge, plus a heap operation per block entered. A
    tie, two block ends equally far from entry that lead into one block,
    also walks both parent chains up to their lowest common ancestor, as
    many steps as the deeper chain is long. The stagebench workloads and
    the test corpus hold no tie."""
    result = GuardednessResult(cfg)
    if not cfg.blocks:
        return result

    pruned_edges = {p.non_fail_edge for p in guard_points
                    if p.form == BRANCH_GUARD and p.non_fail_edge is not None}
    # Guards per block in instruction order; the last one is what a path
    # leaving the block has passed last. A block's first assert guard is
    # where a path through it halts.
    guards_in: dict[int, list[GuardPoint]] = {}
    first_stop: dict[int, int] = {}
    for p in sorted(guard_points, key=_instruction):
        guards_in.setdefault(p.block, []).append(p)
        if p.form == ASSERT_GUARD:
            first_stop.setdefault(p.block, p.instruction)

    parents, depth = _reach(cfg, first_stop, pruned_edges)
    result.parents = parents
    gates_into = _gates_into(cfg, {b: (held[-1],) for b, held in guards_in.items()})

    for point in fund_points:
        block = point.block
        if block in depth and point.instruction <= first_stop.get(block, point.instruction):
            result.verdicts[point] = False
            result.tails[point] = _tail(parents, depth, block)
        elif block in gates_into:
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


def _reach(cfg: Cfg, stop_blocks: dict[int, int], pruned_edges: frozenset | set
           ) -> tuple[dict[int, int], dict[int, int]]:
    """The parent tree that an instruction-level BFS from entry (instruction
    0) builds, found block by block. The BFS halts at stop instructions,
    never crosses pruned edges and enters a block only at its start; a
    block's first instruction is reached after the fewest instructions of
    any path, and its parent is the block whose end the BFS's FIFO dequeues
    first among the ends that lie one instruction before it. So blocks are
    taken in order of how far their end lies from entry, and a block with a
    stop leads nowhere. Returns, per block reached, its parent (entry has
    none) and its depth in that parent tree (entry is 0)."""
    blocks = cfg.blocks
    successors = cfg.successors
    parents: dict[int, int] = {}
    depth = {0: 0}
    start_at = {0: 0}  # block -> instructions from entry to its start
    heap = [(blocks[0].end - blocks[0].start, 0)]  # (where its successors start, block)
    while heap:
        at, frm = heappop(heap)
        if frm in stop_blocks:
            continue
        for to, kind in successors[frm]:
            if (frm, to, kind) in pruned_edges:
                continue
            have = start_at.get(to)
            if have is None:
                start_at[to] = at
                block = blocks[to]
                heappush(heap, (at + block.end - block.start, to))
            elif have != at or parents[to] == frm or \
                    not _dequeued_first(cfg, parents, depth, pruned_edges, frm, parents[to]):
                continue  # entered sooner, or from an end the FIFO takes first
            parents[to] = frm
            depth[to] = depth[frm] + 1
    return parents, depth


def _dequeued_first(cfg: Cfg, parents: dict[int, int], depth: dict[int, int],
                    pruned_edges: frozenset | set, a: int, b: int) -> bool:
    """True iff the instruction FIFO dequeues the end of block a before that
    of block b, two ends equally far from entry. Their chains part at their
    lowest common ancestor, and the FIFO takes first the chain below its
    earlier successor edge. Walks both chains up to that ancestor."""
    while depth[a] > depth[b]:
        a = parents[a]
    while depth[b] > depth[a]:
        b = parents[b]
    while parents[a] != parents[b]:
        a, b = parents[a], parents[b]
    fork = parents[a]
    order = [to for to, kind in cfg.successors[fork] if (fork, to, kind) not in pruned_edges]
    return order.index(a) < order.index(b)


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
