"""Language-neutral control flow: a graph of blocks, and whether a stranger
can commit a fund point.

A block is the `range` of its instruction indices; entry is block 0. Points
are read only through `block`, `instruction` and `line`, guards also
through `form` and `non_fail_edge`. A run commits a point it passes on its
way to an end, a block at whose end the program may succeed. A point is
unguarded iff a guard-free run commits it: one that passes no assert guard,
crosses no authorized (non-fail) edge of a branch guard and does not end at
a block ending in a branch guard (which ends the program only across its
authorized edge). It is guarded iff another run commits it, else dead. A
breadth-first search gives each block reached guard-free its parent: an
unguarded write's witness, printed from the parents on read, is the
guard-free path from entry with the fewest blocks, and where two such
paths part it takes the earlier successor edge. A guarded write's gates
are the last guard on each of its entry paths and, when a guard-free path
reaches it, the first guard on each of its runs on to an end.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .diagnostics import Diagnostic
from .record import Record

FALLTHROUGH = "fallthrough"
BRANCH_TAKEN = "branch_taken"
BRANCH_NOT_TAKEN = "branch_not_taken"

ASSERT_GUARD = "AssertGuard"
BRANCH_GUARD = "BranchGuard"

_instruction = attrgetter("instruction")

# A witness of at most this many blocks is printed whole; a longer one as
# its entry block, the count left out and its last WITNESS_TAIL_BLOCKS.
WITNESS_MAX_BLOCKS = 8
WITNESS_TAIL_BLOCKS = 3


class Cfg(NamedTuple):
    blocks: list[range]  # per block, the range of its instruction indices
    # Per block, its (to, kind) edges: a branch's taken edge before its
    # not-taken one. A terminator's list is empty.
    successors: list[list[tuple[int, str]]]

    @property
    def edges(self) -> list[tuple[int, int, str]]:
        """Every (from, to, kind) edge in block order, built on read."""
        return [(b, to, kind) for b, out in enumerate(self.successors) for to, kind in out]


def reaching(cfg: Cfg, targets) -> set[int]:
    """The blocks with a path into one of targets, targets included, found
    backward from them in one pass."""
    return _backward(_forward(cfg, range(len(cfg.blocks))), targets, (), ())


class GuardednessResult(Record):
    """Verdicts; per guarded write its gates, sorted by instruction.
    `parents` is the BFS parent tree the witnesses follow (block -> the
    block it was entered from; entry has none), `depth` each block's depth
    in it. An unguarded write's printed witness (`tail`) and its full block
    and instruction paths are derived from them on read."""
    __slots__ = ("cfg", "verdicts", "gates", "parents", "depth")

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.verdicts: dict = {}  # fund point -> True, False, or None when dead
        self.gates: dict = {}  # fund point -> guard points
        self.parents: dict[int, int] = {}
        self.depth: dict[int, int] = {}

    def tail(self, point) -> str:
        """An unguarded write's printed witness, "0->1->2->7" or, when longer
        than WITNESS_MAX_BLOCKS, "0->...(+197)->198->199->400"; walks at
        most WITNESS_MAX_BLOCKS - 1 parents."""
        length = self.depth[point.block] + 1
        kept = length if length <= WITNESS_MAX_BLOCKS else WITNESS_TAIL_BLOCKS
        tail = [point.block]
        for _ in range(kept - 1):
            tail.append(self.parents[tail[-1]])
        via = "->".join(map(str, reversed(tail)))
        return via if kept == length else f"0->...(+{length - 1 - kept})->{via}"

    @property
    def witnesses(self) -> dict:
        """Per unguarded write, its block path from entry."""
        parents = self.parents
        paths = {}
        for point in (p for p, verdict in self.verdicts.items() if verdict is False):
            path = [point.block]
            while path[-1] != 0:
                path.append(parents[path[-1]])
            paths[point] = tuple(reversed(path))
        return paths

    @property
    def witness_instructions(self) -> dict:
        """Per unguarded write, its instruction path from entry."""
        blocks = self.cfg.blocks
        return {point: tuple(q for b in path for q in range(
                    blocks[b].start, blocks[b].stop if b != path[-1] else point.instruction + 1))
                for point, path in self.witnesses.items()}


def compute_guardedness(cfg: Cfg, guard_points: list, fund_points: list, ends,
                        diagnostics: list[Diagnostic]) -> GuardednessResult:
    """Decide, per fund point, whether a stranger can commit it; ends are
    the blocks at whose end the program may succeed. The witness search
    takes each block and edge at most once."""
    result = GuardednessResult(cfg)
    if not cfg.blocks or not fund_points:
        return result

    pruned_edges = {p.non_fail_edge for p in guard_points
                    if p.form == BRANCH_GUARD and p.non_fail_edge is not None}
    # Guards per block in instruction order; the last one is what a path
    # leaving the block has passed last. A block's first assert guard is
    # where a path through it halts.
    guards_in: dict[int, list] = {}
    first_stop: dict[int, int] = {}
    for p in sorted(guard_points, key=_instruction):
        guards_in.setdefault(p.block, []).append(p)
        if p.form == ASSERT_GUARD:
            first_stop.setdefault(p.block, p.instruction)

    result.parents, result.depth = _reach(cfg, first_stop, pruned_edges)
    depth = result.depth
    gates_into = _gates_into(cfg.successors, (0,),
                             {b: (held[-1],) for b, held in guards_in.items()})
    # The passes back from ends keep to the blocks the writes' blocks reach.
    blocks = {p.block for p in fund_points}
    predecessors = _forward(cfg, blocks)
    ends = [b for b in ends if b in predecessors]
    committing = _backward(predecessors, ends, (), ())
    # Where a guard-free run may go on to an end, if one reaches a write.
    free_ends = _backward(predecessors, [b for b in ends if all(
        p.form == ASSERT_GUARD for p in guards_in.get(b, ()))], pruned_edges, first_stop
    ) if not blocks.isdisjoint(depth) else ()

    reached_free = []  # guarded points a guard-free path from entry reaches
    for point in fund_points:
        block = point.block
        free = block in depth and point.instruction <= first_stop.get(block, point.instruction)
        if free and block in free_ends:
            result.verdicts[point] = False
        elif block in gates_into and block in committing:
            result.verdicts[point] = True
            gates = gates_into[block]
            for p in guards_in.get(block, ()):
                if p.instruction < point.instruction:
                    gates = (p,)  # the last guard before the write in its block
            if len(gates) > 1:
                gates = gates_into[block] = tuple(sorted(gates, key=_instruction))
            result.gates[point] = gates
            if free:
                reached_free.append(point)
        else:
            result.verdicts[point] = None  # dead code
            diagnostics.append(Diagnostic(
                f"fund modification at line {point.line} is unreachable from program entry"
                if block not in gates_into else
                f"every path through the fund modification at line {point.line} fails",
                point.line))
    if reached_free:  # the first guard on each of their runs on to an end
        after = _gates_into(predecessors, ends, {b: (held[0],) for b, held in guards_in.items()})
        for point in reached_free:
            gates = result.gates[point] + tuple(next(
                ((p,) for p in guards_in.get(point.block, ()) if p.instruction >= point.instruction),
                after[point.block]))
            result.gates[point] = tuple(sorted(set(gates), key=_instruction))
    return result


def _forward(cfg: Cfg, blocks: set[int]) -> dict[int, list[tuple[int, str]]]:
    """Per block reachable from blocks, blocks included, its (from, kind)
    edges in from those blocks."""
    predecessors: dict[int, list] = {b: [] for b in blocks}
    stack = list(blocks)
    while stack:
        frm = stack.pop()
        for to, kind in cfg.successors[frm]:
            into = predecessors.get(to)
            if into is None:
                into = predecessors[to] = []
                stack.append(to)
            into.append((frm, kind))
    return predecessors


def _backward(predecessors: dict, targets: list[int], cut, halts) -> set[int]:
    """The blocks of predecessors with a path into one of targets, targets
    included, that crosses no (from, to, kind) edge in cut and enters no
    block in halts."""
    stack = [b for b in targets if b not in halts]
    seen = set(stack)
    while stack:
        to = stack.pop()
        for frm, kind in predecessors[to]:
            if frm not in seen and frm not in halts and (frm, to, kind) not in cut:
                seen.add(frm)
                stack.append(frm)
    return seen


def _gates_into(successors, starts, exits: dict[int, tuple]) -> dict[int, tuple]:
    """Pass from starts over every edge of successors: per block reached,
    the guards (in no set order) that end a guard-free path into it; a
    start's guard-free path from itself adds none. A block that holds a
    guard passes on exits[block] once; any other passes on each guard once,
    when it arrives. So a block that many paths join passes each guard one
    step on, and loops terminate."""
    into: dict[int, tuple] = dict.fromkeys(starts, ())
    stack = list(into)  # each block with, in outs, the guards it passes on
    outs = [exits.get(b, ()) for b in stack]
    while stack:
        b, out = stack.pop(), outs.pop()
        for to, _kind in successors[b]:
            have = into.get(to)
            if have is None:
                into[to] = out
                stack.append(to)
                outs.append(exits.get(to) or out)
            elif have is not out:
                extra = tuple(p for p in out if p not in have)
                if extra:
                    into[to] = have + extra
                    if to not in exits:
                        stack.append(to)
                        outs.append(extra)
    return into


def _reach(cfg: Cfg, stop_blocks: dict[int, int], pruned_edges: frozenset | set
           ) -> tuple[dict[int, int], dict[int, int]]:
    """Breadth-first search over blocks from entry, in successor order. It
    never crosses a pruned edge and does not leave a block that holds a
    stop. A block's parent is the block that finds it first, so its tree
    path has the fewest blocks and, where two such paths part, takes the
    earlier successor edge. Returns, per block reached, its parent (entry
    has none) and its depth in that tree (entry is 0)."""
    successors = cfg.successors
    parents: dict[int, int] = {}
    depth = {0: 0}
    queue = [0]
    for frm in queue:  # a FIFO: the loop also visits the blocks appended below
        if frm in stop_blocks:
            continue
        below = depth[frm] + 1
        for to, kind in successors[frm]:
            if to not in depth and (frm, to, kind) not in pruned_edges:
                parents[to] = frm
                depth[to] = below
                queue.append(to)
    return parents, depth
