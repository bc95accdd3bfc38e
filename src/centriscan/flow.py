"""Language-neutral control flow: a graph of blocks, and whether every path
from entry to a fund point crosses a guard.

A block is the `range` of its instruction indices; entry is block 0. Points
are read only through `block`, `instruction` and `line`, guards also
through `form` and `non_fail_edge`. A point is guarded iff every path from
entry reaches it only after an assert guard or across the authorized
(non-fail) edge of a branch guard: reachability over blocks in a graph in
which a path halts at its block's first assert guard and each authorized
edge is removed. A breadth-first search over blocks, in successor order,
gives each block reached its parent: an unguarded write's witness is the
guard-free path with the fewest blocks, and where two such paths part it
takes the earlier successor edge (taken before not-taken). Per unguarded
write only its printed witness is stored; full paths are derived from the
parents on read. A guarded write's gates are the last guard on each of its
entry paths, found by one forward pass.
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


def reaching(cfg: Cfg, targets: list[int]) -> set[int]:
    """The blocks with a path into one of targets, targets included, found
    backward from them in one pass."""
    predecessors: list[list[int]] = [[] for _ in cfg.blocks]
    for frm, out in enumerate(cfg.successors):
        for to, _kind in out:
            predecessors[to].append(frm)
    stack = list(targets)
    seen = set(stack)
    while stack:
        for frm in predecessors[stack.pop()]:
            if frm not in seen:
                seen.add(frm)
                stack.append(frm)
    return seen


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
        self.verdicts: dict = {}  # fund point -> True, False, or None when unreachable
        self.tails: dict = {}  # fund point -> printed witness
        self.gates: dict = {}  # fund point -> guard points
        self.parents: dict[int, int] = {}

    @property
    def witnesses(self) -> dict:
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
    def witness_instructions(self) -> dict:
        """Per unguarded write, its instruction path from entry."""
        blocks = self.cfg.blocks
        return {point: tuple(q for b in path for q in range(
                    blocks[b].start, blocks[b].stop if b != path[-1] else point.instruction + 1))
                for point, path in self.witnesses.items()}


def compute_guardedness(cfg: Cfg, guard_points: list, fund_points: list,
                        diagnostics: list[Diagnostic]) -> GuardednessResult:
    """Decide, per fund point, whether all entry paths cross a guard.

    The witness search takes each block and edge at most once."""
    result = GuardednessResult(cfg)
    if not cfg.blocks:
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


def _gates_into(cfg: Cfg, exits: dict[int, tuple]) -> dict[int, tuple]:
    """Forward pass from entry (block 0) over every edge: per reachable
    block, the guards (in no set order) that end a guard-free path into it;
    entry's guard-free path from itself adds none. A block that holds a
    guard passes on exits[block], its last guard. A block re-propagates
    only when its tuple grows, so loops terminate."""
    into: dict[int, tuple] = {0: ()}
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
