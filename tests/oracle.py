"""Independent guardedness oracle: exhaustive path enumeration.

A fund point is unguarded iff some entry path reaches it without passing
through an assert-guard instruction or crossing the authorized (non-fail)
edge of a branch guard. Enumeration caps revisits at one cycle repetition
per instruction, which is complete for this cut property.

`reference_witnesses` is the reference for witness paths: an
instruction-level BFS that records one parent per instruction and reads
each block path off the instruction path.
"""

from __future__ import annotations

from collections import deque

from centriscan.teal.cfg import Cfg
from centriscan.teal.detectors import FundModPoint, GuardPoint


def _instruction_successors(cfg: Cfg, pruned: set) -> dict[int, list[tuple[int, bool]]]:
    """Successor map: (next instruction, crosses_authorized_edge)."""
    successors: dict[int, list[tuple[int, bool]]] = {}
    for block in cfg.blocks:
        for q in range(block.start, block.end - 1):
            successors[q] = [(q + 1, False)]
        successors[block.end - 1] = []
    for frm, to, kind in cfg.edges:
        last = cfg.blocks[frm].end - 1
        successors[last].append((cfg.blocks[to].start, (frm, to, kind) in pruned))
    return successors


def _guard_cuts(guards: list[GuardPoint]) -> tuple[set[int], set]:
    asserts = {g.instruction for g in guards if g.form == "AssertGuard"}
    pruned = {g.non_fail_edge for g in guards
              if g.form == "BranchGuard" and g.non_fail_edge is not None}
    return asserts, pruned


def plain_reachable(cfg: Cfg) -> set[int]:
    """Instruction indices reachable from entry with no guard semantics."""
    if not cfg.blocks:
        return set()
    successors = _instruction_successors(cfg, set())
    entry = cfg.blocks[cfg.entry].start
    seen = {entry}
    queue = deque([entry])
    while queue:
        q = queue.popleft()
        for s, _ in successors[q]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def exists_unguarded_path(cfg: Cfg, guards: list[GuardPoint], target: int,
                          visit_cap: int = 2) -> bool:
    """Search every entry path (cycles capped) for one avoiding all guards."""
    asserts, pruned = _guard_cuts(guards)
    successors = _instruction_successors(cfg, pruned)
    entry = cfg.blocks[cfg.entry].start
    counts: dict[int, int] = {}

    def dfs(q: int) -> bool:
        if q == target:
            return True
        if q in asserts:
            return False
        counts[q] = counts.get(q, 0) + 1
        try:
            for s, crosses_authorized in successors[q]:
                if crosses_authorized:
                    continue
                if counts.get(s, 0) < visit_cap and dfs(s):
                    return True
            return False
        finally:
            counts[q] -= 1

    return dfs(entry)


def oracle_verdicts(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint]
) -> dict[FundModPoint, bool | None]:
    reachable = plain_reachable(cfg)
    verdicts: dict[FundModPoint, bool | None] = {}
    for point in funds:
        if point.instruction not in reachable:
            verdicts[point] = None
        else:
            verdicts[point] = not exists_unguarded_path(cfg, guards, point.instruction)
    return verdicts


def _reach(cfg: Cfg, stop_instructions: set, pruned_edges: set
           ) -> tuple[set[int], dict[int, int]]:
    """Instruction-level BFS from entry with one parent per instruction;
    expansion halts at stop instructions and never crosses pruned edges."""
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


def reference_witnesses(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint]
) -> tuple[dict[FundModPoint, tuple[int, ...]], dict[FundModPoint, tuple[int, ...]]]:
    """(block paths, instruction paths) of every fund point reachable
    without crossing a guard, as the instruction-parent BFS finds them."""
    block_paths: dict[FundModPoint, tuple[int, ...]] = {}
    instruction_paths: dict[FundModPoint, tuple[int, ...]] = {}
    if not cfg.blocks:
        return block_paths, instruction_paths
    reached, parents = _reach(cfg, *_guard_cuts(guards))
    for point in funds:
        if point.instruction in reached:
            path = _instruction_path(parents, point.instruction, cfg)
            instruction_paths[point] = path
            block_paths[point] = _block_path(path, cfg)
    return block_paths, instruction_paths
