"""Independent guardedness oracle: exhaustive path enumeration.

A fund point is unguarded iff some entry path reaches it without passing
through an assert-guard instruction or crossing the authorized (non-fail)
edge of a branch guard. Enumeration caps revisits at one cycle repetition
per instruction, which is complete for this cut property and for the last
guard of a path (a shortest path to that guard, then a guard-free simple
path on to the write, holds each instruction at most twice).

`reference_gates` enumerates the same capped paths with no guard semantics
and collects, per guarded fund point, the last guard instruction each path
passes before reaching it.

`reference_witnesses` is the reference for witness paths: an
instruction-level BFS that records one parent per instruction and reads
each block path off the instruction path.
"""

from __future__ import annotations

from collections import deque

from centriscan.teal.cfg import Cfg
from centriscan.teal.detectors import FundModPoint, GuardPoint


def _instruction_successors(cfg: Cfg, pruned: set) -> dict[int, list[int]]:
    """Successor map over instructions, without the pruned block edges."""
    successors: dict[int, list[int]] = {}
    for block in cfg.blocks:
        for q in range(block.start, block.end - 1):
            successors[q] = [q + 1]
        successors[block.end - 1] = []
    for frm, to, kind in cfg.edges:
        if (frm, to, kind) not in pruned:
            successors[cfg.blocks[frm].end - 1].append(cfg.blocks[to].start)
    return successors


def _capped_paths(cfg: Cfg, successors: dict[int, list[int]], stops: set,
                  visit_cap: int = 2):
    """Yield every entry path, as one list extended in place, on which no
    instruction occurs more than visit_cap times; a path ends at a stop."""
    entry = cfg.blocks[cfg.entry].start
    path = [entry]
    counts = {entry: 1}
    pending = [iter(() if entry in stops else successors[entry])]
    yield path
    while pending:
        for s in pending[-1]:
            if counts.get(s, 0) < visit_cap:
                path.append(s)
                counts[s] = counts.get(s, 0) + 1
                yield path
                pending.append(iter(() if s in stops else successors[s]))
                break
        else:
            pending.pop()
            counts[path.pop()] -= 1


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
        for s in successors[q]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def exists_unguarded_path(cfg: Cfg, guards: list[GuardPoint], target: int,
                          visit_cap: int = 2) -> bool:
    """Search every entry path (cycles capped) for one avoiding all guards."""
    asserts, pruned = _guard_cuts(guards)
    successors = _instruction_successors(cfg, pruned)
    # A path ends at an assert, but reaching the target there still counts.
    return any(path[-1] == target
               for path in _capped_paths(cfg, successors, asserts, visit_cap))


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


def reference_gates(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint], visit_cap: int = 2
) -> dict[FundModPoint, tuple[int, ...]]:
    """Per fund point the oracle calls guarded, the sorted set of the last
    guard instruction on each entry path to it (either edge of a branch
    guard; the write's own instruction does not count as passed)."""
    verdicts = oracle_verdicts(cfg, guards, funds)
    guarded = {p.instruction: p for p, verdict in verdicts.items() if verdict is True}
    if not guarded:
        return {}
    guard_instructions = {g.instruction for g in guards}
    found: dict[int, set[int | None]] = {q: set() for q in guarded}
    successors = _instruction_successors(cfg, set())
    for path in _capped_paths(cfg, successors, set(), visit_cap):
        if path[-1] in found:
            found[path[-1]].add(next(
                (q for q in reversed(path[:-1]) if q in guard_instructions), None))
    assert all(None not in last for last in found.values()), \
        "a guarded write has an entry path that passes no guard"
    return {guarded[q]: tuple(sorted(last)) for q, last in found.items()}


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
