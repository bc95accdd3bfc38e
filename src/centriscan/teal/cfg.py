"""Basic-block CFG over TEAL branch opcodes.

Block boundaries occur at labels, after b/bz/bnz, and after return/err
(retsub included: it never falls through). `assert` does not end a block;
its failure path is program abort, not an edge. Entry is block 0, which
starts at instruction 0; each block's outgoing edges are one list.
"""

from __future__ import annotations

from typing import NamedTuple

from .parser import BRANCH_OPCODES, TERMINATOR_OPCODES, TealProgram

FALLTHROUGH = "fallthrough"
BRANCH_TAKEN = "branch_taken"
BRANCH_NOT_TAKEN = "branch_not_taken"

_BLOCK_ENDS = BRANCH_OPCODES | TERMINATOR_OPCODES


class BasicBlock(NamedTuple):
    index: int
    start: int  # first instruction index
    end: int  # one past the last instruction index


class Cfg(NamedTuple):
    blocks: list[BasicBlock]
    # Per block, its (to, kind) edges: a branch's taken edge before its
    # not-taken one. A terminator's list is empty.
    successors: list[list[tuple[int, str]]]
    block_of: list[int]  # instruction index -> block index

    @property
    def edges(self) -> list[tuple[int, int, str]]:
        """Every (from, to, kind) edge in block order, built on read."""
        return [(b, to, kind) for b, out in enumerate(self.successors) for to, kind in out]


def build_cfg(program: TealProgram) -> Cfg:
    """Partition instructions into blocks and connect branch/fallthrough
    edges; a branch whose target the parser noted gets no taken edge."""
    opcodes = program.opcodes
    labels = program.labels
    n = len(opcodes)
    if n == 0:
        return Cfg([], [], [])

    leaders = {0, *(target for target in labels.values() if target < n)}
    leaders.update([after for after, op in enumerate(opcodes, 1) if op in _BLOCK_ENDS])
    leaders.discard(n)

    starts = sorted(leaders)
    blocks = []
    block_of: list[int] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(BasicBlock(bi, start, end))
        block_of += [bi] * (end - start)

    successors = []
    last_block = len(blocks) - 1
    for block in blocks:
        out = []
        last = block.end - 1
        op = opcodes[last]
        if op in BRANCH_OPCODES:
            immediates = program.immediates[last]
            target = labels.get(immediates[0], n) if immediates else n
            if target < n:
                out.append((block_of[target], BRANCH_TAKEN))
            if op != "b" and block.index < last_block:
                out.append((block.index + 1, BRANCH_NOT_TAKEN))
        elif op not in TERMINATOR_OPCODES and block.index < last_block:
            out.append((block.index + 1, FALLTHROUGH))
        successors.append(out)
    return Cfg(blocks, successors, block_of)

